#include "core/rc.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>
#include <limits>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "runtime/message.hpp"

namespace aa {

namespace {

/// Column-encoding selectors (the u8 after the entry-count varint).
constexpr std::uint8_t kColDeltaVarint = 0;
constexpr std::uint8_t kColRunLength = 1;

/// Wire size of the delta-varint encoding of a strictly ascending column
/// array: first column absolute, then raw deltas (>= 1 by strictness).
std::size_t delta_columns_size(std::span<const VertexId> cols) {
    std::size_t bytes = varint_size(cols[0]);
    for (std::size_t i = 1; i < cols.size(); ++i) {
        bytes += varint_size(cols[i] - cols[i - 1]);
    }
    return bytes;
}

/// Wire size of the run-length encoding: varint run count, then per maximal
/// consecutive run a varint start gap (absolute for the first run, offset
/// from the previous run's last column otherwise — always >= 2, since a gap
/// of 1 would merge the runs) and a varint (run length - 1). Dense blocks —
/// later RC rounds ship near-full rows — collapse to a few bytes total,
/// which is what pushes the aggregate byte reduction past what per-entry
/// deltas alone can reach (a delta is never smaller than 1 byte/entry).
struct RleSize {
    std::size_t bytes;
    std::size_t runs;
};
RleSize rle_columns_size(std::span<const VertexId> cols) {
    std::size_t runs = 0;
    std::size_t bytes = 0;
    std::size_t i = 0;
    while (i < cols.size()) {
        std::size_t j = i + 1;
        while (j < cols.size() && cols[j] == cols[j - 1] + 1) {
            ++j;
        }
        const std::uint32_t gap =
            runs == 0 ? cols[i] : cols[i] - cols[i - 1];  // cols[i-1] = prev run end
        bytes += varint_size(gap) + varint_size(j - i - 1);
        ++runs;
        i = j;
    }
    return {bytes + varint_size(runs), runs};
}

void write_delta_columns(Serializer& out, std::span<const VertexId> cols) {
    out.write_varint(cols[0]);
    for (std::size_t i = 1; i < cols.size(); ++i) {
        out.write_varint(cols[i] - cols[i - 1]);
    }
}

void write_rle_columns(Serializer& out, std::span<const VertexId> cols,
                       std::size_t num_runs) {
    out.write_varint(num_runs);
    std::size_t runs = 0;
    std::size_t i = 0;
    while (i < cols.size()) {
        std::size_t j = i + 1;
        while (j < cols.size() && cols[j] == cols[j - 1] + 1) {
            ++j;
        }
        out.write_varint(runs == 0 ? cols[i] : cols[i] - cols[i - 1]);
        out.write_varint(j - i - 1);
        ++runs;
        i = j;
    }
    AA_ASSERT(runs == num_runs);
}

/// Decode the column section of one block into `out` (appending exactly
/// `count` strictly ascending columns) and advance `cursor` past it. All
/// structural failure modes assert with greppable messages (see rc.hpp).
void decode_columns(std::span<const std::byte> payload, std::size_t& cursor,
                    std::uint32_t count, std::uint8_t encoding, std::vector<VertexId>& out) {
    if (encoding == kColDeltaVarint) {
        std::uint64_t col = read_varint_u32(payload, cursor);
        out.push_back(static_cast<VertexId>(col));
        for (std::uint32_t i = 1; i < count; ++i) {
            const std::uint32_t delta = read_varint_u32(payload, cursor);
            AA_ASSERT_MSG(delta >= 1, "boundary block non-monotone column delta");
            col += delta;
            AA_ASSERT_MSG(col <= std::numeric_limits<VertexId>::max(),
                          "boundary block column overflow");
            out.push_back(static_cast<VertexId>(col));
        }
    } else {
        const std::uint32_t num_runs = read_varint_u32(payload, cursor);
        AA_ASSERT_MSG(num_runs >= 1 && num_runs <= count,
                      "boundary block run count invalid");
        std::uint64_t produced = 0;
        std::uint64_t prev_end = 0;
        for (std::uint32_t r = 0; r < num_runs; ++r) {
            const std::uint32_t gap = read_varint_u32(payload, cursor);
            std::uint64_t start;
            if (r == 0) {
                start = gap;
            } else {
                AA_ASSERT_MSG(gap >= 1, "boundary block non-monotone column delta");
                start = prev_end + gap;
            }
            const std::uint64_t len =
                static_cast<std::uint64_t>(read_varint_u32(payload, cursor)) + 1;
            AA_ASSERT_MSG(produced + len <= count,
                          "boundary block run length mismatch");
            const std::uint64_t end = start + len - 1;
            AA_ASSERT_MSG(end <= std::numeric_limits<VertexId>::max(),
                          "boundary block column overflow");
            for (std::uint64_t c = start; c <= end; ++c) {
                out.push_back(static_cast<VertexId>(c));
            }
            produced += len;
            prev_end = end;
        }
        AA_ASSERT_MSG(produced == count, "boundary block run length mismatch");
    }
}

}  // namespace

/// `cols` must be strictly ascending (asserted); the encoder
/// deterministically picks the smaller column encoding (tie goes to
/// delta-varint) so identical inputs always produce identical bytes. The
/// trailing pad keeps the block size a multiple of 8 — every block in a
/// concatenated payload therefore starts 8-aligned and its f64 run can be
/// read in place.
void encode_boundary_block(Serializer& out, VertexId vertex,
                           std::span<const VertexId> cols,
                           std::span<const Weight> dists) {
    AA_ASSERT(cols.size() == dists.size());
    AA_ASSERT_MSG((out.size() & (sizeof(Weight) - 1)) == 0,
                  "boundary block must start 8-aligned");
    out.write(vertex);
    out.write_varint(cols.size());
    if (cols.empty()) {
        out.write(kColDeltaVarint);
    } else {
        for (std::size_t i = 1; i < cols.size(); ++i) {
            AA_ASSERT_MSG(cols[i] > cols[i - 1], "boundary block columns not ascending");
        }
        const std::size_t delta_bytes = delta_columns_size(cols);
        // Probe the RLE size only when it can win: it needs at most one
        // varint pair per run, so with r runs it beats n deltas only if the
        // run structure is coarse. Computing both sizes is O(n) either way;
        // keep it simple and exact.
        const RleSize rle = rle_columns_size(cols);
        if (rle.bytes < delta_bytes) {
            out.write(kColRunLength);
            write_rle_columns(out, cols, rle.runs);
        } else {
            out.write(kColDeltaVarint);
            write_delta_columns(out, cols);
        }
    }
    out.pad_to(sizeof(Weight));
    out.write_bytes(std::as_bytes(dists));
}

std::vector<std::byte> encode_boundary_blocks(const std::vector<BoundaryBlock>& blocks) {
    Serializer out;
    std::vector<VertexId> cols;
    std::vector<Weight> dists;
    for (const BoundaryBlock& block : blocks) {
        cols.clear();
        dists.clear();
        for (const DvEntry& entry : block.entries) {
            cols.push_back(entry.column);
            dists.push_back(entry.distance);
        }
        encode_boundary_block(out, block.vertex, cols, dists);
    }
    return out.take();
}

std::vector<BoundaryBlock> decode_boundary_blocks(std::span<const std::byte> payload) {
    std::vector<BoundaryBlock> blocks;
    std::vector<VertexId> arena;
    for (const BoundaryBlockSoaView& view : decode_boundary_block_soa_views(payload, arena)) {
        BoundaryBlock block;
        block.vertex = view.vertex;
        block.entries.reserve(view.cols.size());
        for (std::size_t i = 0; i < view.cols.size(); ++i) {
            block.entries.push_back({view.cols[i], view.dists[i]});
        }
        blocks.push_back(std::move(block));
    }
    return blocks;
}

std::vector<BoundaryBlockSoaView> decode_boundary_block_soa_views(
    std::span<const std::byte> payload, std::vector<VertexId>& column_arena) {
    column_arena.clear();
    // The arena may still reallocate while blocks stream in, so record index
    // ranges first and convert them to spans only once the walk is done. Any
    // hostile count is bounded before columns are materialized: `count`
    // entries need count * 8 distance bytes later in the payload, so a block
    // can never append more than remaining/8 columns before the exact check
    // below rejects it — total allocation stays O(payload size).
    struct RawBlock {
        VertexId vertex;
        std::size_t col_start;
        std::uint32_t count;
        std::size_t dist_offset;
    };
    std::vector<RawBlock> raw;
    std::size_t cursor = 0;
    while (cursor < payload.size()) {
        AA_ASSERT_MSG(payload.size() - cursor >= sizeof(VertexId),
                      "boundary block header truncated");
        VertexId vertex;
        std::memcpy(&vertex, payload.data() + cursor, sizeof(vertex));
        cursor += sizeof(vertex);
        const std::uint32_t count = read_varint_u32(payload, cursor);
        AA_ASSERT_MSG(count <= (payload.size() - cursor) / sizeof(Weight),
                      "boundary block entry count exceeds payload");
        AA_ASSERT_MSG(cursor < payload.size(), "boundary block header truncated");
        const auto encoding = static_cast<std::uint8_t>(payload[cursor++]);
        AA_ASSERT_MSG(encoding == kColDeltaVarint || encoding == kColRunLength,
                      "boundary block unknown column encoding");
        const std::size_t col_start = column_arena.size();
        if (count > 0) {
            decode_columns(payload, cursor, count, encoding, column_arena);
        }
        while ((cursor & (sizeof(Weight) - 1)) != 0) {
            AA_ASSERT_MSG(cursor < payload.size(), "boundary block padding truncated");
            AA_ASSERT_MSG(payload[cursor] == std::byte{0},
                          "boundary block padding corrupt");
            ++cursor;
        }
        AA_ASSERT_MSG(count <= (payload.size() - cursor) / sizeof(Weight),
                      "boundary block entry count exceeds payload");
        raw.push_back({vertex, col_start, count, cursor});
        cursor += static_cast<std::size_t>(count) * sizeof(Weight);
    }
    std::vector<BoundaryBlockSoaView> views;
    views.reserve(raw.size());
    for (const RawBlock& block : raw) {
        const std::byte* dist_bytes = payload.data() + block.dist_offset;
        // In-place f64 view: the encoder's 8-byte block quantum plus the
        // allocator's >= 8-byte base alignment make this cast safe; asserted
        // because a caller handing us an offset sub-span would break it.
        AA_ASSERT((reinterpret_cast<std::uintptr_t>(dist_bytes) &
                   (alignof(Weight) - 1)) == 0);
        views.push_back({block.vertex,
                         {column_arena.data() + block.col_start, block.count},
                         {reinterpret_cast<const Weight*>(dist_bytes), block.count}});
    }
    return views;
}

std::size_t encode_row_block(Serializer& out, VertexId vertex,
                             std::span<const Weight> row) {
    std::vector<VertexId> cols;
    std::vector<Weight> dists;
    for (std::size_t c = 0; c < row.size(); ++c) {
        if (row[c] < kInfinity) {
            cols.push_back(static_cast<VertexId>(c));
            dists.push_back(row[c]);
        }
    }
    encode_boundary_block(out, vertex, cols, dists);
    return cols.size();
}

void encode_edge_update_header(Serializer& out,
                               std::span<const DirectedEdgeUpdate> updates) {
    AA_ASSERT(out.size() == 0);
    out.write(static_cast<std::uint32_t>(updates.size()));
    out.write(std::uint32_t{0});
    for (const DirectedEdgeUpdate& u : updates) {
        out.write(u.from);
        out.write(u.to);
        out.write(u.weight);
    }
}

EdgeUpdatePayload decode_edge_update_payload(std::span<const std::byte> payload,
                                             const ShardOwnership& ownership,
                                             RankId root,
                                             std::vector<VertexId>& column_arena) {
    constexpr std::size_t kHeaderBytes = 8;
    constexpr std::size_t kRecordBytes = 2 * sizeof(VertexId) + sizeof(Weight);
    const std::size_t n = ownership.num_vertices();
    AA_ASSERT_MSG(payload.size() >= kHeaderBytes, "edge update header truncated");
    std::uint32_t count;
    std::uint32_t reserved;
    std::memcpy(&count, payload.data(), sizeof(count));
    std::memcpy(&reserved, payload.data() + sizeof(count), sizeof(reserved));
    AA_ASSERT_MSG(reserved == 0, "edge update header corrupt");
    // Divide instead of multiplying, so a hostile count cannot wrap.
    AA_ASSERT_MSG(count <= (payload.size() - kHeaderBytes) / kRecordBytes,
                  "edge update list truncated");

    EdgeUpdatePayload out;
    out.updates.resize(count);
    std::size_t cursor = kHeaderBytes;
    for (DirectedEdgeUpdate& u : out.updates) {
        std::memcpy(&u.from, payload.data() + cursor, sizeof(VertexId));
        std::memcpy(&u.to, payload.data() + cursor + sizeof(VertexId), sizeof(VertexId));
        std::memcpy(&u.weight, payload.data() + cursor + 2 * sizeof(VertexId),
                    sizeof(Weight));
        cursor += kRecordBytes;
        AA_ASSERT_MSG(u.from < n && u.to < n, "edge update endpoint out of range");
        AA_ASSERT_MSG(u.from != u.to, "edge update is a self-loop");
        AA_ASSERT_MSG(u.weight > 0 && u.weight < kInfinity, "edge update weight invalid");
    }

    out.rows = decode_boundary_block_soa_views(payload.subspan(cursor), column_arena);
    std::vector<std::uint8_t> read(out.rows.size(), 0);
    for (std::size_t i = 0; i < out.rows.size(); ++i) {
        const BoundaryBlockSoaView& row = out.rows[i];
        AA_ASSERT_MSG(i == 0 || row.vertex > out.rows[i - 1].vertex,
                      "edge update rows not ascending");
        AA_ASSERT_MSG(row.vertex < n && ownership.owned_by(row.vertex, root),
                      "edge update row for a vertex the root does not own");
        AA_ASSERT_MSG(row.cols.empty() || row.cols.back() < n,
                      "edge update row column out of range");
    }
    out.row_of.reserve(count);
    for (const DirectedEdgeUpdate& u : out.updates) {
        const auto it = std::lower_bound(
            out.rows.begin(), out.rows.end(), u.from,
            [](const BoundaryBlockSoaView& row, VertexId v) { return row.vertex < v; });
        AA_ASSERT_MSG(it != out.rows.end() && it->vertex == u.from,
                      "edge update row missing");
        const auto index = static_cast<std::size_t>(it - out.rows.begin());
        read[index] = 1;
        out.row_of.push_back(static_cast<std::uint32_t>(index));
    }
    AA_ASSERT_MSG(std::find(read.begin(), read.end(), 0) == read.end(),
                  "edge update row without an update");
    return out;
}

double rc_post_boundary_updates(const LocalSubgraph& sg, DistanceStore& store,
                                Cluster& cluster, RcPostProfile* profile,
                                std::span<const LocalId> row_order) {
    AA_ASSERT_MSG(row_order.empty() || row_order.size() == sg.num_local(),
                  "refine plan must be a permutation of all local rows");
    const RankId me = sg.rank();
    const std::uint32_t num_ranks = cluster.num_ranks();
    double ops = 0;

    // Per-destination payloads: each sending row's block is encoded exactly
    // once and its bytes appended to every destination buffer (a payload is
    // a plain concatenation of self-aligned blocks).
    std::vector<std::vector<std::byte>> outgoing(num_ranks);
    std::vector<VertexId> sorted_cols;  // reused across rows
    std::vector<Weight> dists;          // reused across rows
    Serializer encoder;                 // reused across rows

    for (std::size_t i = 0; i < sg.num_local(); ++i) {
        // A refine plan visits rows in planner priority order; the empty
        // default is the historical ascending sweep (see rc.hpp).
        const LocalId l =
            row_order.empty() ? static_cast<LocalId>(i) : row_order[i];
        if (!store.has_send(l)) {
            continue;
        }
        const auto cols = store.take_send(l);
        const auto destinations = sg.neighbor_ranks(l);
        ops += static_cast<double>(cols.size());
        if (profile != nullptr) {
            ++profile->rows_drained;
        }
        if (destinations.empty()) {
            continue;  // interior row: changes have no external audience
        }
        // Canonicalize to ascending column order: columns within a drain are
        // unique, so ordering cannot change any receiver outcome or the op
        // count — it makes the block bytes a pure function of the drained
        // set (the delta and run-length column encodings require it).
        // Non-finite entries are dropped at drain time: an invalidated column
        // may sit in the send set (the deletion path re-dirties what it
        // raises), but infinity relaxes nothing remotely — raises travel as
        // explicit ShrinkRaise messages, never as boundary-DV entries.
        const auto row = store.row(l);
        sorted_cols.clear();
        for (const VertexId col : cols) {
            if (row[col] < kInfinity) {
                sorted_cols.push_back(col);
            }
        }
        std::sort(sorted_cols.begin(), sorted_cols.end());
        if (sorted_cols.empty()) {
            continue;
        }
        encoder.clear();
        dists.clear();
        dists.reserve(sorted_cols.size());
        for (const VertexId col : sorted_cols) {
            dists.push_back(row[col]);
        }
        encode_boundary_block(encoder, sg.global_id(l), sorted_cols, dists);
        const auto block_bytes = encoder.view();
        // Serialization cost is charged once per block, not once per
        // destination: the encoded bytes are shared (see rc.hpp).
        ops += static_cast<double>(sorted_cols.size());
        if (profile != nullptr) {
            ++profile->blocks;
            profile->entries += sorted_cols.size();
        }
        for (const RankId dest : destinations) {
            outgoing[dest].insert(outgoing[dest].end(), block_bytes.begin(),
                                  block_bytes.end());
        }
    }

    for (RankId dest = 0; dest < num_ranks; ++dest) {
        if (dest == me || outgoing[dest].empty()) {
            continue;
        }
        if (profile != nullptr) {
            ++profile->messages;
            profile->bytes += outgoing[dest].size();
        }
        cluster.send(me, dest, MessageTag::BoundaryDvUpdate, std::move(outgoing[dest]));
    }
    return ops;
}

std::size_t adaptive_rc_ingest_window_bytes(std::size_t live_ranks) {
    long llc = -1;
#if defined(_SC_LEVEL3_CACHE_SIZE)
    llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
    if (llc <= 0) {
        llc = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
    }
#endif
    const std::size_t cache =
        llc > 0 ? static_cast<std::size_t>(llc) : (std::size_t{32} << 20);
    const std::size_t share = cache / std::max<std::size_t>(live_ranks, 1);
    return std::clamp(share, std::size_t{4} << 20, std::size_t{128} << 20);
}

namespace {

/// One relaxation work item: apply block `block` to local row `row` through
/// a cut edge of weight `w`.
struct IngestPair {
    LocalId row;
    std::uint32_t block;
    Weight w;
};

}  // namespace

double rc_ingest_updates(const LocalSubgraph& sg, DistanceStore& store,
                         const std::vector<Message>& inbox, BoundaryWireFormat,
                         ThreadPool* pool, std::size_t parallel_grain,
                         std::size_t window_bytes, RcIngestProfile* profile) {
    // Pass 1: decode every received block in place (zero copy — distance
    // spans point into the message payloads, which outlive this call; column
    // spans point into per-message arenas kept alive below) and flatten the
    // work into (row, block, weight) pairs, one per incident cut edge, in
    // block-arrival order.
    double ops = 0;
    std::vector<BoundaryBlockSoaView> views;
    std::vector<std::vector<VertexId>> arenas;  // column storage per message
    std::vector<IngestPair> pairs;
    for (const Message& message : inbox) {
        if (message.tag != MessageTag::BoundaryDvUpdate) {
            continue;
        }
        auto& arena = arenas.emplace_back();
        for (const BoundaryBlockSoaView& block :
             decode_boundary_block_soa_views(message.bytes(), arena)) {
            // Keep the block only if it has a local audience.
            const auto locals = sg.external_neighbors(block.vertex);
            const std::size_t entry_count = block.cols.size();
            if (locals.empty() || entry_count == 0) {
                continue;
            }
            ops += static_cast<double>(entry_count) * static_cast<double>(locals.size());
            if (profile != nullptr) {
                ++profile->blocks;
                profile->entries += entry_count;
                profile->relax_attempts += entry_count * locals.size();
            }
            const auto index = static_cast<std::uint32_t>(views.size());
            for (const auto& [local, w] : locals) {
                pairs.push_back({local, index, w});
            }
            views.push_back(block);
        }
    }
    if (pairs.empty()) {
        return ops;
    }
    const auto relax_block = [&](const IngestPair& pr) {
        const BoundaryBlockSoaView& b = views[pr.block];
        store.relax_batch_soa(pr.row, b.cols, b.dists, pr.w);
    };

    // Pass 2: process the pairs in payload *windows*. A round's inbox can be
    // far larger than the cache, and the blocks incident to one row arrive
    // scattered across it — sweeping in raw arrival order re-streams every
    // destination row from DRAM once per incident block. Instead, take blocks
    // (in arrival order) until their entries total ~kRcIngestWindowBytes,
    // bucket that window's pairs stably by destination row, and sweep each
    // row's pairs back to back: the row's cache lines are loaded once per
    // window instead of once per block, and the window's payload stays
    // LLC-resident across all of its sweeps. Relaxation outcomes are
    // bit-identical to the scalar kernel: rows are independent, and within
    // one row the stable bucketing preserves block-arrival order, so every
    // (row, column) sees the same candidates in the same order.
    const std::size_t num_rows = sg.num_local();
    std::vector<std::uint32_t> bucket(num_rows + 1);
    std::vector<IngestPair> by_row;        // window pairs grouped by row
    std::vector<std::uint32_t> group_start;  // pair index where each row group begins
    std::size_t p = 0;
    while (p < pairs.size()) {
        const std::size_t begin = p;
        std::size_t accumulated_bytes = 0;
        std::size_t window_attempts = 0;
        std::uint32_t last_block = std::numeric_limits<std::uint32_t>::max();
        while (p < pairs.size()) {
            const IngestPair& pr = pairs[p];
            if (pr.block != last_block) {
                // Pairs of one block are consecutive, so windows split only
                // at block boundaries (a block is never torn across windows,
                // and a window always takes at least one block even when a
                // single block exceeds window_bytes). A block is measured by
                // its decoded footprint, sizeof(DvEntry) per entry.
                const std::size_t bytes = views[pr.block].cols.size() * sizeof(DvEntry);
                if (accumulated_bytes != 0 && accumulated_bytes + bytes > window_bytes) {
                    break;
                }
                accumulated_bytes += bytes;
                last_block = pr.block;
            }
            window_attempts += views[pr.block].cols.size();
            ++p;
        }

        if (profile != nullptr) {
            ++profile->windows;
        }

        // Stable counting sort of the window's pairs by destination row.
        const std::span<const IngestPair> window(pairs.data() + begin, p - begin);
        std::fill(bucket.begin(), bucket.end(), 0);
        for (const IngestPair& pr : window) {
            ++bucket[pr.row + 1];
        }
        for (std::size_t r = 0; r < num_rows; ++r) {
            bucket[r + 1] += bucket[r];
        }
        by_row.resize(window.size());
        for (const IngestPair& pr : window) {
            by_row[bucket[pr.row]++] = pr;
        }

        group_start.clear();
        for (std::size_t i = 0; i < by_row.size(); ++i) {
            if (i == 0 || by_row[i].row != by_row[i - 1].row) {
                group_start.push_back(static_cast<std::uint32_t>(i));
            }
        }
        group_start.push_back(static_cast<std::uint32_t>(by_row.size()));

        // Each group is one destination row — groups are pairwise disjoint,
        // so they can fan out to the pool with the worklist merge inside the
        // store as the only shared state per row.
        const std::size_t num_groups = group_start.size() - 1;
        if (pool != nullptr && pool->num_threads() > 1 && num_groups > 1 &&
            window_attempts >= parallel_grain) {
            pool->parallel_for(0, num_groups, [&](std::size_t g) {
                for (std::uint32_t i = group_start[g]; i < group_start[g + 1]; ++i) {
                    relax_block(by_row[i]);
                }
            });
        } else {
            for (std::size_t g = 0; g < num_groups; ++g) {
                for (std::uint32_t i = group_start[g]; i < group_start[g + 1]; ++i) {
                    relax_block(by_row[i]);
                }
            }
        }
    }
    return ops;
}

double rc_propagate_local(const LocalSubgraph& sg, DistanceStore& store,
                          ThreadPool* pool, std::size_t parallel_grain,
                          RcPropagateProfile* profile,
                          std::span<const LocalId> seed_order, double max_ops) {
    AA_ASSERT_MSG(seed_order.empty() || seed_order.size() == sg.num_local(),
                  "refine plan must be a permutation of all local rows");
    double ops = 0;
    std::deque<LocalId> worklist;
    std::vector<std::uint8_t> queued(sg.num_local(), 0);
    for (std::size_t i = 0; i < sg.num_local(); ++i) {
        const LocalId l =
            seed_order.empty() ? static_cast<LocalId>(i) : seed_order[i];
        if (store.has_prop(l)) {
            worklist.push_back(l);
            queued[l] = 1;
        }
    }

    struct Target {
        LocalId v;
        Weight w;
    };
    std::vector<Target> targets;       // reused: local neighbour rows
    std::vector<std::uint8_t> improved;  // reused: per-target improvement flags
    std::vector<VertexId> sorted_cols;   // reused: drained columns in column order
    std::vector<Weight> gathered;        // reused: contiguous drained source values
    // Scratch bitmap for linear-time column ordering (one bit per column).
    std::vector<std::uint64_t> col_bits((store.num_columns() + 63) / 64, 0);

    while (!worklist.empty()) {
        // Budget check *before* the pop: an exhausted call leaves every
        // undrained row marked, so nothing is lost — later steps finish the
        // drain (see rc.hpp). ops starts at 0 < max_ops, so at least one
        // marked row always drains per call.
        if (max_ops > 0 && ops >= max_ops) {
            break;
        }
        const LocalId u = worklist.front();
        worklist.pop_front();
        queued[u] = 0;
        const auto cols = store.take_prop(u);
        if (cols.empty()) {
            continue;
        }
        if (profile != nullptr) {
            ++profile->rows_drained;
        }
        // Order the drained columns. They are unique (epoch-deduplicated), so
        // reordering cannot change any relaxation outcome — but a sorted
        // sweep walks both the source and the target row forward instead of
        // scattering, and the ordering cost is paid once per drained row yet
        // reused across all its neighbours. Large drains order via the
        // scratch bitmap in O(k + columns/64); small ones with a plain sort.
        sorted_cols.assign(cols.begin(), cols.end());
        if (sorted_cols.size() >= 64) {
            for (const VertexId col : sorted_cols) {
                col_bits[col >> 6] |= std::uint64_t{1} << (col & 63);
            }
            sorted_cols.clear();
            for (std::size_t w = 0; w < col_bits.size(); ++w) {
                std::uint64_t word = col_bits[w];
                if (word == 0) {
                    continue;
                }
                col_bits[w] = 0;
                while (word != 0) {
                    const auto bit = static_cast<VertexId>(std::countr_zero(word));
                    sorted_cols.push_back(static_cast<VertexId>(w << 6) + bit);
                    word &= word - 1;
                }
            }
        } else {
            std::sort(sorted_cols.begin(), sorted_cols.end());
        }
        const auto row_u = store.row(u);
        targets.clear();
        for (const Neighbor& nb : sg.neighbors(u)) {
            if (!sg.owns(nb.to)) {
                continue;  // cross-rank propagation happens via RC messages
            }
            targets.push_back({sg.local_id(nb.to), nb.weight});
        }
        if (targets.empty()) {
            continue;
        }
        ops += static_cast<double>(sorted_cols.size()) *
               static_cast<double>(targets.size());
        if (profile != nullptr) {
            profile->relax_attempts += sorted_cols.size() * targets.size();
        }

        // Fan the sweep out only when the work dwarfs the dispatch cost.
        // Neighbour rows are pairwise distinct (simple graph) and distinct
        // from u, so each task owns its destination row exclusively; the
        // worklist merge below is the only synchronization point.
        const bool fan_out = pool != nullptr && pool->num_threads() > 1 &&
                             targets.size() > 1 &&
                             sorted_cols.size() * targets.size() >= parallel_grain;
        // Row-blocked sweep: gather the drained source values once into a
        // contiguous buffer, then sweep each tile through every neighbour
        // while the tile is still cache-hot (see kRcPropagateTileCols in
        // rc.hpp for why this cannot change results). The parallel branch
        // sweeps each neighbour's full span instead — threads share the
        // read-only gathered buffer and tiling across tasks would only
        // multiply dispatches.
        gathered.resize(sorted_cols.size());
        for (std::size_t i = 0; i < sorted_cols.size(); ++i) {
            gathered[i] = row_u[sorted_cols[i]];
        }
        const std::span<const VertexId> all_cols(sorted_cols);
        const std::span<const Weight> all_dists(gathered);
        improved.assign(targets.size(), 0);
        if (fan_out) {
            pool->parallel_for(0, targets.size(), [&](std::size_t i) {
                improved[i] = store.relax_batch_soa(targets[i].v, all_cols, all_dists,
                                                    targets[i].w) > 0
                                  ? 1
                                  : 0;
            });
        } else {
            for (std::size_t tile = 0; tile < all_cols.size();
                 tile += kRcPropagateTileCols) {
                const std::size_t n =
                    std::min(kRcPropagateTileCols, all_cols.size() - tile);
                const auto tile_span = all_cols.subspan(tile, n);
                const auto tile_dists = all_dists.subspan(tile, n);
                for (std::size_t i = 0; i < targets.size(); ++i) {
                    if (store.relax_batch_soa(targets[i].v, tile_span, tile_dists,
                                              targets[i].w) > 0) {
                        improved[i] = 1;
                    }
                }
            }
        }
        for (std::size_t i = 0; i < targets.size(); ++i) {
            const LocalId v = targets[i].v;
            if (improved[i] != 0 && queued[v] == 0) {
                worklist.push_back(v);
                queued[v] = 1;
            }
        }
    }
    return ops;
}

double rc_ingest_updates_scalar(const LocalSubgraph& sg, DistanceStore& store,
                                const std::vector<Message>& inbox) {
    double ops = 0;
    for (const Message& message : inbox) {
        if (message.tag != MessageTag::BoundaryDvUpdate) {
            continue;
        }
        for (const BoundaryBlock& block : decode_boundary_blocks(message.bytes())) {
            // Relax every local endpoint of every cut edge to the updated
            // external vertex: d(local, t) <= w(local, ext) + d(ext, t).
            const auto locals = sg.external_neighbors(block.vertex);
            for (const auto& [local, w] : locals) {
                for (const DvEntry& entry : block.entries) {
                    store.relax(local, entry.column, w + entry.distance);
                    ops += 1;
                }
            }
        }
    }
    return ops;
}

double rc_propagate_local_scalar(const LocalSubgraph& sg, DistanceStore& store) {
    double ops = 0;
    std::deque<LocalId> worklist;
    std::vector<std::uint8_t> queued(sg.num_local(), 0);
    for (LocalId l = 0; l < sg.num_local(); ++l) {
        if (store.has_prop(l)) {
            worklist.push_back(l);
            queued[l] = 1;
        }
    }

    while (!worklist.empty()) {
        const LocalId u = worklist.front();
        worklist.pop_front();
        queued[u] = 0;
        const auto cols = store.take_prop(u);
        if (cols.empty()) {
            continue;
        }
        const auto row_u = store.row(u);
        for (const Neighbor& nb : sg.neighbors(u)) {
            if (!sg.owns(nb.to)) {
                continue;  // cross-rank propagation happens via RC messages
            }
            const LocalId v = sg.local_id(nb.to);
            bool improved = false;
            for (const VertexId col : cols) {
                improved |= store.relax(v, col, row_u[col] + nb.weight);
                ops += 1;
            }
            if (improved && queued[v] == 0) {
                worklist.push_back(v);
                queued[v] = 1;
            }
        }
    }
    return ops;
}

}  // namespace aa
