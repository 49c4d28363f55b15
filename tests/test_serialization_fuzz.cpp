// Randomized round-trip sweeps for the wire payloads — the closest thing to
// fuzzing that stays deterministic and offline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/rng.hpp"
#include "core/edge_delete.hpp"
#include "core/rc.hpp"
#include "runtime/message.hpp"
#include "shard/ownership.hpp"

namespace aa {
namespace {

class SerializerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializerFuzz, MixedScalarsRoundTrip) {
    Rng rng(GetParam());
    Serializer out;
    // Random interleaving of types, recorded for replay.
    std::vector<int> kinds;
    std::vector<std::uint32_t> u32s;
    std::vector<double> doubles;
    std::vector<std::vector<float>> spans;
    const int count = 1 + static_cast<int>(rng.uniform(64));
    for (int i = 0; i < count; ++i) {
        const int kind = static_cast<int>(rng.uniform(3));
        kinds.push_back(kind);
        if (kind == 0) {
            u32s.push_back(static_cast<std::uint32_t>(rng()));
            out.write(u32s.back());
        } else if (kind == 1) {
            doubles.push_back(rng.uniform(-1e9, 1e9));
            out.write(doubles.back());
        } else {
            std::vector<float> span(rng.uniform(20));
            for (auto& x : span) {
                x = static_cast<float>(rng.uniform01());
            }
            spans.push_back(span);
            out.write_span(std::span<const float>(spans.back()));
        }
    }

    const auto buffer = out.take();
    Deserializer in(buffer);
    std::size_t iu = 0;
    std::size_t id = 0;
    std::size_t is = 0;
    for (const int kind : kinds) {
        if (kind == 0) {
            ASSERT_EQ(in.read<std::uint32_t>(), u32s[iu++]);
        } else if (kind == 1) {
            ASSERT_EQ(in.read<double>(), doubles[id++]);
        } else {
            ASSERT_EQ(in.read_vector<float>(), spans[is++]);
        }
    }
    EXPECT_TRUE(in.exhausted());
}

TEST_P(SerializerFuzz, BoundaryBlocksRoundTripV2) {
    // The SoA format requires strictly-ascending columns per block (the
    // post kernel sorts). Mix dense consecutive runs with sparse gaps so both
    // column encodings (run-length and delta-varint) get exercised, and check
    // the copying decoder and the zero-copy SoA-view decoder agree byte for
    // byte.
    Rng rng(GetParam() ^ 0x50A2);
    std::vector<BoundaryBlock> blocks;
    const std::size_t block_count = rng.uniform(16);
    for (std::size_t b = 0; b < block_count; ++b) {
        BoundaryBlock block;
        block.vertex = static_cast<VertexId>(rng.uniform(1u << 20));
        const std::size_t entries = rng.uniform(40);
        VertexId col = static_cast<VertexId>(rng.uniform(1u << 16));
        for (std::size_t e = 0; e < entries; ++e) {
            // 70% consecutive step, 30% random jump: dense prefixes favour
            // RLE, jumpy tails favour delta-varint.
            col += rng.uniform01() < 0.7
                       ? 1
                       : 1 + static_cast<VertexId>(rng.uniform(1u << 12));
            block.entries.push_back({col, rng.uniform(0.0, 1e6)});
        }
        blocks.push_back(std::move(block));
    }
    const auto payload =
        encode_boundary_blocks(blocks);
    const auto back =
        decode_boundary_blocks(payload);
    ASSERT_EQ(back.size(), blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        EXPECT_EQ(back[b].vertex, blocks[b].vertex);
        ASSERT_EQ(back[b].entries.size(), blocks[b].entries.size());
        for (std::size_t e = 0; e < blocks[b].entries.size(); ++e) {
            EXPECT_EQ(back[b].entries[e].column, blocks[b].entries[e].column);
            EXPECT_EQ(back[b].entries[e].distance, blocks[b].entries[e].distance);
        }
    }
    // Zero-copy SoA views over the same payload.
    std::vector<VertexId> arena;
    const auto views = decode_boundary_block_soa_views(payload, arena);
    ASSERT_EQ(views.size(), blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        EXPECT_EQ(views[b].vertex, blocks[b].vertex);
        ASSERT_EQ(views[b].cols.size(), blocks[b].entries.size());
        ASSERT_EQ(views[b].dists.size(), blocks[b].entries.size());
        for (std::size_t e = 0; e < blocks[b].entries.size(); ++e) {
            EXPECT_EQ(views[b].cols[e], blocks[b].entries[e].column);
            EXPECT_EQ(views[b].dists[e], blocks[b].entries[e].distance);
        }
    }
    // Every block occupies a multiple of 8 bytes (that is what keeps the
    // f64 runs aligned under concatenation), so the whole payload must too.
    EXPECT_EQ(payload.size() % sizeof(Weight), 0u);
}

TEST_P(SerializerFuzz, RaiseBlocksAgreeAcrossFormats) {
    // ShrinkRaise payloads (core/edge_delete.cpp) reuse the boundary-block
    // codec with a distinctive shape: columns are an ascending *subset* of
    // the suspect columns (dense runs where a whole region was invalidated,
    // gaps where entries survived) and distances carry the finite pre-raise
    // values. Both decoded layouts — the copying AoS blocks the raise path
    // reads and the zero-copy SoA views the RC ingest reads — must reproduce
    // that shape entry for entry and agree with each other.
    Rng rng(GetParam() ^ 0x5A15E);
    std::vector<BoundaryBlock> blocks;
    const std::size_t block_count = 1 + rng.uniform(8);
    for (std::size_t b = 0; b < block_count; ++b) {
        BoundaryBlock block;
        block.vertex = static_cast<VertexId>(rng.uniform(1u << 20));
        // Walk a sorted universe of suspect columns, keeping ~half: long
        // kept stretches exercise RLE, skipped stretches the delta path.
        VertexId col = static_cast<VertexId>(rng.uniform(1u << 10));
        const std::size_t universe = rng.uniform(60);
        for (std::size_t e = 0; e < universe; ++e) {
            col += 1;
            if (rng.uniform01() < 0.55) {
                block.entries.push_back({col, rng.uniform(1.0, 1e4)});
            }
        }
        blocks.push_back(std::move(block));
    }
    const auto payload = encode_boundary_blocks(blocks);
    const auto copies = decode_boundary_blocks(payload);
    std::vector<VertexId> arena;
    const auto views = decode_boundary_block_soa_views(payload, arena);
    ASSERT_EQ(copies.size(), blocks.size());
    ASSERT_EQ(views.size(), blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        EXPECT_EQ(copies[b].vertex, blocks[b].vertex);
        EXPECT_EQ(views[b].vertex, blocks[b].vertex);
        ASSERT_EQ(copies[b].entries.size(), blocks[b].entries.size());
        ASSERT_EQ(views[b].cols.size(), blocks[b].entries.size());
        ASSERT_EQ(views[b].dists.size(), blocks[b].entries.size());
        for (std::size_t e = 0; e < blocks[b].entries.size(); ++e) {
            EXPECT_EQ(copies[b].entries[e].column, blocks[b].entries[e].column);
            EXPECT_EQ(copies[b].entries[e].distance, blocks[b].entries[e].distance);
            EXPECT_EQ(views[b].cols[e], blocks[b].entries[e].column);
            EXPECT_EQ(views[b].dists[e], blocks[b].entries[e].distance);
        }
    }
}

/// Ownership of `n` vertices dealt round-robin over `ranks` ranks.
ShardOwnership round_robin_ownership(std::size_t n, std::uint32_t ranks) {
    std::vector<RankId> owners(n);
    for (std::size_t v = 0; v < n; ++v) {
        owners[v] = static_cast<RankId>(v % ranks);
    }
    return ShardOwnership::from_partition(owners, ranks, 1);
}

TEST_P(SerializerFuzz, PullPayloadsRoundTrip) {
    // Deletion-cascade pulls: sorted (vertex, column) keys for vertices the
    // receiving rank owns, and the reply values in request order.
    Rng rng(GetParam());
    const std::size_t n = 1 + rng.uniform(3000);
    const ShardOwnership ownership = round_robin_ownership(n, 4);
    const RankId self = static_cast<RankId>(rng.uniform(4));
    std::vector<PullKey> keys;
    const std::size_t count = rng.uniform(200);
    for (std::size_t i = 0; i < count; ++i) {
        const VertexId v = static_cast<VertexId>(rng.uniform(n));
        if (ownership.owned_by(v, self)) {
            keys.push_back(pull_key(v, static_cast<VertexId>(rng.uniform(n))));
        }
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    const auto request = encode_pull_request(keys);
    EXPECT_EQ(decode_pull_request(request, n, ownership, self), keys);

    std::vector<Weight> values(keys.size());
    for (auto& w : values) {
        w = rng.uniform01() < 0.2 ? kInfinity : rng.uniform(0.0, 1e6);
    }
    EXPECT_EQ(decode_pull_reply(encode_pull_reply(values), values.size()), values);
}

TEST_P(SerializerFuzz, EdgeUpdatePayloadsRoundTrip) {
    // One root's edge-update broadcast: its update list, then one block per
    // distinct `from` row in ascending order, rows anywhere from empty (but
    // the diagonal) to dense.
    Rng rng(GetParam());
    constexpr std::uint32_t kRanks = 4;
    const std::size_t n = kRanks + rng.uniform(3000);
    const ShardOwnership ownership = round_robin_ownership(n, kRanks);
    const auto root = static_cast<RankId>(rng.uniform(kRanks));
    std::vector<DirectedEdgeUpdate> updates;
    const std::size_t count = 1 + rng.uniform(40);
    while (updates.size() < count) {
        const std::size_t slot = rng.uniform((n - root + kRanks - 1) / kRanks);
        const auto from = static_cast<VertexId>(root + slot * kRanks);
        const auto to = static_cast<VertexId>(rng.uniform(n));
        if (from != to) {
            updates.push_back({from, to, rng.uniform(0.25, 8.0)});
        }
    }
    std::vector<VertexId> froms;
    for (const DirectedEdgeUpdate& u : updates) {
        froms.push_back(u.from);
    }
    std::sort(froms.begin(), froms.end());
    froms.erase(std::unique(froms.begin(), froms.end()), froms.end());
    std::vector<std::vector<Weight>> rows;
    Serializer out;
    encode_edge_update_header(out, updates);
    for (const VertexId v : froms) {
        std::vector<Weight> row(n, kInfinity);
        const double density = rng.uniform01();
        for (Weight& w : row) {
            if (rng.uniform01() < density) {
                w = rng.uniform(0.0, 1e6);
            }
        }
        row[v] = 0;
        encode_row_block(out, v, row);
        rows.push_back(std::move(row));
    }
    const auto payload = out.take();

    std::vector<VertexId> arena;
    const EdgeUpdatePayload got = decode_edge_update_payload(payload, ownership, root, arena);
    ASSERT_EQ(got.updates.size(), updates.size());
    ASSERT_EQ(got.row_of.size(), updates.size());
    for (std::size_t i = 0; i < updates.size(); ++i) {
        EXPECT_EQ(got.updates[i].from, updates[i].from);
        EXPECT_EQ(got.updates[i].to, updates[i].to);
        EXPECT_EQ(got.updates[i].weight, updates[i].weight);
        EXPECT_EQ(got.rows[got.row_of[i]].vertex, updates[i].from);
    }
    ASSERT_EQ(got.rows.size(), froms.size());
    for (std::size_t r = 0; r < froms.size(); ++r) {
        EXPECT_EQ(got.rows[r].vertex, froms[r]);
        std::size_t next = 0;
        for (VertexId c = 0; c < n; ++c) {
            if (rows[r][c] < kInfinity) {
                ASSERT_LT(next, got.rows[r].cols.size());
                EXPECT_EQ(got.rows[r].cols[next], c);
                EXPECT_EQ(got.rows[r].dists[next], rows[r][c]);
                ++next;
            }
        }
        EXPECT_EQ(next, got.rows[r].cols.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

// Hostile boundary-block payloads. The SoA decoder walks [u32 vertex]
// [varint count][u8 encoding][columns][zero pad to 8][count × f64] and must
// reject every malformed shape on a contract check before allocating
// anything proportional to a declared count — no UB, no allocation driven by
// a hostile count. Payloads are crafted byte-by-byte with the Serializer.

namespace v2 {
constexpr std::uint8_t kDelta = 0;    // delta-varint column encoding tag
constexpr std::uint8_t kRunLen = 1;   // run-length column encoding tag
}  // namespace v2

TEST(BoundaryBlockV2Validation, TruncatedCountVarintDies) {
    Serializer out;
    out.write(VertexId{7});
    out.write(std::uint8_t{0x80});  // continuation bit set, stream ends
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_boundary_blocks(payload),
                 "varint truncated");
}

TEST(BoundaryBlockV2Validation, OverlongCountVarintDies) {
    // Six continuation bytes: a u32 varint never legitimately needs more
    // than five, so this must die before it can fabricate a huge count.
    Serializer out;
    out.write(VertexId{7});
    for (int i = 0; i < 5; ++i) {
        out.write(std::uint8_t{0x80});
    }
    out.write(std::uint8_t{0x01});
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_boundary_blocks(payload),
                 "varint overlong");
}

TEST(BoundaryBlockV2Validation, DeclaredCountPastPayloadEndDies) {
    // A count of 2^28 with no bytes behind it: the division-based bound
    // check must reject it before any column materialization, so a hostile
    // count can never drive allocation.
    Serializer out;
    out.write(VertexId{3});
    out.write_varint(std::uint64_t{1} << 28);
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_boundary_blocks(payload),
                 "entry count exceeds payload");
}

TEST(BoundaryBlockV2Validation, NonMonotoneColumnDeltaDies) {
    // Delta 0 between columns encodes a duplicate/regressing column; the
    // format requires strictly-ascending columns (delta >= 1 after the
    // first).
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(2);          // two entries
    out.write(v2::kDelta);
    out.write_varint(9);          // first column, absolute
    out.write_varint(0);          // zero delta: non-monotone
    out.pad_to(sizeof(Weight));
    out.write(1.5);
    out.write(2.5);
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_boundary_blocks(payload),
                 "non-monotone column delta");
}

TEST(BoundaryBlockV2Validation, RunLengthSumMismatchDies) {
    // RLE runs must produce exactly `count` columns; one run of length 2
    // behind a declared count of 3 is a lie.
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(3);          // declares three entries
    out.write(v2::kRunLen);
    out.write_varint(1);          // one run
    out.write_varint(4);          // run starts at column 4
    out.write_varint(1);          // run length 2 (encoded as len - 1)
    out.pad_to(sizeof(Weight));
    out.write(1.0);
    out.write(2.0);
    out.write(3.0);
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_boundary_blocks(payload),
                 "run length mismatch");
}

TEST(BoundaryBlockV2Validation, ZeroRunCountDies) {
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(2);
    out.write(v2::kRunLen);
    out.write_varint(0);          // zero runs behind a nonzero count
    out.pad_to(sizeof(Weight));
    out.write(1.0);
    out.write(2.0);
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_boundary_blocks(payload),
                 "run count invalid");
}

TEST(BoundaryBlockV2Validation, UnknownColumnEncodingDies) {
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(1);
    out.write(std::uint8_t{7});   // no such encoding
    out.write_varint(4);
    out.pad_to(sizeof(Weight));
    out.write(1.0);
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_boundary_blocks(payload),
                 "unknown column encoding");
}

TEST(BoundaryBlockV2Validation, NonZeroPaddingByteDies) {
    // Craft a valid one-entry block, then flip its single pad byte: the
    // decoder checks padding is zero so corruption cannot hide there.
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(1);
    out.write(v2::kDelta);
    out.write_varint(4);          // 7 bytes so far: exactly one pad byte
    out.write(std::uint8_t{0xAB});
    out.write(1.0);
    const auto payload = out.take();
    ASSERT_EQ(payload.size() % sizeof(Weight), 0u);
    EXPECT_DEATH((void)decode_boundary_blocks(payload),
                 "padding corrupt");
}

TEST(BoundaryBlockV2Validation, PayloadEndingInsidePaddingDies) {
    // A five-byte column varint pushes the pad region past the hostile-count
    // bound (which only needs count * 8 bytes behind the count field), so the
    // stream can end mid-padding without tripping an earlier check.
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(1);
    out.write(v2::kDelta);
    out.write_varint(0xFFFFFFFFull);  // 5-byte varint: columns end at byte 11
    out.write(std::uint8_t{0});       // 3 of the 5 pad bytes, then the stream
    out.write(std::uint8_t{0});       // stops short of the 16-byte boundary
    out.write(std::uint8_t{0});
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_boundary_blocks(payload),
                 "padding truncated");
}

TEST(BoundaryBlockV2Validation, TruncatedHeaderDies) {
    const std::vector<std::byte> payload(sizeof(VertexId) - 1);
    EXPECT_DEATH((void)decode_boundary_blocks(payload),
                 "header truncated");
}

// Hostile shrink payloads: a raise message names the columns being pushed to
// infinity, so corruption there silently redirects the invalidation. Every
// malformed column stream must die on a contract check before ingest.

TEST(BoundaryBlockV2Validation, InflatedRunLengthOnRaiseColumnsDies) {
    // One RLE run claiming *more* columns than the declared entry count: the
    // run would invalidate columns the sender never named.
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(2);          // declares two raised columns
    out.write(v2::kRunLen);
    out.write_varint(1);          // one run
    out.write_varint(10);         // starting at column 10
    out.write_varint(3);          // run length 4 (len - 1): two columns extra
    out.pad_to(sizeof(Weight));
    out.write(1.0);
    out.write(2.0);
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_boundary_blocks(payload),
                 "run length mismatch");
}

TEST(BoundaryBlockV2Validation, ColumnVarintCorruptionCannotEatValueRun) {
    // Flip the second column delta into a continuation-bit run: the varint
    // reader would otherwise march through the padding and pre-raise values
    // reinterpreting them as column bytes. The overlong guard (a u32 varint
    // never needs more than five bytes) stops it first. A *short* payload
    // with the same corruption instead dies on the count bound before the
    // column walk even starts — both paths are pinned here.
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(2);
    out.write(v2::kDelta);
    out.write_varint(4);               // first column, absolute
    for (int i = 0; i < 16; ++i) {     // "values" now look like continuations
        out.write(std::uint8_t{0x80});
    }
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_boundary_blocks(payload),
                 "varint overlong");

    Serializer short_out;
    short_out.write(VertexId{5});
    short_out.write_varint(2);
    short_out.write(v2::kDelta);
    short_out.write_varint(4);
    short_out.write(std::uint8_t{0x80});  // stream ends mid-varint
    const auto short_payload = short_out.take();
    EXPECT_DEATH(
        (void)decode_boundary_blocks(short_payload),
        "entry count exceeds payload");
}

TEST(BoundaryBlockV2Validation, TruncatedPreRaiseValueRunDies) {
    // A structurally valid two-column block whose f64 value run was cut to
    // one value: the count-versus-payload bound must reject it up front.
    Serializer out;
    out.write(VertexId{5});
    out.write_varint(2);
    out.write(v2::kDelta);
    out.write_varint(4);
    out.write_varint(1);
    out.pad_to(sizeof(Weight));
    out.write(1.0);               // second value missing
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_boundary_blocks(payload),
                 "entry count exceeds payload");
}

TEST(BoundaryBlockV2Validation, SoaViewDecoderRejectsTheSamePayloads) {
    // The SoA-view decoder is the same validation pass; spot-check the two
    // highest-risk cases (hostile count, truncated varint) through it.
    std::vector<VertexId> arena;
    {
        Serializer out;
        out.write(VertexId{3});
        out.write_varint(std::uint64_t{1} << 28);
        const auto payload = out.take();
        EXPECT_DEATH((void)decode_boundary_block_soa_views(payload, arena),
                     "entry count exceeds payload");
    }
    {
        Serializer out;
        out.write(VertexId{7});
        out.write(std::uint8_t{0x80});
        const auto payload = out.take();
        EXPECT_DEATH((void)decode_boundary_block_soa_views(payload, arena),
                     "varint truncated");
    }
}

// Hostile counts and framing around otherwise well-formed blocks, through
// the copying decoder and the zero-copy SoA-view decoder alike.

TEST(BoundaryBlockValidation, OversizedEntryCountDies) {
    // The largest count the u32 varint can carry, with nothing behind it.
    Serializer out;
    out.write(VertexId{7});
    out.write_varint(std::numeric_limits<std::uint32_t>::max());
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_boundary_blocks(payload), "entry count exceeds payload");
}

TEST(BoundaryBlockValidation, OverflowWrappingEntryCountDies) {
    // A five-byte count of 2^32 + 3: truncated to 32 bits it would read as 3,
    // and a well-formed three-entry block follows to make that wrap look
    // valid. The varint reader must reject the spill past 32 bits.
    Serializer out;
    out.write(VertexId{1});
    out.write_varint((std::uint64_t{1} << 32) + 3);
    out.write(v2::kDelta);
    out.write_varint(0);
    out.write_varint(1);
    out.write_varint(1);
    out.pad_to(sizeof(Weight));
    for (int i = 0; i < 3; ++i) {
        out.write(1.5);
    }
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_boundary_blocks(payload), "varint overlong");
}

TEST(BoundaryBlockValidation, DeclaredCountPastPayloadEndDies) {
    // Count, encoding and all three columns are well formed, but only two of
    // the three distances are shipped.
    Serializer out;
    out.write(VertexId{3});
    out.write_varint(3);
    out.write(v2::kDelta);
    out.write_varint(0);
    out.write_varint(1);
    out.write_varint(1);
    out.pad_to(sizeof(Weight));
    out.write(1.5);
    out.write(2.5);
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_boundary_blocks(payload), "entry count exceeds payload");
}

TEST(BoundaryBlockValidation, TruncatedHeaderDies) {
    // Vertex and a zero count, then the payload ends before the column
    // encoding byte.
    Serializer out;
    out.write(VertexId{9});
    out.write_varint(0);
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_boundary_blocks(payload), "header truncated");
}

TEST(BoundaryBlockValidation, TrailingGarbageAfterValidBlockDies) {
    std::vector<BoundaryBlock> blocks(1);
    blocks[0].vertex = 9;
    blocks[0].entries.push_back({4, 2.5});
    auto payload = encode_boundary_blocks(blocks);
    payload.resize(payload.size() + 5);  // 5 stray bytes: not even a header
    EXPECT_DEATH((void)decode_boundary_blocks(payload), "header truncated");
}

TEST(BoundaryBlockValidation, ViewDecoderOversizedEntryCountDies) {
    Serializer out;
    out.write(VertexId{7});
    out.write_varint(std::numeric_limits<std::uint32_t>::max());
    const auto payload = out.take();
    std::vector<VertexId> arena;
    EXPECT_DEATH((void)decode_boundary_block_soa_views(payload, arena),
                 "entry count exceeds payload");
}

TEST(BoundaryBlockValidation, ViewDecoderTruncatedHeaderDies) {
    const std::vector<std::byte> payload(sizeof(VertexId) - 2);  // half a vertex id
    std::vector<VertexId> arena;
    EXPECT_DEATH((void)decode_boundary_block_soa_views(payload, arena), "header truncated");
}

TEST(BoundaryBlockValidation, ViewDecoderMatchesCopyingDecoder) {
    // Fixed blocks covering an empty block, a dense (run-length) block and a
    // sparse (delta-varint) one.
    Rng rng(99);
    std::vector<BoundaryBlock> blocks(4);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        blocks[b].vertex = static_cast<VertexId>(100 + b);
        VertexId col = static_cast<VertexId>(rng.uniform(1000));
        const std::size_t count = b == 0 ? 0 : 1 + rng.uniform(50);
        for (std::size_t i = 0; i < count; ++i) {
            col += b % 2 == 1 ? 1 : 1 + static_cast<VertexId>(rng.uniform(500));
            blocks[b].entries.push_back({col, rng.uniform(0.1, 9.0)});
        }
    }
    const auto payload = encode_boundary_blocks(blocks);
    const auto copies = decode_boundary_blocks(payload);
    std::vector<VertexId> arena;
    const auto views = decode_boundary_block_soa_views(payload, arena);
    ASSERT_EQ(copies.size(), views.size());
    ASSERT_EQ(copies.size(), blocks.size());
    for (std::size_t b = 0; b < copies.size(); ++b) {
        EXPECT_EQ(copies[b].vertex, views[b].vertex);
        ASSERT_EQ(copies[b].entries.size(), views[b].cols.size());
        ASSERT_EQ(copies[b].entries.size(), views[b].dists.size());
        for (std::size_t i = 0; i < copies[b].entries.size(); ++i) {
            EXPECT_EQ(copies[b].entries[i].column, views[b].cols[i]);
            EXPECT_EQ(copies[b].entries[i].distance, views[b].dists[i]);
        }
    }
}

// Hostile deletion-cascade pull payloads. A request is [u32 vertex][varint
// count][delta-varint columns] per group and a reply is a bare f64 run, so
// every malformed shape must die on a contract check in the decoder.

constexpr std::size_t kPullColumns = 8;

std::vector<PullKey> decode_pull_request_at_rank0(std::span<const std::byte> payload) {
    return decode_pull_request(payload, kPullColumns,
                               round_robin_ownership(kPullColumns, 2), 0);
}

TEST(PullPayloadValidation, TruncatedColumnVarintDies) {
    Serializer out;
    out.write(VertexId{2});
    out.write_varint(2);
    out.write_varint(3);
    out.write(std::uint8_t{0x80});  // continuation bit set, stream ends
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_pull_request_at_rank0(payload), "varint truncated");
}

TEST(PullPayloadValidation, OverlongColumnVarintDies) {
    Serializer out;
    out.write(VertexId{2});
    out.write_varint(1);
    for (int i = 0; i < 5; ++i) {
        out.write(std::uint8_t{0x80});
    }
    out.write(std::uint8_t{0x01});
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_pull_request_at_rank0(payload), "varint overlong");
}

TEST(PullPayloadValidation, VertexOwnedByAnotherRankDies) {
    Serializer out;
    out.write(VertexId{3});  // odd: owned by rank 1
    out.write_varint(1);
    out.write_varint(0);
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_pull_request_at_rank0(payload),
                 "vertex the rank does not own");
}

TEST(PullPayloadValidation, VertexPastGraphEndDies) {
    Serializer out;
    out.write(VertexId{kPullColumns + 2});
    out.write_varint(1);
    out.write_varint(0);
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_pull_request_at_rank0(payload),
                 "vertex the rank does not own");
}

TEST(PullPayloadValidation, ColumnPastGraphEndDies) {
    Serializer out;
    out.write(VertexId{0});
    out.write_varint(1);
    out.write_varint(kPullColumns);
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_pull_request_at_rank0(payload), "pull column out of range");
}

TEST(PullPayloadValidation, WrappingColumnDeltaDies) {
    // A u32-max delta must not wrap the running column back into range.
    Serializer out;
    out.write(VertexId{0});
    out.write_varint(2);
    out.write_varint(5);
    out.write_varint(std::numeric_limits<std::uint32_t>::max());
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_pull_request_at_rank0(payload), "pull column out of range");
}

TEST(PullPayloadValidation, NonMonotoneColumnDeltaDies) {
    Serializer out;
    out.write(VertexId{0});
    out.write_varint(2);
    out.write_varint(4);
    out.write_varint(0);  // duplicate column
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_pull_request_at_rank0(payload),
                 "non-monotone pull column delta");
}

TEST(PullPayloadValidation, ColumnCountPastPayloadEndDies) {
    Serializer out;
    out.write(VertexId{0});
    out.write_varint(std::uint64_t{1} << 28);
    out.write_varint(1);
    const auto payload = out.take();
    EXPECT_DEATH((void)decode_pull_request_at_rank0(payload),
                 "pull request column count exceeds payload");
}

TEST(PullPayloadValidation, TruncatedHeaderDies) {
    const std::vector<std::byte> payload(sizeof(VertexId) - 1);
    EXPECT_DEATH((void)decode_pull_request_at_rank0(payload),
                 "pull request header truncated");
}

TEST(PullPayloadValidation, ReplyWithTooManyValuesDies) {
    const std::vector<Weight> values{1.0, 2.0, 3.0};
    const auto payload = encode_pull_reply(values);
    EXPECT_DEATH((void)decode_pull_reply(payload, 2),
                 "pull reply value count differs from the request");
}

TEST(PullPayloadValidation, ReplyWithTooFewValuesDies) {
    const std::vector<Weight> values{1.0};
    const auto payload = encode_pull_reply(values);
    EXPECT_DEATH((void)decode_pull_reply(payload, 2),
                 "pull reply value count differs from the request");
}

TEST(PullPayloadValidation, ReplyWithPartialValueDies) {
    const std::vector<std::byte> payload(sizeof(Weight) + 4);
    EXPECT_DEATH((void)decode_pull_reply(payload, 1),
                 "pull reply value count differs from the request");
}

// Hostile edge-update broadcast payloads: [u32 count][u32 0], count x
// [u32 from][u32 to][f64 weight], then one boundary block per `from` row.
// Root 0 of two round-robin ranks owns the even vertices of 8.

constexpr std::size_t kEdgeUpdateVertices = 8;

/// A payload with `updates` and a small row (diagonal plus one entry) for
/// each vertex in `rows`, in the given order; `row_size` columns per row.
std::vector<std::byte> edge_update_payload(std::span<const DirectedEdgeUpdate> updates,
                                           std::span<const VertexId> rows,
                                           std::size_t row_size = kEdgeUpdateVertices) {
    Serializer out;
    encode_edge_update_header(out, updates);
    for (const VertexId v : rows) {
        std::vector<Weight> row(row_size, kInfinity);
        row[v] = 0;
        row[row_size - 1] = 1;
        encode_row_block(out, v, row);
    }
    return out.take();
}

EdgeUpdatePayload decode_edge_update_at_root0(std::span<const std::byte> payload) {
    static std::vector<VertexId> arena;
    return decode_edge_update_payload(
        payload, round_robin_ownership(kEdgeUpdateVertices, 2), 0, arena);
}

TEST(EdgeUpdatePayloadValidation, WellFormedPayloadDecodes) {
    const DirectedEdgeUpdate updates[] = {{0, 1, 1.0}, {2, 3, 0.5}, {0, 5, 2.0}};
    const VertexId rows[] = {0, 2};
    const auto payload = edge_update_payload(updates, rows);
    const auto decoded = decode_edge_update_at_root0(payload);
    ASSERT_EQ(decoded.rows.size(), 2u);
    EXPECT_EQ(decoded.row_of, (std::vector<std::uint32_t>{0, 1, 0}));
}

TEST(EdgeUpdatePayloadValidation, TruncatedHeaderDies) {
    const std::vector<std::byte> payload(4, std::byte{0});
    EXPECT_DEATH((void)decode_edge_update_at_root0(payload), "edge update header truncated");
}

TEST(EdgeUpdatePayloadValidation, TruncatedUpdateListDies) {
    const DirectedEdgeUpdate updates[] = {{0, 1, 1.0}, {2, 3, 1.0}};
    auto payload = edge_update_payload(updates, {});
    payload.resize(8 + 16 + 12);  // cut inside the second record
    EXPECT_DEATH((void)decode_edge_update_at_root0(payload), "edge update list truncated");
}

TEST(EdgeUpdatePayloadValidation, OversizedCountDies) {
    const DirectedEdgeUpdate updates[] = {{0, 1, 1.0}};
    const VertexId rows[] = {0};
    auto payload = edge_update_payload(updates, rows);
    const std::uint32_t hostile = std::numeric_limits<std::uint32_t>::max();
    std::memcpy(payload.data(), &hostile, sizeof(hostile));
    EXPECT_DEATH((void)decode_edge_update_at_root0(payload), "edge update list truncated");
}

TEST(EdgeUpdatePayloadValidation, MissingFromRowDies) {
    const DirectedEdgeUpdate updates[] = {{0, 1, 1.0}, {2, 3, 1.0}};
    const VertexId rows[] = {0};
    EXPECT_DEATH((void)decode_edge_update_at_root0(edge_update_payload(updates, rows)),
                 "edge update row missing");
}

TEST(EdgeUpdatePayloadValidation, RowForUnownedVertexDies) {
    const DirectedEdgeUpdate updates[] = {{0, 1, 1.0}};
    const VertexId rows[] = {0, 3};  // 3 is rank 1's
    EXPECT_DEATH((void)decode_edge_update_at_root0(edge_update_payload(updates, rows)),
                 "row for a vertex the root does not own");
}

TEST(EdgeUpdatePayloadValidation, RowWithoutUpdateDies) {
    const DirectedEdgeUpdate updates[] = {{0, 1, 1.0}};
    const VertexId rows[] = {0, 2};
    EXPECT_DEATH((void)decode_edge_update_at_root0(edge_update_payload(updates, rows)),
                 "edge update row without an update");
}

TEST(EdgeUpdatePayloadValidation, RowsOutOfOrderDie) {
    const DirectedEdgeUpdate updates[] = {{0, 1, 1.0}, {2, 1, 1.0}};
    const VertexId rows[] = {2, 0};
    EXPECT_DEATH((void)decode_edge_update_at_root0(edge_update_payload(updates, rows)),
                 "edge update rows not ascending");
}

TEST(EdgeUpdatePayloadValidation, EndpointPastGraphEndDies) {
    const DirectedEdgeUpdate updates[] = {{0, kEdgeUpdateVertices, 1.0}};
    const VertexId rows[] = {0};
    EXPECT_DEATH((void)decode_edge_update_at_root0(edge_update_payload(updates, rows)),
                 "edge update endpoint out of range");
}

TEST(EdgeUpdatePayloadValidation, NonPositiveWeightDies) {
    const DirectedEdgeUpdate updates[] = {{0, 1, 0.0}};
    const VertexId rows[] = {0};
    EXPECT_DEATH((void)decode_edge_update_at_root0(edge_update_payload(updates, rows)),
                 "edge update weight invalid");
}

TEST(EdgeUpdatePayloadValidation, RowColumnPastGraphEndDies) {
    const DirectedEdgeUpdate updates[] = {{0, 1, 1.0}};
    const VertexId rows[] = {0};
    EXPECT_DEATH((void)decode_edge_update_at_root0(
                     edge_update_payload(updates, rows, 2 * kEdgeUpdateVertices)),
                 "edge update row column out of range");
}

}  // namespace
}  // namespace aa
