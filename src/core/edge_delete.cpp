// Fully-dynamic shrink updates — see the phase overview in edge_delete.hpp.
//
// Structure mirrors edge_add.cpp: a driver-side orchestration that charges
// every per-rank scan to the simulated clock, ships real serialized messages
// between rank address spaces, and hands the re-settlement to the unchanged
// RC worklists. The cascade itself runs rank-by-rank on the driver thread
// (like the collectives), so it is deterministic and backend-independent;
// only the final propagate sweep runs as a backend phase, exactly like
// edge addition's step 3.
#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/assert.hpp"
#include "core/edge_delete.hpp"
#include "core/engine.hpp"
#include "core/rc.hpp"
#include "runtime/message.hpp"

namespace aa {

namespace {

/// One edge whose old weight no longer supports any estimate: a removal, or
/// a reweight whose weight went up (support at w_old is gone either way).
struct AffectedEdge {
    VertexId u;
    VertexId v;
    Weight w_old;
};

/// Slack on the suspect tests (seed and dependant inequalities). Estimates
/// written by relax() are right-associated sums, for which the inequality is
/// floating-point exact; IA's Dijkstra accumulates left-associated sums, so
/// with non-dyadic weights a routed estimate can sit an ulp below
/// w_old + d(v, t). Widening the test only ever *over*-invalidates, which
/// re-settlement absorbs; with uniform (or dyadic) weights every quantity is
/// exact and the slack admits no extra suspect beyond exact ties.
constexpr Weight kSuspectSlack = 1e-9;

/// Pull-cache sentinels; distances are never negative.
constexpr Weight kUnknown = -1.0;    // never asked
constexpr Weight kRequested = -2.0;  // asked, reply in flight

/// One rank's cache of the cross-rank distances its support checks read: a
/// flat open-addressing table (linear probing, power-of-two capacity, load
/// at most 1/2) from (external vertex, column) to the value last learned
/// from the owner. Absent keys read as kUnknown.
class PullCache {
public:
    Weight get(PullKey key) const {
        if (keys_.empty()) {
            return kUnknown;
        }
        const std::size_t i = probe(key);
        return keys_[i] == key ? values_[i] : kUnknown;
    }

    /// The value slot for `key`, inserted as kUnknown if absent.
    Weight& slot(PullKey key) {
        if (2 * (size_ + 1) > keys_.size()) {
            grow();
        }
        const std::size_t i = probe(key);
        if (keys_[i] != key) {
            keys_[i] = key;
            values_[i] = kUnknown;
            ++size_;
        }
        return values_[i];
    }

private:
    // Vertex ids never equal kInvalidVertex, so no real key is all ones.
    static constexpr PullKey kEmpty = ~PullKey{0};

    /// The slot holding `key`, or the empty slot where it belongs.
    std::size_t probe(PullKey key) const {
        std::size_t i =
            static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
        while (keys_[i] != key && keys_[i] != kEmpty) {
            i = (i + 1) & (keys_.size() - 1);
        }
        return i;
    }

    void grow() {
        std::vector<PullKey> keys = std::move(keys_);
        std::vector<Weight> values = std::move(values_);
        const std::size_t capacity = keys.empty() ? 1024 : 2 * keys.size();
        keys_.assign(capacity, kEmpty);
        values_.assign(capacity, kUnknown);
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
        size_ = 0;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (keys[i] != kEmpty) {
                slot(keys[i]) = values[i];
            }
        }
    }

    std::vector<PullKey> keys_;
    std::vector<Weight> values_;
    std::size_t size_{0};
    unsigned shift_{64};
};

/// Per-rank cascade state.
struct CascadeRank {
    std::vector<std::pair<LocalId, VertexId>> queue;  // suspects to check
    std::vector<std::pair<LocalId, VertexId>> parked;       // this round
    std::vector<std::pair<LocalId, VertexId>> parked_prev;  // last round
    PullCache cache;
    std::vector<std::vector<PullKey>> requests;        // per owner, this round
    std::vector<std::deque<std::vector<PullKey>>> asked;  // per owner, in flight
    std::vector<std::pair<RankId, std::vector<PullKey>>> to_answer;
};

}  // namespace

std::vector<std::byte> encode_pull_request(std::span<const PullKey> keys) {
    Serializer out;
    for (std::size_t i = 0; i < keys.size();) {
        const VertexId x = pull_vertex(keys[i]);
        std::size_t j = i + 1;
        while (j < keys.size() && pull_vertex(keys[j]) == x) {
            ++j;
        }
        out.write(x);
        out.write_varint(j - i);
        out.write_varint(pull_column(keys[i]));
        for (std::size_t k = i + 1; k < j; ++k) {
            AA_ASSERT(pull_column(keys[k]) > pull_column(keys[k - 1]));
            out.write_varint(pull_column(keys[k]) - pull_column(keys[k - 1]));
        }
        AA_ASSERT(j == keys.size() || pull_vertex(keys[j]) > x);
        i = j;
    }
    return out.take();
}

std::vector<PullKey> decode_pull_request(std::span<const std::byte> payload,
                                         std::size_t num_columns,
                                         const ShardOwnership& ownership,
                                         RankId self) {
    std::vector<PullKey> keys;
    std::size_t cursor = 0;
    while (cursor < payload.size()) {
        AA_ASSERT_MSG(payload.size() - cursor >= sizeof(VertexId),
                      "pull request header truncated");
        VertexId x;
        std::memcpy(&x, payload.data() + cursor, sizeof(VertexId));
        cursor += sizeof(VertexId);
        AA_ASSERT_MSG(ownership.owned_by(x, self),
                      "pull request for a vertex the rank does not own");
        const std::uint32_t count = read_varint_u32(payload, cursor);
        // Every column takes at least one byte, which bounds a hostile count.
        AA_ASSERT_MSG(count >= 1 && count <= payload.size() - cursor,
                      "pull request column count exceeds payload");
        std::uint64_t column = 0;
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint32_t delta = read_varint_u32(payload, cursor);
            AA_ASSERT_MSG(i == 0 || delta >= 1, "non-monotone pull column delta");
            column += delta;
            AA_ASSERT_MSG(column < num_columns, "pull column out of range");
            keys.push_back(pull_key(x, static_cast<VertexId>(column)));
        }
    }
    return keys;
}

std::vector<std::byte> encode_pull_reply(std::span<const Weight> values) {
    const auto bytes = std::as_bytes(values);
    return {bytes.begin(), bytes.end()};
}

std::vector<Weight> decode_pull_reply(std::span<const std::byte> payload,
                                      std::size_t expected) {
    AA_ASSERT_MSG(payload.size() == expected * sizeof(Weight),
                  "pull reply value count differs from the request");
    std::vector<Weight> values(expected);
    if (expected != 0) {
        std::memcpy(values.data(), payload.data(), payload.size());
    }
    return values;
}

ShrinkReport AnytimeEngine::apply_deletion(const ShrinkBatch& batch) {
    AA_ASSERT_MSG(initialized_, "initialize() must run before dynamic updates");
    const std::size_t n = graph_.num_vertices();
    const auto num_ranks = cluster_->num_ranks();
    ShrinkReport rep;
    double dynamic_ops = 0;
    const bool mx = metrics_->enabled();
    auto span = MetricsRegistry::kNullHandle;
    if (mx) {
        span = metrics_->span_open("delete", -1,
                                   static_cast<std::int64_t>(rc_steps_),
                                   sim_seconds());
    }

    // ---- 1. Normalize the batch and apply the shrinking structural changes.
    // Vertex deletions expand to their incident edge sets; duplicates (and
    // edges not present, e.g. already deleted) are skipped. Weight decreases
    // are split off and deferred to after the cascade: their broadcast ships
    // finite row values, which must not happen while stale-low entries exist.
    const auto canon = [](VertexId a, VertexId b) {
        return std::make_pair(std::min(a, b), std::max(a, b));
    };
    std::set<std::pair<VertexId, VertexId>> seen;
    std::vector<AffectedEdge> affected;
    std::vector<Edge> decreases;
    std::vector<Edge> removals;
    for (const VertexId v : batch.vertices) {
        AA_ASSERT(v < n);
        for (const Neighbor& nb : graph_.neighbors(v)) {
            removals.push_back({v, nb.to, nb.weight});
        }
    }
    for (const Edge& e : batch.deletions) {
        removals.push_back(e);
    }
    for (const Edge& e : removals) {
        AA_ASSERT(e.u < n && e.v < n && e.u != e.v);
        const auto key = canon(e.u, e.v);
        if (!seen.insert(key).second) {
            continue;  // duplicate within the batch
        }
        const Weight w_old = graph_.remove_edge(e.u, e.v);
        if (!(w_old < kInfinity)) {
            continue;  // not present (e.g. already deleted): a no-op
        }
        ranks_[ownership_.owner(e.u)].sg.remove_local_edge(e.u, e.v);
        if (ownership_.owner(e.v) != ownership_.owner(e.u)) {
            ranks_[ownership_.owner(e.v)].sg.remove_local_edge(e.u, e.v);
        }
        affected.push_back({key.first, key.second, w_old});
        ++rep.edges_removed;
    }
    for (const Edge& e : batch.reweights) {
        AA_ASSERT(e.u < n && e.v < n && e.u != e.v);
        AA_ASSERT_MSG(e.weight > 0, "edge weights must be positive");
        const auto key = canon(e.u, e.v);
        if (!seen.insert(key).second) {
            continue;  // edge already deleted/reweighted by this batch
        }
        const Weight w_old = graph_.edge_weight(e.u, e.v);
        if (!(w_old < kInfinity) || e.weight == w_old) {
            continue;  // absent or unchanged: a no-op
        }
        if (e.weight < w_old) {
            decreases.push_back({key.first, key.second, e.weight});
            continue;
        }
        graph_.set_edge_weight(e.u, e.v, e.weight);
        ranks_[ownership_.owner(e.u)].sg.update_edge_weight(e.u, e.v, e.weight);
        if (ownership_.owner(e.v) != ownership_.owner(e.u)) {
            ranks_[ownership_.owner(e.v)].sg.update_edge_weight(e.u, e.v, e.weight);
        }
        affected.push_back({key.first, key.second, w_old});
        ++rep.weight_increases;
    }

    // ---- 2. Endpoint-row exchange: for every affected cross-rank edge each
    // owner needs the *other* endpoint's current row for the seed scan. The
    // structural change cannot have moved any distance value, so the rows
    // read now are exactly the pre-change estimates.
    std::set<std::pair<VertexId, RankId>> row_requests;  // (vertex, needed by)
    for (const AffectedEdge& a : affected) {
        const RankId ru = ownership_.owner(a.u);
        const RankId rv = ownership_.owner(a.v);
        if (ru != rv) {
            row_requests.insert({a.v, ru});
            row_requests.insert({a.u, rv});
        }
    }
    // One payload per (owner, requester): the requested rows as boundary
    // blocks in ascending vertex order, each row encoded once and its bytes
    // appended to every requester's payload.
    std::vector<std::vector<std::vector<std::byte>>> row_payloads(
        num_ranks, std::vector<std::vector<std::byte>>(num_ranks));
    Serializer block;
    for (auto it = row_requests.begin(); it != row_requests.end();) {
        const VertexId vtx = it->first;
        const RankId src = ownership_.owner(vtx);
        const RankState& st = ranks_[src];
        block.clear();
        const std::size_t entries =
            encode_row_block(block, vtx, st.store.row(st.sg.local_id(vtx)));
        cluster_->charge_compute(src, static_cast<double>(entries));
        dynamic_ops += static_cast<double>(entries);
        for (; it != row_requests.end() && it->first == vtx; ++it) {
            auto& payload = row_payloads[src][it->second];
            payload.insert(payload.end(), block.view().begin(), block.view().end());
        }
    }
    for (RankId src = 0; src < num_ranks; ++src) {
        for (RankId dest = 0; dest < num_ranks; ++dest) {
            if (!row_payloads[src][dest].empty()) {
                cluster_->send(src, dest, MessageTag::ShrinkEndpointRow,
                               std::move(row_payloads[src][dest]));
            }
        }
    }
    std::vector<std::unordered_map<VertexId, std::vector<Weight>>> peer_rows(
        num_ranks);
    std::vector<VertexId> arena;
    if (!row_requests.empty()) {
        cluster_->exchange();
        for (RankId r = 0; r < num_ranks; ++r) {
            for (const Message& m : cluster_->receive(r)) {
                AA_ASSERT(m.tag == MessageTag::ShrinkEndpointRow);
                for (const BoundaryBlockSoaView& row :
                     decode_boundary_block_soa_views(m.bytes(), arena)) {
                    AA_ASSERT(row.cols.empty() || row.cols.back() < n);
                    auto& dense = peer_rows[r][row.vertex];
                    dense.assign(n, kInfinity);
                    for (std::size_t i = 0; i < row.cols.size(); ++i) {
                        dense[row.cols[i]] = row.dists[i];
                    }
                    cluster_->charge_compute(r, static_cast<double>(row.cols.size()));
                    dynamic_ops += static_cast<double>(row.cols.size());
                }
            }
        }
    }

    // ---- 3. Seed scan. d(u, t) is suspect iff d(u, t) >= w_old + d(v, t):
    // any estimate that was ever written through the edge satisfies this
    // exactly (it was written as that very sum while d(v, t) was no smaller
    // than it is now, and floating-point addition is monotone), so no stale
    // entry escapes. Entries that merely tie with an alternative support
    // survive the support check below.
    std::vector<CascadeRank> cr(num_ranks);
    for (CascadeRank& c : cr) {
        c.requests.resize(num_ranks);
        c.asked.resize(num_ranks);
    }
    // Dense global -> local index per rank: the cascade resolves one per
    // neighbour visit, so a flat lookup replaces the subgraph's hash map.
    constexpr LocalId kNotLocal = std::numeric_limits<LocalId>::max();
    std::vector<std::vector<LocalId>> local_of(num_ranks);
    for (RankId p = 0; p < num_ranks; ++p) {
        local_of[p].assign(n, kNotLocal);
        for (LocalId l = 0; l < ranks_[p].sg.num_local(); ++l) {
            local_of[p][ranks_[p].sg.global_id(l)] = l;
        }
    }
    const auto seed_endpoint = [&](VertexId u, VertexId v, Weight w_old) {
        const RankId ru = ownership_.owner(u);
        RankState& st = ranks_[ru];
        const LocalId lu = local_of[ru][u];
        const auto row_u = st.store.row(lu);
        std::span<const Weight> row_v;
        if (ownership_.owner(v) == ru) {
            row_v = st.store.row(local_of[ru][v]);
        } else {
            row_v = peer_rows[ru].at(v);
        }
        for (VertexId t = 0; t < n; ++t) {
            if (t == u) {
                continue;
            }
            const Weight du = row_u[t];
            const Weight dv = row_v[t];
            if (du < kInfinity && dv < kInfinity &&
                du >= w_old + dv - kSuspectSlack) {
                cr[ru].queue.push_back({lu, t});
                ++rep.seed_suspects;
            }
        }
        cluster_->charge_compute(ru, static_cast<double>(n));
        dynamic_ops += static_cast<double>(n);
    };
    for (const AffectedEdge& a : affected) {
        seed_endpoint(a.u, a.v, a.w_old);
        seed_endpoint(a.v, a.u, a.w_old);
    }

    // ---- 4. Invalidation cascade to fixpoint. Each round every rank drains
    // its suspect queue — support check against local rows and the pull
    // cache; unsupported entries are invalidated, their local dependants
    // re-suspected and their surviving local neighbours re-seeded for
    // propagation — then answers the pulls it received last round and sends
    // this round's raises and pulls, all riding one exchange. A raise
    // re-suspects the dependants across cut edges and re-seeds surviving
    // boundary rows for resending; it carries the pre-raise value, so the
    // dependant test d(y, t) >= w(y, x) + pre is exactly the seed inequality
    // one hop out and under-invalidation cannot occur. An entry is
    // invalidated at most once, so the cascade terminates.
    //
    // A suspect with no support among the known values but an unknown
    // external neighbour is parked and each unknown (x, t) pulled once. The
    // owner answers in the next round, so everything parked in round r is
    // resolved after round r + 1's exchange and goes back on the queue then.
    // Values only move from finite to infinity while the cascade runs, so a
    // stale finite reply is later overwritten by the matching raise ("infinity
    // wins"); a support strictly lowers the value, so the fixpoint is unique
    // and does not depend on when a value arrives.
    const auto cascade_busy = [&] {
        return std::any_of(cr.begin(), cr.end(), [](const CascadeRank& c) {
            return !c.queue.empty() || !c.parked.empty() ||
                   !c.parked_prev.empty() || !c.to_answer.empty();
        });
    };
    std::vector<PullKey> missing;
    std::vector<VertexId> raise_cols;
    std::vector<Weight> raise_dists;
    while (cascade_busy()) {
        ++rep.cascade_rounds;
        for (RankId p = 0; p < num_ranks; ++p) {
            RankState& st = ranks_[p];
            CascadeRank& c = cr[p];
            const std::vector<LocalId>& loc = local_of[p];
            std::map<LocalId, std::vector<DvEntry>> raised;
            double ops = 0;
            // The drain appends to the queue it walks, so index it (and copy
            // each pair out) instead of holding references.
            for (std::size_t head = 0; head < c.queue.size(); ++head) {
                const auto [l, t] = c.queue[head];
                const Weight cur = st.store.at(l, t);
                if (!(cur < kInfinity) || st.sg.global_id(l) == t) {
                    continue;  // already invalidated (or the diagonal)
                }
                bool supported = false;
                bool waiting = false;
                missing.clear();
                for (const Neighbor& nb : st.sg.neighbors(l)) {
                    ops += 1;
                    const LocalId ln = loc[nb.to];
                    const Weight dn = ln != kNotLocal ? st.store.at(ln, t)
                                                     : c.cache.get(pull_key(nb.to, t));
                    if (dn == kRequested) {
                        waiting = true;
                        continue;
                    }
                    if (dn == kUnknown) {
                        missing.push_back(pull_key(nb.to, t));
                        continue;
                    }
                    if (dn < kInfinity && cur >= nb.weight + dn) {
                        supported = true;
                        break;
                    }
                }
                if (supported) {
                    continue;
                }
                if (waiting || !missing.empty()) {
                    for (const PullKey key : missing) {
                        c.cache.slot(key) = kRequested;
                        c.requests[ownership_.owner(pull_vertex(key))].push_back(key);
                    }
                    c.parked.push_back({l, t});
                    continue;
                }
                st.store.mark_invalidated(l, t);
                ++rep.invalidated_entries;
                for (const Neighbor& nb : st.sg.neighbors(l)) {
                    ops += 1;
                    const LocalId ln = loc[nb.to];
                    if (ln == kNotLocal) {
                        continue;  // handled by the raise below
                    }
                    const Weight dn = st.store.at(ln, t);
                    if (dn < kInfinity) {
                        // The surviving neighbour owes the invalidated
                        // entry a relaxation once re-settlement runs.
                        st.store.mark_for_prop(ln, t);
                        if (dn >= nb.weight + cur - kSuspectSlack) {
                            c.queue.push_back({ln, t});
                        }
                    }
                }
                raised[l].push_back({t, cur});
            }
            c.queue.clear();
            // Answer last round's pulls with the values as they stand after
            // this drain (possibly already raised to infinity).
            std::vector<Weight> values;
            for (const auto& [dest, keys] : c.to_answer) {
                values.clear();
                for (const PullKey key : keys) {
                    values.push_back(st.store.at(loc[pull_vertex(key)], pull_column(key)));
                }
                ops += static_cast<double>(keys.size());
                cluster_->send(p, dest, MessageTag::ShrinkViewReply,
                               encode_pull_reply(values));
            }
            c.to_answer.clear();
            // Ship the raises: one block per invalidated row, columns
            // ascending (per column at most one raise), encoded once and
            // appended to the payload of every rank sharing a cut edge with
            // the row.
            std::vector<std::vector<std::byte>> raise_payloads(num_ranks);
            for (auto& [l, entries] : raised) {
                const auto destinations = st.sg.neighbor_ranks(l);
                if (destinations.empty()) {
                    continue;
                }
                std::sort(entries.begin(), entries.end(),
                          [](const DvEntry& a, const DvEntry& b) {
                              return a.column < b.column;
                          });
                raise_cols.clear();
                raise_dists.clear();
                for (const DvEntry& e : entries) {
                    raise_cols.push_back(e.column);
                    raise_dists.push_back(e.distance);
                }
                block.clear();
                encode_boundary_block(block, st.sg.global_id(l), raise_cols, raise_dists);
                ops += static_cast<double>(entries.size());
                for (const RankId dest : destinations) {
                    raise_payloads[dest].insert(raise_payloads[dest].end(),
                                                block.view().begin(), block.view().end());
                }
            }
            for (RankId dest = 0; dest < num_ranks; ++dest) {
                if (!raise_payloads[dest].empty()) {
                    cluster_->send(p, dest, MessageTag::ShrinkRaise,
                                   std::move(raise_payloads[dest]));
                }
            }
            // Ship the pulls, one sorted request per owner; the reply comes
            // back in the same order, matched through the FIFO.
            for (RankId owner = 0; owner < num_ranks; ++owner) {
                auto& keys = c.requests[owner];
                if (keys.empty()) {
                    continue;
                }
                std::sort(keys.begin(), keys.end());
                ops += static_cast<double>(keys.size());
                rep.pulled_entries += keys.size();
                cluster_->send(p, owner, MessageTag::ShrinkViewRequest,
                               encode_pull_request(keys));
                c.asked[owner].push_back(std::move(keys));
                keys.clear();
            }
            cluster_->charge_compute(p, ops);
            dynamic_ops += ops;
        }
        if (cluster_->has_pending_messages()) {
            cluster_->exchange();
        }
        for (RankId p = 0; p < num_ranks; ++p) {
            RankState& st = ranks_[p];
            CascadeRank& c = cr[p];
            double ops = 0;
            for (const Message& m : cluster_->receive(p)) {
                if (m.tag == MessageTag::ShrinkViewRequest) {
                    c.to_answer.emplace_back(
                        m.from, decode_pull_request(m.bytes(), n, ownership_, p));
                    continue;
                }
                if (m.tag == MessageTag::ShrinkViewReply) {
                    AA_ASSERT_MSG(!c.asked[m.from].empty(), "unsolicited pull reply");
                    const std::vector<PullKey> keys =
                        std::move(c.asked[m.from].front());
                    c.asked[m.from].pop_front();
                    const auto values = decode_pull_reply(m.bytes(), keys.size());
                    for (std::size_t i = 0; i < keys.size(); ++i) {
                        Weight& slot = c.cache.slot(keys[i]);
                        if (slot == kRequested) {
                            slot = values[i];  // a raise that got here first wins
                        }
                    }
                    ops += static_cast<double>(keys.size());
                    continue;
                }
                AA_ASSERT(m.tag == MessageTag::ShrinkRaise);
                for (const BoundaryBlockSoaView& raise :
                     decode_boundary_block_soa_views(m.bytes(), arena)) {
                    const auto dependants = st.sg.external_neighbors(raise.vertex);
                    for (std::size_t i = 0; i < raise.cols.size(); ++i) {
                        const VertexId col = raise.cols[i];
                        AA_ASSERT(col < n);
                        c.cache.slot(pull_key(raise.vertex, col)) = kInfinity;
                        for (const auto& [ly, w] : dependants) {
                            ops += 1;
                            const Weight dy = st.store.at(ly, col);
                            if (dy < kInfinity) {
                                // The surviving endpoint owes the
                                // invalidating rank a resend.
                                st.store.mark_for_send(ly, col);
                                if (dy >= w + raise.dists[i] - kSuspectSlack) {
                                    c.queue.push_back({ly, col});
                                }
                            }
                        }
                    }
                }
            }
            // Everything parked a round ago has had its pulls answered now.
            c.queue.insert(c.queue.end(), c.parked_prev.begin(), c.parked_prev.end());
            c.parked_prev = std::move(c.parked);
            c.parked.clear();
            cluster_->charge_compute(p, ops);
            dynamic_ops += ops;
        }
    }

    // ---- 5. Deferred weight decreases: monotone, so the growth-path
    // broadcast is sound now that no stale-low entry survives.
    std::vector<DirectedEdgeUpdate> lowered;
    for (const Edge& e : decreases) {
        graph_.set_edge_weight(e.u, e.v, e.weight);
        ranks_[ownership_.owner(e.u)].sg.update_edge_weight(e.u, e.v, e.weight);
        if (ownership_.owner(e.v) != ownership_.owner(e.u)) {
            ranks_[ownership_.owner(e.v)].sg.update_edge_weight(e.u, e.v, e.weight);
        }
        lowered.push_back({e.u, e.v, e.weight});
        lowered.push_back({e.v, e.u, e.weight});
        ++rep.weight_decreases;
    }
    dynamic_ops += broadcast_edge_updates(lowered);

    // ---- 6. Local re-settlement to fixpoint (edge addition's step 3); the
    // cross-rank part rides the send worklists of the caller's next RC steps.
    std::vector<double> prop_ops(num_ranks, 0);
    run_rank_phase([&](RankId r, std::vector<MetricSpan>&) {
        const double ops =
            rc_propagate_local(ranks_[r].sg, ranks_[r].store, kernel_pool());
        cluster_->charge_compute(r, ops);
        prop_ops[r] = ops;
    });
    for (RankId r = 0; r < num_ranks; ++r) {
        dynamic_ops += prop_ops[r];
    }
    cluster_->barrier();

    report_.dynamic_ops += dynamic_ops;
    report_.edge_deletions += rep.edges_removed;
    report_.weight_updates += rep.weight_increases + rep.weight_decreases;
    report_.invalidated_entries += rep.invalidated_entries;
    report_.sim_seconds = sim_seconds();
    if (mx) {
        metrics_->span_attr(span, "edges_removed",
                            std::to_string(rep.edges_removed));
        metrics_->span_attr(span, "reweights",
                            std::to_string(rep.weight_increases +
                                           rep.weight_decreases));
        metrics_->span_attr(span, "invalidated",
                            std::to_string(rep.invalidated_entries));
        metrics_->span_attr(span, "cascade_rounds",
                            std::to_string(rep.cascade_rounds));
        metrics_->span_attr(span, "pulled_entries",
                            std::to_string(rep.pulled_entries));
        metrics_->span_add(span, dynamic_ops);
        metrics_->span_close(span, sim_seconds());
    }
    note_structural_change();
    fire_boundary_hook();
    return rep;
}

ShrinkReport AnytimeEngine::update_edge_weights(std::span<const Edge> updates) {
    ShrinkBatch batch;
    batch.reweights.assign(updates.begin(), updates.end());
    return apply_deletion(batch);
}

}  // namespace aa
