// Anywhere dynamic updates built on the edge-addition algorithm of the
// authors' prior work [9]:
//   * AnytimeEngine::anywhere_add      — vertex additions (paper Figure 3),
//   * AnytimeEngine::add_edges         — edge additions between existing
//                                        vertices ("new relationship
//                                        formations", [9]),
//   * AnytimeEngine::decrease_edge_weight — edge weight decreases ([7];
//                                        increases are routed to the
//                                        deletion machinery in
//                                        core/edge_delete.cpp).
//
// All three share one primitive, AnytimeEngine::broadcast_edge_updates: a
// batch of directed updates {from, to, w} costs one tree broadcast per root
// rank (the owner of some `from`), carrying that root's update list and each
// of its distinct `from` rows once, encoded with the boundary-block codec of
// the RC exchange (core/rc.hpp). Every rank then folds the rows in through
// its cut edges, owners fold a row through a same-rank new/changed edge, and
// every rank bridges the two endpoint columns of its local rows (the paper's
// D[x][t] > D[x][u] + w + D[v][t] inequality, applied where it can bind
// immediately). Remaining consequences flow through the normal prop/send
// worklists, which reach the same fixpoint as the paper's full sweep at
// incremental cost.
//
// The rows are snapshots taken before any update of the batch applies. The
// owner-row witness invariant the deletion cascade relies on (ARCHITECTURE.md,
// "Fully-dynamic updates") still holds for every value written here:
//   * a folded value w + d_snap(from, t) is witnessed by `from`: rows only
//     decrease, so the owner row's d_now(from, t) <= d_snap(from, t);
//   * bridging runs per update, in the same order on every rank, and bridges
//     every local row, so a bridged entry's witness is the bridged row of
//     its old witness, update by update.
// A root's later improvements to a shipped row are send-marked by relax(),
// and the new cut edges are in place before the snapshot, so together with
// the snapshot they make the row's full contents visible to every new
// neighbour.
#include <algorithm>
#include <memory>

#include "common/assert.hpp"
#include "core/engine.hpp"
#include "core/rc.hpp"
#include "runtime/message.hpp"

namespace aa {

double AnytimeEngine::broadcast_edge_updates(std::span<const DirectedEdgeUpdate> updates) {
    if (updates.empty()) {
        return 0;
    }
    const auto num_ranks = cluster_->num_ranks();
    double total_ops = 0;

    // Snapshot and encode every root's rows before any update applies, then
    // tree-broadcast each root's payload (paper Figure 3, line 22, batched).
    std::vector<std::vector<DirectedEdgeUpdate>> by_root(num_ranks);
    for (const DirectedEdgeUpdate& u : updates) {
        by_root[ownership_.owner(u.from)].push_back(u);
    }
    std::vector<std::shared_ptr<const std::vector<std::byte>>> payloads(num_ranks);
    std::vector<VertexId> rows;
    for (RankId root = 0; root < num_ranks; ++root) {
        if (by_root[root].empty()) {
            continue;
        }
        rows.clear();
        for (const DirectedEdgeUpdate& u : by_root[root]) {
            rows.push_back(u.from);
        }
        std::sort(rows.begin(), rows.end());
        rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
        Serializer out;
        encode_edge_update_header(out, by_root[root]);
        const RankState& st = ranks_[root];
        double ops = 0;
        for (const VertexId v : rows) {
            ops += static_cast<double>(
                encode_row_block(out, v, st.store.row(st.sg.local_id(v))));
        }
        cluster_->charge_compute(root, ops);
        total_ops += ops;
        payloads[root] = Message::share(out.take());
    }
    std::size_t num_roots = 0;
    for (RankId root = 0; root < num_ranks; ++root) {
        if (payloads[root] != nullptr) {
            cluster_->broadcast(root, MessageTag::EdgeUpdateRows, payloads[root]);
            ++num_roots;
        }
    }

    // Apply at every rank, roots in ascending order. Receivers parse the
    // wire payloads; a root reads its own bytes (shared, read-only, so
    // concurrent rank closures may view them).
    std::vector<double> rank_ops(num_ranks, 0);
    run_rank_phase([&](RankId r, std::vector<MetricSpan>&) {
        RankState& state = ranks_[r];
        const auto inbox = cluster_->receive(r);
        std::vector<std::span<const std::byte>> bytes(num_ranks);
        for (const Message& m : inbox) {
            AA_ASSERT(m.tag == MessageTag::EdgeUpdateRows && payloads[m.from] != nullptr);
            bytes[m.from] = m.bytes();
        }
        AA_ASSERT(inbox.size() + (payloads[r] != nullptr ? 1 : 0) == num_roots);
        if (payloads[r] != nullptr) {
            bytes[r] = *payloads[r];
        }
        std::vector<std::vector<VertexId>> arenas(num_ranks);
        std::vector<std::pair<RankId, EdgeUpdatePayload>> decoded;
        for (RankId root = 0; root < num_ranks; ++root) {
            if (payloads[root] != nullptr) {
                decoded.emplace_back(root, decode_edge_update_payload(
                                               bytes[root], state.sg.ownership(), root,
                                               arenas[root]));
            }
        }
        double ops = 0;
        // Same-rank edge: fold row(from) through the edge into row(to)
        // directly (the cross-rank case is covered by the cut-edge ingestion
        // below, which sees the new edge in its external adjacency).
        for (const auto& [root, payload] : decoded) {
            if (root != r) {
                continue;
            }
            for (std::size_t i = 0; i < payload.updates.size(); ++i) {
                const DirectedEdgeUpdate& u = payload.updates[i];
                if (!state.sg.owns(u.to)) {
                    continue;
                }
                const BoundaryBlockSoaView& row = payload.rows[payload.row_of[i]];
                state.store.relax_batch_soa(state.sg.local_id(u.to), row.cols,
                                            row.dists, u.weight);
                ops += static_cast<double>(row.cols.size());
            }
        }
        // Any rank with a cut edge to a row's vertex ingests the row once, as
        // it would a boundary-DV update: d(x, t) <= w(x, from) + d(from, t).
        for (const auto& [root, payload] : decoded) {
            for (const BoundaryBlockSoaView& row : payload.rows) {
                for (const auto& [local, edge_w] : state.sg.external_neighbors(row.vertex)) {
                    state.store.relax_batch_soa(local, row.cols, row.dists, edge_w);
                    ops += static_cast<double>(row.cols.size());
                }
            }
        }
        // Every rank bridges the endpoint columns of its local rows, update
        // by update: d(x, to) <= d(x, from) + w and d(x, from) <= d(x, to) + w.
        for (const auto& [root, payload] : decoded) {
            for (const DirectedEdgeUpdate& u : payload.updates) {
                for (LocalId x = 0; x < state.sg.num_local(); ++x) {
                    const Weight d_from = state.store.at(x, u.from);
                    if (d_from < kInfinity) {
                        state.store.relax(x, u.to, d_from + u.weight);
                    }
                    const Weight d_to = state.store.at(x, u.to);
                    if (d_to < kInfinity) {
                        state.store.relax(x, u.from, d_to + u.weight);
                    }
                    ops += 2;
                }
            }
        }
        cluster_->charge_compute(r, ops);
        rank_ops[r] = ops;
    });
    for (RankId r = 0; r < num_ranks; ++r) {
        total_ops += rank_ops[r];
    }
    return total_ops;
}

void AnytimeEngine::anywhere_add(const GrowthBatch& batch,
                                 const std::vector<RankId>& assignment) {
    AA_ASSERT_MSG(initialized_, "initialize() must run before dynamic updates");
    AA_ASSERT(assignment.size() == batch.num_new);
    AA_ASSERT_MSG(batch.base_id == graph_.num_vertices(),
                  "batch does not follow the current vertex space");

    const std::size_t k = batch.num_new;
    const std::size_t new_n = graph_.num_vertices() + k;
    const auto num_ranks = cluster_->num_ranks();
    double dynamic_ops = 0;
    const bool mx = metrics_->enabled();

    // ---- 1. Structural extension (Figure 3, lines 11-18). ----
    auto extend_span = MetricsRegistry::kNullHandle;
    if (mx) {
        extend_span = metrics_->span_open("add.extend", -1,
                                          static_cast<std::int64_t>(rc_steps_),
                                          sim_seconds());
    }
    graph_.add_vertices(k);
    ownership_.extend(assignment);
    std::vector<double> extend_ops(num_ranks, 0);
    run_rank_phase([&](RankId r, std::vector<MetricSpan>&) {
        RankState& state = ranks_[r];
        state.sg.extend_ownership(assignment);
        // DV resize: one new column per existing row (amortized via doubling
        // growth, the paper's O(n) bound), plus a fresh row per adopted
        // vertex (added below in adoption order).
        const double ops =
            static_cast<double>(state.store.num_rows()) + static_cast<double>(k);
        state.store.grow_columns(new_n);
        cluster_->charge_compute(r, ops);
        extend_ops[r] = ops;
    });
    for (RankId r = 0; r < num_ranks; ++r) {
        dynamic_ops += extend_ops[r];
    }
    for (std::size_t i = 0; i < k; ++i) {
        const VertexId v = batch.base_id + static_cast<VertexId>(i);
        RankState& owner = ranks_[assignment[i]];
        const LocalId row = owner.store.add_row(v);
        AA_ASSERT_MSG(owner.sg.global_id(row) == v,
                      "row order diverged from adoption order");
        cluster_->charge_compute(assignment[i], static_cast<double>(new_n));
        dynamic_ops += static_cast<double>(new_n);
    }

    if (mx) {
        metrics_->span_add(extend_span, dynamic_ops);
        metrics_->span_close(extend_span, sim_seconds());
    }

    // ---- 2. Edge additions (Figure 3, lines 19-44). The broadcast carries
    //          the *existing* endpoint's row; the new endpoint's row starts
    //          near-empty and its content reaches neighbours through the
    //          regular RC sends as it fills in. ----
    auto broadcast_span = MetricsRegistry::kNullHandle;
    if (mx) {
        broadcast_span = metrics_->span_open(
            "add.broadcast", -1, static_cast<std::int64_t>(rc_steps_),
            sim_seconds());
    }
    const double ops_before_edges = dynamic_ops;
    std::vector<DirectedEdgeUpdate> updates;
    for (const Edge& e : batch.edges) {
        const VertexId lo = std::min(e.u, e.v);
        const VertexId hi = std::max(e.u, e.v);
        AA_ASSERT_MSG(hi >= batch.base_id, "batch edge touches no new vertex");
        if (!graph_.add_edge(lo, hi, e.weight)) {
            continue;  // duplicate within the batch
        }
        const RankId r_lo = ownership_.owner(lo);
        const RankId r_hi = ownership_.owner(hi);
        ranks_[r_lo].sg.add_local_edge(lo, hi, e.weight);
        if (r_hi != r_lo) {
            ranks_[r_hi].sg.add_local_edge(lo, hi, e.weight);
        }
        updates.push_back({lo, hi, e.weight});
    }
    dynamic_ops += broadcast_edge_updates(updates);
    if (mx) {
        metrics_->span_add(broadcast_span, dynamic_ops - ops_before_edges);
        metrics_->span_attr(broadcast_span, "edges",
                            std::to_string(batch.edges.size()));
        metrics_->span_close(broadcast_span, sim_seconds());
    }

    // ---- 3. Within-rank propagation to fixpoint. ----
    auto propagate_span = MetricsRegistry::kNullHandle;
    if (mx) {
        propagate_span = metrics_->span_open(
            "add.propagate", -1, static_cast<std::int64_t>(rc_steps_),
            sim_seconds());
    }
    const double ops_before_prop = dynamic_ops;
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
    if (mx) {
        metrics_->span_add(propagate_span, dynamic_ops - ops_before_prop);
        metrics_->span_close(propagate_span, sim_seconds());
    }
    report_.dynamic_ops += dynamic_ops;
    note_structural_change();
}

void AnytimeEngine::apply_edge_updates(std::span<const DirectedEdgeUpdate> updates) {
    const auto num_ranks = cluster_->num_ranks();
    double dynamic_ops = broadcast_edge_updates(updates);
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
    note_structural_change();
    fire_boundary_hook();
}

void AnytimeEngine::add_edges(std::span<const Edge> edges) {
    AA_ASSERT_MSG(initialized_, "initialize() must run before dynamic updates");
    std::vector<DirectedEdgeUpdate> updates;
    for (const Edge& e : edges) {
        AA_ASSERT(e.u < graph_.num_vertices() && e.v < graph_.num_vertices());
        if (!graph_.add_edge(e.u, e.v, e.weight)) {
            continue;  // duplicate
        }
        const RankId r_u = ownership_.owner(e.u);
        const RankId r_v = ownership_.owner(e.v);
        ranks_[r_u].sg.add_local_edge(e.u, e.v, e.weight);
        if (r_v != r_u) {
            ranks_[r_v].sg.add_local_edge(e.u, e.v, e.weight);
        }
        // Both endpoints are established vertices with full rows, so both
        // rows are broadcast (prior work [9] evaluates the new-edge
        // inequality in both directions).
        updates.push_back({e.u, e.v, e.weight});
        updates.push_back({e.v, e.u, e.weight});
        report_.edge_additions += 1;
    }
    apply_edge_updates(updates);
}

bool AnytimeEngine::decrease_edge_weight(VertexId u, VertexId v, Weight new_weight) {
    AA_ASSERT_MSG(initialized_, "initialize() must run before dynamic updates");
    AA_ASSERT(u < graph_.num_vertices() && v < graph_.num_vertices());
    AA_ASSERT_MSG(new_weight > 0, "edge weights must be positive");
    const Weight current = graph_.edge_weight(u, v);
    if (!(current < kInfinity)) {
        return false;  // no such edge
    }
    if (new_weight > current) {
        // A weight increase can raise distances; route it through the
        // invalidate/re-settle machinery instead of the monotone broadcast.
        ShrinkBatch batch;
        batch.reweights.push_back({u, v, new_weight});
        apply_deletion(batch);
        return true;
    }
    if (new_weight == current) {
        return true;
    }

    graph_.set_edge_weight(u, v, new_weight);
    const RankId r_u = ownership_.owner(u);
    const RankId r_v = ownership_.owner(v);
    ranks_[r_u].sg.update_edge_weight(u, v, new_weight);
    if (r_v != r_u) {
        ranks_[r_v].sg.update_edge_weight(u, v, new_weight);
    }

    const DirectedEdgeUpdate both[] = {{u, v, new_weight}, {v, u, new_weight}};
    apply_edge_updates(both);
    return true;
}

}  // namespace aa
