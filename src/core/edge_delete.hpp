// Fully-dynamic shrink updates: edge/vertex deletions and weight increases.
//
// The growth path (core/edge_add.cpp) relies on monotone distance decreases;
// a deletion or weight increase breaks that invariant, so the engine follows
// the SSSP-Del recipe (PAPERS.md, arXiv 2508.14319) in two phases:
//
//   1. invalidate — every (source, target) entry whose current estimate was
//      supported by a deleted/raised edge is reset to unknown. Candidates are
//      seeded at the affected edges' endpoints (an entry d(u, t) is *suspect*
//      iff d(u, t) >= w_old + d(v, t), the floating-point inequality every
//      estimate routed through the edge satisfies exactly, because rows only
//      ever decreased since the estimate was written). A suspect survives if
//      some remaining neighbour still supports it; otherwise it is reset via
//      DistanceStore::mark_invalidated and the raise cascades to the
//      neighbours that depended on it — across ranks as ShrinkRaise messages
//      carrying the pre-raise value, encoded with the same boundary-block
//      codec as the regular RC exchange. A support
//      check that needs a cross-rank distance d(x, t) pulls it from x's
//      owner on demand (ShrinkViewRequest / ShrinkViewReply, one exchange per
//      cascade round); each rank caches what it learned, and a raise
//      overwrites the cache with infinity ("infinity wins": during the
//      cascade a value only ever moves from finite to infinity, so the merge
//      is independent of message order).
//
//   2. re-settle — the surviving frontier is re-marked into the ordinary
//      prop/send worklists (a finite neighbour of an invalidated entry owes
//      it a relaxation; a finite cut-edge endpoint owes the invalidating rank
//      a resend), after which the unchanged RC machinery — sync or rc_async,
//      either backend — reconverges by monotone decrease.
//
// Over-invalidation is harmless (re-settlement relearns it); the design only
// has to avoid *under*-invalidation, which the support inequality guarantees
// in exact arithmetic and — because estimates are written as single
// floating-point sums and only ever decrease — in IEEE arithmetic as well.
// With non-uniform weights a support chain's value can differ from the
// re-derived sum by association order (same class of noise as the relaxation
// epsilon); with uniform weights every quantity is an exact small integer and
// the converged state is bit-identical to a from-scratch engine on the final
// graph, which is the acceptance bar the lattice tests enforce.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace aa {

class ShardOwnership;

/// A batch of shrinking updates applied atomically by
/// AnytimeEngine::apply_deletion.
struct ShrinkBatch {
    /// Edges to remove (the weight field is ignored). Edges not present in
    /// the graph — including edges deleted earlier — are skipped silently.
    std::vector<Edge> deletions;
    /// Vertices to delete. Vertex ids are stable (flat per-vertex arrays
    /// depend on dense ids), so vertex deletion removes every incident edge
    /// and leaves the id in place, isolated: its distances converge to
    /// infinity everywhere and it stops contributing to closeness.
    std::vector<VertexId> vertices;
    /// Weight changes, weight = the new weight. Increases run through the
    /// invalidate/re-settle machinery; decreases through the growth-path
    /// broadcast (deferred until after the cascade so no stale-low value is
    /// broadcast); absent edges are skipped.
    std::vector<Edge> reweights;
};

/// Counters describing one apply_deletion call.
struct ShrinkReport {
    std::size_t edges_removed{0};
    std::size_t weight_increases{0};
    std::size_t weight_decreases{0};
    /// Suspect (row, column) pairs flagged by the seed scan at the affected
    /// edges' endpoints.
    std::size_t seed_suspects{0};
    /// Entries reset to infinity by the invalidation cascade.
    std::size_t invalidated_entries{0};
    /// Cascade rounds (support-check sweep + raise/pull exchange) until
    /// fixpoint.
    std::size_t cascade_rounds{0};
    /// Cross-rank distances pulled from their owners by support checks.
    std::size_t pulled_entries{0};
};

/// A cross-rank distance d(vertex, column) a deletion cascade pulls from the
/// vertex's owner, packed as (vertex << 32) | column: ascending keys are in
/// (vertex, column) order.
using PullKey = std::uint64_t;

constexpr PullKey pull_key(VertexId vertex, VertexId column) {
    return (static_cast<PullKey>(vertex) << 32) | column;
}
constexpr VertexId pull_vertex(PullKey key) { return static_cast<VertexId>(key >> 32); }
constexpr VertexId pull_column(PullKey key) { return static_cast<VertexId>(key); }

/// ShrinkViewRequest payload: strictly ascending keys grouped per vertex as
/// [u32 vertex][varint count][delta-varint columns] (first column absolute,
/// then deltas >= 1).
std::vector<std::byte> encode_pull_request(std::span<const PullKey> keys);

/// Decode a request addressed to rank `self`. Every structural check is an
/// AA_ASSERT: truncated or overlong varints, an empty or oversized group, a
/// non-ascending column, a column >= num_columns, or a vertex `self` does
/// not own all die instead of reading out of bounds.
std::vector<PullKey> decode_pull_request(std::span<const std::byte> payload,
                                         std::size_t num_columns,
                                         const ShardOwnership& ownership,
                                         RankId self);

/// ShrinkViewReply payload: the f64 values, in request order.
std::vector<std::byte> encode_pull_reply(std::span<const Weight> values);

/// Decode a reply to a request of `expected` keys; a payload carrying any
/// other number of values dies on an AA_ASSERT.
std::vector<Weight> decode_pull_reply(std::span<const std::byte> payload,
                                      std::size_t expected);

}  // namespace aa
