// Initial approximation (IA): multithreaded Dijkstra on the local sub-graph.
//
// Each rank seeds its distance vectors by running Dijkstra from every owned
// vertex over G_p = (V_p ∪ B_p, E_p) — the paper's IA phase (§IV.B).
#pragma once

#include <span>

#include "core/distance_store.hpp"
#include "core/subgraph.hpp"
#include "runtime/thread_pool.hpp"

namespace aa {

/// Optional kernel-level telemetry, filled when the caller passes a profile
/// (the engine does so only while its MetricsRegistry is enabled). `folds`
/// counts the finite distances folded into the store — i.e. how much of the
/// sub-graph each IA sweep actually reached — aggregated over all sources.
struct IaProfile {
    std::size_t sources{0};
    std::size_t sub_vertices{0};  // owned + external boundary vertices
    std::size_t folds{0};
};

/// Run Dijkstra from each of `sources` (row / local ids) on the local
/// sub-graph and fold the results into `store` via relax().
///
/// `mark_prop` controls whether improvements enter the local propagation
/// worklist: false for a full IA (every row is already at the local-subgraph
/// fixpoint), true for partial seeding (other rows still need to hear about
/// these values). Improvements are always marked for sending.
///
/// Returns the abstract operation count (heap operations + edge relaxations)
/// for LogP charging; the caller divides by the thread count via
/// Cluster::charge_compute.
double ia_dijkstra(const LocalSubgraph& sg, DistanceStore& store, ThreadPool& pool,
                   std::span<const LocalId> sources, bool mark_prop,
                   IaProfile* profile = nullptr);

/// Convenience: run from every owned vertex (the full IA phase).
double ia_dijkstra_all(const LocalSubgraph& sg, DistanceStore& store,
                       ThreadPool& pool, IaProfile* profile = nullptr);

/// Delta-stepping SSSP (Meyer & Sanders) as an alternative IA kernel: bucket
/// the tentative distances in width-`delta` ranges, settle a bucket with
/// light-edge relaxations, then relax its heavy edges. For delta <= min edge
/// weight it degenerates to Dijkstra; larger deltas trade extra relaxations
/// for bucket-level parallelism (DeltaSweep in tests/test_delta_stepping).
/// delta <= 0 picks a heuristic (average edge weight).
double ia_delta_stepping(const LocalSubgraph& sg, DistanceStore& store,
                         ThreadPool& pool, std::span<const LocalId> sources,
                         bool mark_prop, Weight delta = 0,
                         IaProfile* profile = nullptr);

}  // namespace aa
