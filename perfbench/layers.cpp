// Per-layer measurements made beside the script in a traced run: the
// standalone DD partition, the threaded-backend baseline, and the RC
// sub-layer replay (post / exchange / ingest / propagate timed one by one
// through the core/rc kernels, the way bench/ablate_rc_kernels drives them).
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "core/ia.hpp"
#include "core/rc.hpp"
#include "partition/multilevel.hpp"
#include "runtime/cluster.hpp"
#include "runtime/thread_pool.hpp"

namespace perfbench {

using namespace aa;

namespace {

/// Kernel pool of the replay: two workers plus the calling thread, the same
/// three busy threads as the threaded workloads.
constexpr std::size_t kReplayWorkers = 2;

struct Replay {
    double post_s{0};
    double exchange_s{0};
    double ingest_s{0};
    double propagate_s{0};
    double distance_sum{0};
};

/// Cold-start RC fixpoint of `g` under the partition `owners`: IA on every
/// rank, then post / exchange / ingest / propagate rounds until no message
/// is pending.
Replay replay_rc(const DynamicGraph& g, const std::vector<RankId>& owners,
                 std::uint32_t num_ranks) {
    const std::size_t n = g.num_vertices();
    std::vector<LocalSubgraph> sgs;
    std::vector<DistanceStore> stores;
    for (RankId r = 0; r < num_ranks; ++r) {
        sgs.emplace_back(r, owners);
        stores.emplace_back(n);
        for (const VertexId v : sgs[r].local_vertices()) {
            stores[r].add_row(v);
        }
    }
    for (VertexId u = 0; u < n; ++u) {
        for (const Neighbor& nb : g.neighbors(u)) {
            if (u >= nb.to) {
                continue;
            }
            sgs[owners[u]].add_local_edge(u, nb.to, nb.weight);
            if (owners[nb.to] != owners[u]) {
                sgs[owners[nb.to]].add_local_edge(u, nb.to, nb.weight);
            }
        }
    }
    ThreadPool pool(kReplayWorkers);
    for (RankId r = 0; r < num_ranks; ++r) {
        ia_dijkstra_all(sgs[r], stores[r], pool);
    }

    Replay out;
    Cluster cluster(num_ranks);
    for (;;) {
        auto t0 = Clock::now();
        for (RankId r = 0; r < num_ranks; ++r) {
            rc_post_boundary_updates(sgs[r], stores[r], cluster);
        }
        out.post_s += seconds_between(t0, Clock::now());
        if (!cluster.has_pending_messages()) {
            break;
        }
        t0 = Clock::now();
        cluster.exchange();
        out.exchange_s += seconds_between(t0, Clock::now());
        for (RankId r = 0; r < num_ranks; ++r) {
            const auto inbox = cluster.receive(r);
            t0 = Clock::now();
            rc_ingest_updates(sgs[r], stores[r], inbox, BoundaryWireFormat::V2Soa, &pool);
            const auto t1 = Clock::now();
            rc_propagate_local(sgs[r], stores[r], &pool);
            out.ingest_s += seconds_between(t0, t1);
            out.propagate_s += seconds_between(t1, Clock::now());
        }
    }
    for (RankId r = 0; r < num_ranks; ++r) {
        for (LocalId l = 0; l < stores[r].num_rows(); ++l) {
            for (const Weight w : stores[r].row(l)) {
                if (w < kInfinity) {
                    out.distance_sum += w;
                }
            }
        }
    }
    return out;
}

}  // namespace

double distance_sum(const AnytimeEngine& engine) {
    double sum = 0;
    engine.visit_rows([&sum](VertexId, std::span<const Weight> row) {
        for (const Weight w : row) {
            if (w < kInfinity) {
                sum += w;
            }
        }
    });
    return sum;
}

bool measure_side_layers(const WorkloadSpec& spec, const DynamicGraph& host,
                         const SetupFacts& own, Results& layers) {
    // DD alone: the multilevel partition of the host, median of three.
    std::vector<double> dd;
    for (int i = 0; i < 3; ++i) {
        Rng rng(spec.config.seed);
        const auto t0 = Clock::now();
        const Partitioning p = multilevel_partition(host, spec.config.num_ranks, rng,
                                                    spec.config.partition);
        dd.push_back(seconds_between(t0, Clock::now()));
        if (!p.valid()) {
            std::fprintf(stderr, "standalone partition is invalid\n");
            return false;
        }
    }
    layers.add("partition.dd_s", median(dd), "s");

    // Backend baseline: the same host converged on the threaded backend
    // must land on the same state and sim clock as the workload's own
    // sequential set-up.
    Tracer off(false);
    std::unique_ptr<AnytimeEngine> engine;
    const double threaded_s = set_up(engine, host, on_threaded_backend(spec.config), off);
    const SetupFacts baseline = setup_facts(*engine);
    release_memory(engine);
    if (baseline.checksum != own.checksum || baseline.sim_s != own.sim_s) {
        std::fprintf(stderr,
                     "backend baseline diverged: checksum %016llx vs %016llx, "
                     "sim %.17g vs %.17g\n",
                     static_cast<unsigned long long>(baseline.checksum),
                     static_cast<unsigned long long>(own.checksum), baseline.sim_s,
                     own.sim_s);
        return false;
    }
    layers.add("runtime.backend_speedup", own.wall_s / threaded_s, "x");

    const Replay replay = replay_rc(host, own.owners, spec.config.num_ranks);
    if (replay.distance_sum != own.distance_sum) {
        std::fprintf(stderr, "RC replay converged to distance sum %.17g, engine %.17g\n",
                     replay.distance_sum, own.distance_sum);
        return false;
    }
    layers.add("rc.post_s", replay.post_s, "s");
    layers.add("runtime.exchange_s", replay.exchange_s, "s");
    layers.add("rc.ingest_s", replay.ingest_s, "s");
    layers.add("rc.propagate_s", replay.propagate_s, "s");
    return true;
}

}  // namespace perfbench
