// The engine benchmark: two workloads (churn, serve) driven through
// the engine's public entry points only. See run.py for the command line and
// ../BENCHMARK.json for the metric list.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "graph/graph.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Workload { Churn, Serve };

/// Fixed shape of one workload: host size, engine configuration and the
/// number of scripted rounds for a pass of the given length.
struct WorkloadSpec {
    Workload kind{Workload::Churn};
    std::string name;
    std::size_t host_vertices{0};
    aa::EngineConfig config;
    /// Scripted rounds of one pass. A serve round is three growth rounds,
    /// one per addition strategy, each followed by a churn round: every
    /// round then does the same mix of work, where single growth rounds
    /// differ several-fold by strategy and would split the round times
    /// into clusters with the median and tail on their edges.
    std::size_t rounds{0};
    /// Closed-loop reader threads (serve only).
    std::size_t readers{0};
    /// Threads that do work at the same time, at most, in any part of the
    /// run, the traced run's threaded baseline included (checked against the
    /// host's hardware concurrency before anything runs).
    std::size_t working_threads{0};
};

WorkloadSpec make_spec(Workload kind, std::uint64_t seed, double pass_seconds);

/// The workload's host graph: Barabasi-Albert, unit weights.
aa::DynamicGraph make_host(const WorkloadSpec& spec, std::uint64_t seed);

/// Order-independent bit-exact digest of a closeness result.
std::uint64_t closeness_checksum(const aa::ClosenessScores& scores);

/// Everything one pass (set-up plus script) measured. Per-layer figures go
/// straight into `layers` when the pass is traced.
struct PassResult {
    double setup_s{0};
    /// Script wall time, without the probe runs between rounds.
    double wall_s{0};
    double sim_s{0};
    std::vector<double> update_s;
    /// Host-speed probe (probe.hpp), run before and after every round: the
    /// median of its times, to which the relative metrics are taken.
    double probe_p50_s{0};
    std::uint64_t rounds{0};
    std::uint64_t failed_rounds{0};
    /// Closeness checksum at the end of the script, and of the final state
    /// (after the traced run's extra observation round, if any).
    std::uint64_t script_checksum{0};
    std::uint64_t checksum{0};
    /// Serve only: every read, by shape and overall.
    std::uint64_t reads{0};
    std::uint64_t failed_reads{0};
    bool shapes_sampled{true};
    LatencyHistogram read_latency;
    LatencyHistogram staleness;
    std::uint64_t snapshot_checksum{0};
    aa::DynamicGraph final_graph;
};

/// The converged state right after set-up, for the cross-checks of the
/// traced run.
struct SetupFacts {
    double wall_s{0};
    double sim_s{0};
    std::uint64_t checksum{0};
    /// Sum of every finite distance (exact: weights are dyadic).
    double distance_sum{0};
    std::vector<aa::RankId> owners;
};
SetupFacts setup_facts(const aa::AnytimeEngine& engine);
double distance_sum(const aa::AnytimeEngine& engine);

/// Destroy `engine` and hand the freed heap back to the system, so every
/// engine of a run starts from the same heap and peak_rss_mb measures the
/// largest engine rather than what earlier set-ups left cached.
void release_memory(std::unique_ptr<aa::AnytimeEngine>& engine);

/// Construct, initialize and converge an engine on `host`; returns the wall
/// seconds it took.
double set_up(std::unique_ptr<aa::AnytimeEngine>& engine, const aa::DynamicGraph& host,
              const aa::EngineConfig& config, Tracer& tracer);

/// One pass: set up an engine on `host`, run the workload's script (its
/// inputs and readers drawn from `seed`), check the converged state and
/// capture the final graph. With an enabled tracer
/// every public call becomes a span and per-layer metrics land in `layers`.
/// `facts`, when given, receives the state right after set-up.
PassResult run_pass(const WorkloadSpec& spec, const aa::DynamicGraph& host,
                    std::uint64_t seed, Tracer& tracer, Results* layers,
                    SetupFacts* facts = nullptr);

/// `config` moved to the threaded backend with the benchmark's worker count.
aa::EngineConfig on_threaded_backend(const aa::EngineConfig& config);

/// Per-layer measurements made outside the script (traced runs only): the
/// standalone partition, the threaded-backend baseline and the RC replay.
/// `own` is the workload's own set-up of the same host. Returns false (with
/// a message on stderr) when a cross-check fails.
bool measure_side_layers(const WorkloadSpec& spec, const aa::DynamicGraph& host,
                         const SetupFacts& own, Results& layers);

}  // namespace perfbench
