// The scripted workloads. Every engine and service call the scripts
// make is wrapped in a tracer span, so a traced pass yields per-layer wall
// time from outside the engine; the engine's own sim-clock spans and
// counters are read back through its public accessors.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <map>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "probe.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "serve/service.hpp"

namespace perfbench {

using namespace aa;

namespace {

constexpr std::uint32_t kRanks = 8;
/// Workers of the threaded backend baseline (traced runs): two plus the
/// calling thread, one core of a four-core host left free.
constexpr std::size_t kBackendWorkers = 2;
/// Edges deleted per churn round (plus k/2 reweights and k additions).
constexpr std::size_t kChurnK = 32;
/// A round that is not quiescent after this many RC steps has failed.
constexpr std::size_t kStepCap = 10000;
/// Addition batch sizes as fractions of the host, the ends of the paper's
/// Fig-8 per-step range: a small batch opens each round and a large one lands
/// mid-RC. Every round adds the same amount, so rounds differ only by
/// strategy and the median round is not split between batch sizes.
constexpr double kFirstBatchFraction = 0.002;
constexpr double kSecondBatchFraction = 0.0075;

/// Busy threads of a ThreadedBackend: ThreadPool::parallel_for cuts the P
/// ranks into min(P, workers + 1) chunks of ceil size, run by the workers
/// plus the calling thread; trailing empty chunks do no work.
std::size_t threaded_working_threads(std::size_t ranks, std::size_t workers) {
    const std::size_t chunks = std::min(ranks, workers + 1);
    const std::size_t size = (ranks + chunks - 1) / chunks;
    return (ranks + size - 1) / size;
}

/// Rounds of a script that lasts about `seconds` on the reference host (a
/// four-core Xeon VM), where `per_second` rounds (with their probe runs) are
/// measured. The count depends only on the requested run length, never on
/// measured time, so sim_s stays deterministic.
std::size_t rounds_for(double seconds, double per_second) {
    return static_cast<std::size_t>(std::max(1.0, std::round(seconds * per_second)));
}

// ---- script inputs ---------------------------------------------------------

struct ChurnRound {
    ShrinkBatch shrink;
    std::vector<Edge> additions;
};

/// k distinct existing edges deleted, k/2 others reweighted to a dyadic
/// value (alternately 2 and 1/2, so every converged distance stays exact),
/// k new unit edges between non-adjacent vertices.
ChurnRound make_churn_round(const DynamicGraph& g, std::size_t k, Rng& rng) {
    ChurnRound round;
    const std::vector<Edge> edges = g.edges();
    std::vector<char> picked(edges.size(), 0);
    const auto pick = [&] {
        for (;;) {
            const std::size_t i = rng.uniform(edges.size());
            if (picked[i] == 0) {
                picked[i] = 1;
                return edges[i];
            }
        }
    };
    for (std::size_t i = 0; i < k; ++i) {
        round.shrink.deletions.push_back(pick());
    }
    for (std::size_t i = 0; i < k / 2; ++i) {
        Edge e = pick();
        e.weight = i % 2 == 0 ? 2.0 : 0.5;
        round.shrink.reweights.push_back(e);
    }
    const std::size_t n = g.num_vertices();
    while (round.additions.size() < k) {
        const auto u = static_cast<VertexId>(rng.uniform(n));
        const auto v = static_cast<VertexId>(rng.uniform(n));
        if (u == v || g.edge_weight(u, v) < kInfinity) {
            continue;
        }
        const bool duplicate =
            std::any_of(round.additions.begin(), round.additions.end(),
                        [&](const Edge& e) {
                            return (e.u == u && e.v == v) || (e.u == v && e.v == u);
                        });
        if (!duplicate) {
            round.additions.push_back({u, v, 1.0});
        }
    }
    return round;
}

struct GrowRound {
    GrowthBatch first;
    GrowthBatch second;  // lands after two RC steps
};

GrowRound make_grow_round(std::size_t current_n, std::size_t host_n, Rng& rng) {
    const auto batch_config = [host_n](double fraction) {
        GrowthConfig gc;
        gc.num_new = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::lround(fraction * static_cast<double>(host_n))));
        return gc;
    };
    GrowRound r;
    r.first = grow_batch(current_n, batch_config(kFirstBatchFraction), rng);
    r.second = grow_batch(current_n + r.first.num_new, batch_config(kSecondBatchFraction), rng);
    return r;
}

// ---- the script ------------------------------------------------------------

/// Span names of apply_addition, one per strategy, in the order growth
/// rounds cycle through them.
const char* add_span_name(std::size_t strategy) {
    static const char* const kNames[] = {"add.roundrobin", "add.cutedge",
                                         "add.repartition"};
    return kNames[strategy];
}

/// Per-layer counters the script accumulates while it runs.
struct ScriptCounters {
    std::size_t moved_vertices{0};
    std::vector<double> steps_to_exact;
    std::size_t seed_suspects{0};
    std::size_t invalidated_entries{0};
    std::size_t cascade_rounds{0};
    std::vector<double> imbalance;
    std::vector<double> demand_hot;
};

class Script {
public:
    Script(AnytimeEngine& engine, Tracer& tracer, std::size_t host_n, std::uint64_t seed)
        : engine_(engine), tracer_(tracer), host_n_(host_n),
          rng_(seed ^ 0x5C21F7ull), cutedge_(seed ^ 0xC07ull) {}

    /// RC steps until quiescent or the step cap; returns steps taken.
    std::size_t converge() {
        std::size_t steps = 0;
        while (steps < kStepCap) {
            Tracer::Scope s(tracer_, "rc_step");
            if (!engine_.rc_step()) {
                break;
            }
            ++steps;
        }
        return steps;
    }

    /// One growth round with addition strategy `which` (0 RoundRobin-PS,
    /// 1 CutEdge-PS, 2 Repartition-S); returns false if it did not reach
    /// quiescence.
    bool grow_round(std::size_t which) {
        const GrowRound inputs = make_grow_round(engine_.num_vertices(), host_n_, rng_);
        VertexAdditionStrategy* strategies[] = {&roundrobin_, &cutedge_, &repartition_};
        VertexAdditionStrategy& strategy = *strategies[which];
        Tracer::Scope r(tracer_, "round");
        {
            Tracer::Scope s(tracer_, add_span_name(which));
            engine_.apply_addition(inputs.first, strategy);
        }
        counters.moved_vertices += engine_.last_moved_vertices();
        for (int i = 0; i < 2; ++i) {
            Tracer::Scope s(tracer_, "rc_step");
            if (!engine_.rc_step()) {
                break;
            }
        }
        {
            Tracer::Scope s(tracer_, add_span_name(which));
            engine_.apply_addition(inputs.second, strategy);
        }
        counters.moved_vertices += engine_.last_moved_vertices();
        counters.steps_to_exact.push_back(static_cast<double>(converge()));
        return engine_.quiescent();
    }

    /// One churn round; returns false if it did not reach quiescence.
    bool churn_round() {
        const ChurnRound inputs = make_churn_round(engine_.graph(), kChurnK, rng_);
        Tracer::Scope r(tracer_, "round");
        ShrinkReport report;
        {
            Tracer::Scope s(tracer_, "apply_deletion");
            report = engine_.apply_deletion(inputs.shrink);
        }
        {
            Tracer::Scope s(tracer_, "add_edges");
            engine_.add_edges(inputs.additions);
        }
        converge();
        counters.seed_suspects += report.seed_suspects;
        counters.invalidated_entries += report.invalidated_entries;
        counters.cascade_rounds += report.cascade_rounds;
        return engine_.quiescent();
    }

    /// Samples taken at every round end (gauges read through public calls).
    void sample_gauges() {
        counters.imbalance.push_back(engine_.migration_planner().imbalance());
        for (const auto& c : engine_.metrics().counters()) {
            if (c.name == "refine.demand.hot") {
                counters.demand_hot.push_back(c.value);
            }
        }
    }

    /// An extra churn round outside every timed region: entries changed by
    /// the shrink batch over entries it invalidated (the useful-work ratio).
    double changed_per_invalidated() {
        const ChurnRound inputs = make_churn_round(engine_.graph(), kChurnK, rng_);
        const auto before = engine_.full_distance_matrix();
        const ShrinkReport report = engine_.apply_deletion(inputs.shrink);
        engine_.run_to_quiescence();
        const auto after = engine_.full_distance_matrix();
        std::size_t changed = 0;
        for (std::size_t u = 0; u < before.size(); ++u) {
            for (std::size_t v = 0; v < before[u].size(); ++v) {
                changed += before[u][v] != after[u][v] ? 1 : 0;
            }
        }
        engine_.add_edges(inputs.additions);
        engine_.run_to_quiescence();
        return report.invalidated_entries == 0
                   ? 0.0
                   : static_cast<double>(changed) /
                         static_cast<double>(report.invalidated_entries);
    }

    ScriptCounters counters;

private:
    AnytimeEngine& engine_;
    Tracer& tracer_;
    std::size_t host_n_;
    Rng rng_;
    RoundRobinPS roundrobin_;
    CutEdgePS cutedge_;
    RepartitionS repartition_;
};

// ---- serve readers ---------------------------------------------------------

enum Shape { kPoint, kBatch, kTopK, kWait, kShapes };
const char* const kShapeNames[kShapes] = {"point", "batch", "topk", "wait"};

struct ReaderStats {
    LatencyHistogram by_shape[kShapes];
    std::uint64_t issued[kShapes]{};
    LatencyHistogram all;
    LatencyHistogram staleness;
    std::uint64_t reads{0};
    std::uint64_t failed{0};
};

/// Closed loop: the next read is issued when the previous one returns. Mix
/// per read, drawn from the reader's own stream: 1/16 WaitForNextStep point,
/// 2/16 top-10, 3/16 batches of 4-16 vertices, the rest stale points.
void reader_loop(QueryService& service, std::size_t query_range, std::uint64_t seed,
                 const std::atomic<bool>& stop, ReaderStats& stats) {
    Rng rng(seed);
    std::vector<VertexId> batch;
    while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t draw = rng.uniform(16);
        const Shape shape = draw == 0 ? kWait : draw < 3 ? kTopK : draw < 6 ? kBatch : kPoint;
        const auto v = static_cast<VertexId>(rng.uniform(query_range));
        if (shape == kBatch) {
            batch.resize(4 + rng.uniform(13));
            for (VertexId& b : batch) {
                b = static_cast<VertexId>(rng.uniform(query_range));
            }
        }
        const auto t0 = Clock::now();
        ResponseMeta meta;
        switch (shape) {
            case kPoint: meta = service.point(v, FreshnessPolicy::ServeStale).meta; break;
            case kBatch: meta = service.batch(batch, FreshnessPolicy::ServeStale).meta; break;
            case kTopK: meta = service.topk(10, FreshnessPolicy::ServeStale).meta; break;
            default: meta = service.point(v, FreshnessPolicy::WaitForNextStep).meta; break;
        }
        const double latency = seconds_between(t0, Clock::now());
        ++stats.reads;
        ++stats.issued[shape];
        if (meta.status != QueryStatus::Ok) {
            ++stats.failed;
            continue;
        }
        stats.by_shape[shape].add(latency);
        stats.all.add(latency);
        stats.staleness.add(meta.staleness_wall);
    }
}

std::uint64_t snapshot_checksum(const ResultSnapshot& snap) {
    ClosenessScores scores;
    scores.closeness.resize(snap.scores.size());
    scores.reachable.resize(snap.scores.size());
    for (std::size_t v = 0; v < snap.scores.size(); ++v) {
        scores.closeness[v] = snap.scores.closeness(v);
        scores.reachable[v] = snap.scores.reachable(v);
    }
    return closeness_checksum(scores);
}

}  // namespace

WorkloadSpec make_spec(Workload kind, std::uint64_t seed, double pass_seconds) {
    WorkloadSpec s;
    s.kind = kind;
    s.config.num_ranks = kRanks;
    s.config.ia_threads = 1;
    s.config.seed = seed;
    // Both scripts run on the sequential backend: on a shared host the
    // threaded backend's round times follow how fast idle cores wake, which
    // the single-threaded probe does not see, and its round times relative
    // to the probe's memory kernel spread 2.5 times as far (IQR/median 11%
    // against 4.4% over the same six seeds). Rounds gain under 5% from
    // threads at this size. The threaded backend is measured by the traced
    // run's baseline.
    s.config.backend = BackendKind::Sequential;
    s.working_threads = threaded_working_threads(kRanks, kBackendWorkers);
    switch (kind) {
        case Workload::Churn:
            s.name = "churn";
            s.host_vertices = 2000;
            s.config.rc_async = true;
            s.config.schedule = CommSchedule::Pipelined;
            s.config.auto_migrate = true;
            // Below the 1.25 default so the planner moves shards on this
            // host; at the default it never fires and the layer sits idle.
            s.config.migrate_imbalance_threshold = 1.1;
            s.rounds = rounds_for(pass_seconds, 1.6);
            break;
        case Workload::Serve:
            s.name = "serve";
            s.host_vertices = 2000;
            s.config.refine_policy = RefinePolicy::QueryHeat;
            s.readers = 3;
            s.working_threads = std::max(s.working_threads, 1 + s.readers);
            s.rounds = rounds_for(pass_seconds, 0.3);
            break;
    }
    return s;
}

EngineConfig on_threaded_backend(const EngineConfig& config) {
    EngineConfig threaded = config;
    threaded.backend = BackendKind::Threaded;
    threaded.backend_threads = kBackendWorkers;
    return threaded;
}

DynamicGraph make_host(const WorkloadSpec& spec, std::uint64_t seed) {
    Rng rng(seed);
    return barabasi_albert(spec.host_vertices, 3, rng);
}

std::uint64_t closeness_checksum(const ClosenessScores& scores) {
    std::uint64_t sum = 0;
    for (std::size_t v = 0; v < scores.closeness.size(); ++v) {
        const auto bits = std::bit_cast<std::uint64_t>(scores.closeness[v]);
        sum += (bits ^ (v * 0x9E3779B97F4A7C15ull)) + scores.reachable[v];
    }
    return sum;
}

void release_memory(std::unique_ptr<AnytimeEngine>& engine) {
    engine.reset();
    malloc_trim(0);
}

double set_up(std::unique_ptr<AnytimeEngine>& engine, const DynamicGraph& host,
              const EngineConfig& config, Tracer& tracer) {
    release_memory(engine);
    const auto t0 = Clock::now();
    Tracer::Scope s(tracer, "setup");
    {
        Tracer::Scope c(tracer, "engine.construct");
        engine = std::make_unique<AnytimeEngine>(host, config);
    }
    {
        Tracer::Scope c(tracer, "initialize");
        engine->initialize();
    }
    {
        Tracer::Scope c(tracer, "run_to_quiescence");
        engine->run_to_quiescence();
    }
    return seconds_between(t0, Clock::now());
}

SetupFacts setup_facts(const AnytimeEngine& engine) {
    SetupFacts f;
    f.sim_s = engine.sim_seconds();
    f.checksum = closeness_checksum(engine.closeness());
    f.distance_sum = distance_sum(engine);
    f.owners = engine.owners();
    return f;
}

PassResult run_pass(const WorkloadSpec& spec, const DynamicGraph& host,
                    std::uint64_t seed, Tracer& tracer, Results* layers,
                    SetupFacts* facts) {
    PassResult out;
    EngineConfig config = spec.config;
    config.enable_metrics = tracer.enabled();
    std::unique_ptr<AnytimeEngine> engine;
    std::unique_ptr<QueryService> service;
    out.setup_s = set_up(engine, host, config, tracer);
    if (facts != nullptr) {
        *facts = setup_facts(*engine);
        facts->wall_s = out.setup_s;
    }
    if (spec.kind == Workload::Serve) {
        const auto t0 = Clock::now();
        Tracer::Scope s(tracer, "service.attach");
        service = std::make_unique<QueryService>(*engine);
        out.setup_s += seconds_between(t0, Clock::now());
        if (tracer.enabled()) {
            // Same publication work as the service's own hook, timed.
            engine->set_boundary_hook([&tracer, svc = service.get()](AnytimeEngine&) {
                Tracer::Scope p(tracer, "publish");
                svc->publish();
            });
        }
    }

    // Baselines for the script-only deltas.
    const std::size_t steps0 = engine->step_history().size();
    const std::size_t deliveries0 = engine->delivery_trace().size();
    const std::size_t sim_spans0 = engine->metrics().spans().size();
    const EngineReport report0 = engine->report();
    const std::size_t cut0 = engine->current_cut_edges();
    std::vector<double> rank_ops0(engine->num_ranks());
    for (RankId r = 0; r < engine->num_ranks(); ++r) {
        rank_ops0[r] = engine->cluster().rank_stats(r).ops;
    }
    const double sim0 = engine->sim_seconds();
    PublicationStats pub0;
    std::size_t patched0 = 0;
    if (service) {
        pub0 = service->publication_stats();
        patched0 = service->topk_patched();
    }

    Script script(*engine, tracer, spec.host_vertices, seed);
    SpeedProbe probe;
    std::vector<double> probe_s;
    const auto run_probe = [&] {
        Tracer::Scope p(tracer, "probe");
        probe_s.push_back(probe.run());
    };
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> running{0};
    std::vector<ReaderStats> reader_stats(spec.readers);
    std::vector<std::thread> readers;
    const auto t0 = Clock::now();
    {
        Tracer::Scope s(tracer, "script");
        for (std::size_t i = 0; i < spec.readers; ++i) {
            running.fetch_add(1);
            readers.emplace_back([&, i] {
                reader_loop(*service, spec.host_vertices, seed ^ (0xC0FFEEull + i), stop,
                            reader_stats[i]);
                running.fetch_sub(1);
            });
        }
        for (std::size_t r = 0; r < spec.rounds; ++r) {
            run_probe();
            tracer.set_round(static_cast<std::int64_t>(r));
            const auto r0 = Clock::now();
            bool ok = true;
            if (spec.kind == Workload::Serve) {
                for (std::size_t strategy = 0; strategy < 3; ++strategy) {
                    ok = script.grow_round(strategy) && ok;
                    ok = script.churn_round() && ok;
                }
            } else {
                ok = script.churn_round();
            }
            out.update_s.push_back(seconds_between(r0, Clock::now()));
            run_probe();
            out.failed_rounds += ok ? 0 : 1;
            if (tracer.enabled()) {
                script.sample_gauges();
            }
        }
        tracer.set_round(-1);
        // Readers finish their current read; parked waiters need one more
        // publication each to return.
        stop.store(true);
        while (running.load() > 0) {
            service->publish();
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        for (std::thread& t : readers) {
            t.join();
        }
    }
    out.wall_s = seconds_between(t0, Clock::now()) -
                 std::accumulate(probe_s.begin(), probe_s.end(), 0.0);
    out.probe_p50_s = median(probe_s);
    out.sim_s = engine->sim_seconds() - sim0;
    out.rounds = spec.rounds;

    ReaderStats reads;
    for (const ReaderStats& rs : reader_stats) {
        for (int s = 0; s < kShapes; ++s) {
            reads.by_shape[s].merge(rs.by_shape[s]);
            reads.issued[s] += rs.issued[s];
        }
        reads.all.merge(rs.all);
        reads.staleness.merge(rs.staleness);
        reads.reads += rs.reads;
        reads.failed += rs.failed;
    }
    out.reads = reads.reads;
    out.failed_reads = reads.failed;
    out.read_latency = reads.all;
    out.staleness = reads.staleness;
    for (int s = 0; s < kShapes && spec.readers > 0; ++s) {
        out.shapes_sampled = out.shapes_sampled && reads.issued[s] > 0 &&
                             reads.by_shape[s].count() > 0;
    }

    if (layers != nullptr) {
        Results& L = *layers;
        const auto& history = engine->step_history();
        const EngineReport& report = engine->report();
        double rc_ops = 0;
        double exchange_sim = 0;
        double messages = 0;
        double bytes = 0;
        for (std::size_t i = steps0; i < history.size(); ++i) {
            rc_ops += history[i].ops;
            exchange_sim += history[i].exchange_seconds;
            messages += static_cast<double>(history[i].messages);
            bytes += static_cast<double>(history[i].bytes);
        }
        const std::vector<double> step_walls = tracer.durations("rc_step");
        const double step_total = std::accumulate(step_walls.begin(), step_walls.end(), 0.0);
        L.add("partition.cut_edges", static_cast<double>(cut0), "count");
        L.add("core.initialize_s", median(tracer.durations("initialize")), "s");
        L.add("ia.ops", report0.ia_ops, "count");
        L.add("rc.steps", static_cast<double>(history.size() - steps0), "count");
        L.add("rc.step_p50_s", median(step_walls), "s");
        L.add("rc.step_total_s", step_total, "s");
        L.add("rc.ops", rc_ops, "count");
        L.add("rc.ops_per_s", step_total > 0 ? rc_ops / step_total : 0, "1/s");

        // Engine sim-clock spans of the script: per step, the slowest rank's
        // time in each RC sub-phase, summed over steps.
        std::map<std::pair<std::string, std::int64_t>, std::map<std::int32_t, double>> phase;
        const auto& sim_spans = engine->metrics().spans();
        for (std::size_t i = sim_spans0; i < sim_spans.size(); ++i) {
            const MetricSpan& s = sim_spans[i];
            std::string key = s.name == "rc.ingest.early" ? "rc.ingest" : s.name;
            if (key == "rc.post" || key == "rc.ingest" || key == "rc.propagate") {
                phase[{key, s.step}][s.rank] += s.t_end - s.t_begin;
            }
        }
        std::map<std::string, double> phase_sim;
        for (const auto& [key, per_rank] : phase) {
            double slowest = 0;
            for (const auto& [rank, t] : per_rank) {
                slowest = std::max(slowest, t);
            }
            phase_sim[key.first] += slowest;
        }
        L.add("rc.post_sim_s", phase_sim["rc.post"], "s");
        L.add("rc.ingest_sim_s", phase_sim["rc.ingest"], "s");
        L.add("rc.propagate_sim_s", phase_sim["rc.propagate"], "s");

        L.add("runtime.messages", messages, "count");
        L.add("runtime.bytes", bytes, "bytes");
        L.add("runtime.exchange_sim_s", exchange_sim, "s");
        L.add("runtime.delivery_events",
              static_cast<double>(engine->delivery_trace().size() - deliveries0), "count");
        double max_ops = 0;
        double total_ops = 0;
        for (RankId r = 0; r < engine->num_ranks(); ++r) {
            const double ops = engine->cluster().rank_stats(r).ops - rank_ops0[r];
            max_ops = std::max(max_ops, ops);
            total_ops += ops;
        }
        L.add("runtime.rank_skew",
              total_ops > 0 ? max_ops * static_cast<double>(engine->num_ranks()) / total_ops
                            : 0,
              "ratio");

        L.add("add.roundrobin_s", median(tracer.durations("add.roundrobin")), "s");
        L.add("add.cutedge_s", median(tracer.durations("add.cutedge")), "s");
        L.add("add.repartition_s", median(tracer.durations("add.repartition")), "s");
        L.add("add.dynamic_ops", report.dynamic_ops - report0.dynamic_ops, "count");
        L.add("add.moved_vertices", static_cast<double>(script.counters.moved_vertices),
              "count");
        L.add("add.steps_to_exact", median(script.counters.steps_to_exact), "count");

        L.add("delete.apply_s", median(tracer.durations("apply_deletion")), "s");
        L.add("delete.add_edges_s", median(tracer.durations("add_edges")), "s");
        L.add("delete.seed_suspects", static_cast<double>(script.counters.seed_suspects),
              "count");
        L.add("delete.invalidated_entries",
              static_cast<double>(script.counters.invalidated_entries), "count");
        L.add("delete.cascade_rounds", static_cast<double>(script.counters.cascade_rounds),
              "count");

        L.add("shard.migrations",
              static_cast<double>(report.shard_migrations - report0.shard_migrations), "count");
        L.add("shard.migrated_rows",
              static_cast<double>(report.migrated_rows - report0.migrated_rows), "count");
        L.add("shard.imbalance", median(script.counters.imbalance), "ratio");
        L.add("refine.demand_hot", median(script.counters.demand_hot), "count");

        const std::vector<double> publishes = tracer.durations("publish");
        L.add("serve.publish_p50_s", median(publishes), "s");
        L.add("serve.publish_total_s",
              std::accumulate(publishes.begin(), publishes.end(), 0.0), "s");
        PublicationStats pub;
        if (service) {
            pub = service->publication_stats();
        }
        const double pubs = static_cast<double>(pub.publications - pub0.publications);
        L.add("serve.delta_frac",
              pubs > 0 ? static_cast<double>(pub.delta_publications - pub0.delta_publications) / pubs
                       : 0,
              "ratio");
        L.add("serve.rows_scanned", static_cast<double>(pub.rows_scanned - pub0.rows_scanned),
              "count");
        L.add("serve.published_bytes",
              static_cast<double>(pub.published_bytes - pub0.published_bytes), "bytes");
        L.add("serve.chunks_copied",
              static_cast<double>(pub.chunks_copied - pub0.chunks_copied), "count");
        for (int s = 0; s < kShapes; ++s) {
            const Summary sum = reads.by_shape[s].summary();
            const std::string base = std::string("serve.") + kShapeNames[s];
            L.add(base + "_p50_s", sum.p50, "s");
            L.add(base + "_tail_s", sum.tail, "s");
            L.add(base + "_samples", static_cast<double>(sum.count), "count");
        }
        L.add("serve.topk_patched",
              service ? static_cast<double>(service->topk_patched() - patched0) : 0, "count");
        L.add("serve.shed", service ? static_cast<double>(service->shed_count()) : 0, "count");
    }

    out.script_checksum = closeness_checksum(engine->closeness());
    // Post-script observation round (traced runs; not timed).
    if (layers != nullptr) {
        layers->add("delete.changed_per_invalidated", script.changed_per_invalidated(),
                    "ratio");
    }

    out.checksum = closeness_checksum(engine->closeness());
    if (service) {
        service->publish();
        out.snapshot_checksum = snapshot_checksum(*service->snapshot());
        service.reset();
    }
    out.final_graph = engine->graph();
    return out;
}

}  // namespace perfbench
