// Event-driven RC exchange (relax-on-arrival) equivalence at the engine
// level.
//
// EngineConfig::rc_async reshapes only the simulated timeline: boundary
// messages become timestamped delivery events and ranks ingest them as they
// arrive, but ingest preserves the canonical per-receiver message order and
// propagation is deferred until a rank has everything — so distances,
// closeness, dirty order, per-step ops, and message traffic must stay
// bit-identical to the step-synchronous default at every step. The lattice
// below pins that across rank counts × both execution backends, with a mid-RC
// vertex-addition batch in every run. The delivery
// trace is built on the driver thread from the exchange's output, before any
// rank ingests, so it must also be identical across backends and across
// repeated threaded runs.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/rc.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "lattice.hpp"
#include "runtime/backend.hpp"

namespace aa {
namespace {

struct RunResult {
    std::vector<std::vector<Weight>> matrix;
    ClosenessScores scores;
    double sim_seconds{0};
    std::size_t rc_steps{0};
    std::size_t total_bytes{0};
    std::size_t total_messages{0};
    std::vector<RcStepStats> steps;
    std::vector<DeliveryTraceEntry> trace;
    std::vector<MetricSpan> spans;
};

struct Overrides {
    bool rc_async{false};
    CommSchedule schedule{CommSchedule::SerializedAllToAll};
};

RunResult run_scenario(std::uint32_t ranks, BackendKind backend, const Overrides& o) {
    Rng rng(555);
    DynamicGraph g = barabasi_albert(80, 2, rng, WeightRange{1.0, 4.0});

    EngineConfig config;
    config.num_ranks = ranks;
    config.seed = 0xF0 + ranks;
    config.backend = backend;
    config.enable_metrics = true;
    config.rc_async = o.rc_async;
    config.schedule = o.schedule;

    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_rc_steps(2);

    // Mid-RC addition batch: async steps must stay equivalent with rows
    // added (and rank neighbourhoods changed) between steps.
    GrowthConfig gc;
    gc.num_new = 6;
    gc.communities = 2;
    gc.intra_edges = 2;
    gc.host_edges = 2;
    Rng batch_rng(9001);
    const auto batch = grow_batch(g.num_vertices(), gc, batch_rng);
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();

    RunResult result;
    result.matrix = engine.full_distance_matrix();
    result.scores = engine.closeness();
    result.sim_seconds = engine.sim_seconds();
    result.rc_steps = engine.rc_steps_completed();
    result.total_bytes = engine.cluster().stats().total_bytes;
    result.total_messages = engine.cluster().stats().total_messages;
    result.steps = engine.step_history();
    result.trace = engine.delivery_trace();
    result.spans = engine.metrics().spans();
    return result;
}

/// Everything an event-driven step may NOT change: results, work, traffic.
/// (EXPECT_EQ on doubles is exact comparison — bit-identical, not "close".)
void expect_equivalent_modulo_timeline(const RunResult& sync,
                                       const RunResult& async_r) {
    EXPECT_EQ(sync.rc_steps, async_r.rc_steps);
    ASSERT_EQ(sync.matrix.size(), async_r.matrix.size());
    for (std::size_t v = 0; v < sync.matrix.size(); ++v) {
        ASSERT_EQ(sync.matrix[v], async_r.matrix[v]) << "row " << v;
    }
    ASSERT_EQ(sync.scores.closeness, async_r.scores.closeness);
    ASSERT_EQ(sync.scores.reachable, async_r.scores.reachable);
    ASSERT_EQ(sync.steps.size(), async_r.steps.size());
    for (std::size_t i = 0; i < sync.steps.size(); ++i) {
        EXPECT_EQ(sync.steps[i].step, async_r.steps[i].step);
        EXPECT_EQ(sync.steps[i].ops, async_r.steps[i].ops) << "step " << i;
        EXPECT_EQ(sync.steps[i].messages, async_r.steps[i].messages)
            << "step " << i;
        EXPECT_EQ(sync.steps[i].bytes, async_r.steps[i].bytes) << "step " << i;
    }
    EXPECT_EQ(sync.total_messages, async_r.total_messages);
    EXPECT_EQ(sync.total_bytes, async_r.total_bytes);
}

void expect_identical_trace(const RunResult& a, const RunResult& b) {
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        const DeliveryTraceEntry& x = a.trace[i];
        const DeliveryTraceEntry& y = b.trace[i];
        EXPECT_EQ(x.step, y.step) << "event " << i;
        EXPECT_EQ(x.time, y.time) << "event " << i;
        EXPECT_EQ(x.from, y.from) << "event " << i;
        EXPECT_EQ(x.to, y.to) << "event " << i;
        EXPECT_EQ(x.seq, y.seq) << "event " << i;
        EXPECT_EQ(x.bytes, y.bytes) << "event " << i;
    }
}

class RcAsyncEquivalence : public ::testing::TestWithParam<RankBackend> {};

TEST_P(RcAsyncEquivalence, AsyncMatchesSyncModuloTimeline) {
    const auto [ranks, backend, format] = GetParam();
    const RunResult sync = run_scenario(ranks, backend, {/*rc_async=*/false});
    const RunResult async_r = run_scenario(ranks, backend, {/*rc_async=*/true});
    expect_equivalent_modulo_timeline(sync, async_r);
    // The sync run never produces delivery events; the async run produces one
    // per RC-exchanged message (dynamic-update broadcasts stay collective, so
    // the trace is a subset of total message traffic).
    EXPECT_TRUE(sync.trace.empty());
    EXPECT_FALSE(async_r.trace.empty());
    EXPECT_LE(async_r.trace.size(), async_r.total_messages);
    // Relax-on-arrival can only shorten the timeline: ingest overlaps the
    // in-flight tail instead of waiting for the full collective.
    EXPECT_LE(async_r.sim_seconds, sync.sim_seconds * (1 + 1e-12));
}

TEST_P(RcAsyncEquivalence, PipelinedScheduleSameFixpoint) {
    // Changing the communication schedule under async changes arrival times
    // only — the canonical ingest order keeps the fixpoint (and all work
    // accounting) bit-identical; the pipelined wire can only be faster than
    // the serialized one.
    const auto [ranks, backend, format] = GetParam();
    Overrides serialized{/*rc_async=*/true, CommSchedule::SerializedAllToAll};
    Overrides pipelined{/*rc_async=*/true, CommSchedule::Pipelined};
    const RunResult a = run_scenario(ranks, backend, serialized);
    const RunResult b = run_scenario(ranks, backend, pipelined);
    expect_equivalent_modulo_timeline(a, b);
    EXPECT_LE(b.sim_seconds, a.sim_seconds * (1 + 1e-12));
}

INSTANTIATE_TEST_SUITE_P(Lattice, RcAsyncEquivalence,
                         ::testing::ValuesIn(rank_backend_cases()), LatticeName{});

TEST(RcAsyncDeterminism, ThreadedRunsReplayIdentically) {
    // Same seed, same config, two fresh engines on the threaded backend: the
    // delivery traces (delivery order with timestamps) must match event for
    // event, and so must every result. Ranks ingest concurrently, but each
    // only advances its own clock, so worker scheduling cannot perturb it.
    const Overrides async_pipelined{/*rc_async=*/true, CommSchedule::Pipelined};
    const RunResult a = run_scenario(8, BackendKind::Threaded, async_pipelined);
    const RunResult b = run_scenario(8, BackendKind::Threaded, async_pipelined);
    expect_identical_trace(a, b);
    expect_equivalent_modulo_timeline(a, b);
    EXPECT_EQ(a.sim_seconds, b.sim_seconds);
    EXPECT_FALSE(a.trace.empty());
}

TEST(RcAsyncDeterminism, BackendsShareOneTrace) {
    const Overrides async_pipelined{/*rc_async=*/true, CommSchedule::Pipelined};
    const RunResult seq = run_scenario(4, BackendKind::Sequential, async_pipelined);
    const RunResult thr = run_scenario(4, BackendKind::Threaded, async_pipelined);
    expect_identical_trace(seq, thr);
    expect_equivalent_modulo_timeline(seq, thr);
    EXPECT_EQ(seq.sim_seconds, thr.sim_seconds);
    // Ranks ingest their arrivals concurrently under the threaded backend;
    // the per-rank span sinks still merge into the sequential span stream.
    EXPECT_EQ(seq.spans, thr.spans);
}

TEST(RcAsyncDeterminism, TraceIsInEventOrderPerStep) {
    const Overrides async_serialized{/*rc_async=*/true};
    const RunResult r = run_scenario(4, BackendKind::Sequential, async_serialized);
    ASSERT_FALSE(r.trace.empty());
    for (std::size_t i = 1; i < r.trace.size(); ++i) {
        const DeliveryTraceEntry& prev = r.trace[i - 1];
        const DeliveryTraceEntry& cur = r.trace[i];
        if (prev.step != cur.step) {
            continue;  // new exchange, clock keyed from its own inflight start
        }
        // (time, source, seq) lexicographic — the delivered_before order.
        const bool ordered =
            prev.time < cur.time ||
            (prev.time == cur.time &&
             (prev.from < cur.from || (prev.from == cur.from && prev.seq < cur.seq)));
        EXPECT_TRUE(ordered) << "events " << i - 1 << " and " << i;
    }
}

TEST(RcIngest, AdaptiveResolutionRules) {
    // The window resolves into the documented clamp range, and concurrent
    // backends get a share no larger than the sequential backend's whole-LLC
    // window.
    Rng rng(7);
    DynamicGraph g = barabasi_albert(40, 2, rng, WeightRange{1.0, 2.0});
    EngineConfig config;
    config.num_ranks = 4;
    AnytimeEngine seq_engine(g, config);
    const std::size_t seq_window = seq_engine.rc_ingest_window_bytes_effective();
    EXPECT_GE(seq_window, std::size_t{4} << 20);
    EXPECT_LE(seq_window, std::size_t{128} << 20);
    EXPECT_EQ(seq_window, adaptive_rc_ingest_window_bytes(1));

    config.backend = BackendKind::Threaded;
    AnytimeEngine thr_engine(g, config);
    const std::size_t thr_window = thr_engine.rc_ingest_window_bytes_effective();
    EXPECT_GE(thr_window, std::size_t{4} << 20);
    EXPECT_LE(thr_window, seq_window);
    EXPECT_EQ(thr_window, adaptive_rc_ingest_window_bytes(4));
}

TEST(CommSchedule, PipelinedSyncMatchesSerializedResults) {
    // The Pipelined schedule in the step-synchronous engine: pure pricing
    // change, same fixpoint and work, never slower than the serialized wire.
    Overrides serialized{};
    Overrides pipelined{};
    pipelined.schedule = CommSchedule::Pipelined;
    const RunResult a = run_scenario(8, BackendKind::Sequential, serialized);
    const RunResult b = run_scenario(8, BackendKind::Sequential, pipelined);
    expect_equivalent_modulo_timeline(a, b);
    EXPECT_LE(b.sim_seconds, a.sim_seconds);
}

// ---- Golden timeline ------------------------------------------------------
//
// The absolute per-step timeline of run_scenario at P=4 (sequential backend).
// Steps 0-1 (before the addition) were recorded from the engine before the
// synchronous and event-driven RC steps shared one phase-2/3 path. Steps 2+
// and the final sim_seconds were re-recorded when the per-edge DV-row
// broadcasts became one block-encoded broadcast per root rank: the addition
// is priced differently, and its rows are snapshots taken before any batch
// edge applies, so the later RC steps carry a different share of the work.
// Synchronous steps must reproduce the timeline bit for bit. Event-driven
// steps must reproduce the work and traffic exactly; their times may differ
// by reassociation only, because a rank ingests every message that has
// arrived by its clock in one call instead of one call per message, which
// sums the same compute charges in a different order.

struct GoldenStep {
    double sim_seconds_after;
    double exchange_seconds;
    double ops;
    std::size_t messages;
    std::size_t bytes;
};

struct GoldenRun {
    bool rc_async;
    CommSchedule schedule;
    double sim_seconds;
    std::vector<GoldenStep> steps;
};

const std::vector<GoldenRun>& golden_runs() {
    static const std::vector<GoldenRun> runs{
        {false, CommSchedule::SerializedAllToAll, 0x1.db48ba0d7d10ap-8,
         {{0x1.12f06cb8a5629p-10, 0x1.0c73c58e58e29p-10, 0x1.697p+14, 12, 38008},
          {0x1.1e546227eeb7cp-9, 0x1.26b119bdec345p-10, 0x1.44e4p+14, 12, 50520},
          {0x1.00e0fa0ac3221p-8, 0x1.24d8a7767c084p-10, 0x1.ffa8p+13, 12, 49640},
          {0x1.3b2859d6ecc2p-8, 0x1.d039bebd95774p-11, 0x1.952p+12, 12, 20680},
          {0x1.6ea8b14c96df8p-8, 0x1.9b2477f345764p-11, 0x1.31ap+11, 12, 8024},
          {0x1.9fb2b6d665f83p-8, 0x1.87fb9dabde26p-11, 0x1.89p+9, 12, 3456},
          {0x1.cf6fcf0b77383p-8, 0x1.7dd974a5ef3d6p-11, 0x1.2ap+7, 12, 1040},
          {0x1.db48ba0d7d10ap-8, 0x1.7b1914bdc105p-13, 0x1.4p+3, 3, 96}}},
        {false, CommSchedule::Pipelined, 0x1.391036652e6f7p-9,
         {{0x1.41ff9ad83b47p-12, 0x1.280cfe2f0946cp-12, 0x1.697p+14, 12, 38008},
          {0x1.3ef936e8d2c4ap-11, 0x1.2fd5db943aep-12, 0x1.44e4p+14, 12, 50520},
          {0x1.8e024aa0666b5p-10, 0x1.320ccb1d27e1bp-12, 0x1.ffa8p+13, 12, 49640},
          {0x1.cb331c6935407p-10, 0x1.e1818fb798882p-13, 0x1.952p+12, 12, 20680},
          {0x1.001c68bc5d6f2p-9, 0x1.a4b49993ff14cp-13, 0x1.31ap+11, 12, 8024},
          {0x1.192ff9d79217bp-9, 0x1.8fe6d728e00cep-13, 0x1.89p+9, 12, 3456},
          {0x1.312a1693b5741p-9, 0x1.7f6497b7cabaap-13, 0x1.2ap+7, 12, 1040},
          {0x1.391036652e6f7p-9, 0x1.f976c65256b16p-15, 0x1.4p+3, 3, 96}}},
        {true, CommSchedule::SerializedAllToAll, 0x1.da74dd34a729cp-8,
         {{0x1.11ec0ad42ed6p-10, 0x1.0cb703c8f38a9p-10, 0x1.697p+14, 12, 38008},
          {0x1.1d6647fae93d5p-9, 0x1.26e64032c26c3p-10, 0x1.44e4p+14, 12, 50520},
          {0x1.003524fcaba99p-8, 0x1.250cbb0a93be2p-10, 0x1.ffa8p+13, 12, 49640},
          {0x1.3a66709b87efap-8, 0x1.d039bebd95778p-11, 0x1.952p+12, 12, 20680},
          {0x1.6ddcd9724fd6dp-8, 0x1.9b61674580ep-11, 0x1.31ap+11, 12, 8024},
          {0x1.9edfc1eb30cf6p-8, 0x1.87fb9dabde26p-11, 0x1.89p+9, 12, 3456},
          {0x1.ce9bfac9a7457p-8, 0x1.7ddcf2005a658p-11, 0x1.2ap+7, 12, 1040},
          {0x1.da74dd34a729cp-8, 0x1.7b1b3a7f3e08p-13, 0x1.4p+3, 3, 96}}},
        {true, CommSchedule::Pipelined, 0x1.37786454888d9p-9,
         {{0x1.3f6df0206c384p-12, 0x1.2a59f0b737ba3p-12, 0x1.697p+14, 12, 38008},
          {0x1.3bb9108815eb7p-11, 0x1.30c7731bab823p-12, 0x1.44e4p+14, 12, 50520},
          {0x1.8b71f781857f9p-10, 0x1.331b6058b0458p-12, 0x1.ffa8p+13, 12, 49640},
          {0x1.c839b19d7e372p-10, 0x1.e1f028243f02p-13, 0x1.952p+12, 12, 20680},
          {0x1.fd17ac317afb3p-10, 0x1.a5a856dcecbcp-13, 0x1.31ap+11, 12, 8024},
          {0x1.1798f5ef7b17ap-9, 0x1.906d0ee5e5bcp-13, 0x1.89p+9, 12, 3456},
          {0x1.2f9244830f923p-9, 0x1.7f728d21775bp-13, 0x1.2ap+7, 12, 1040},
          {0x1.37786454888d9p-9, 0x1.f97f5d584ac4p-15, 0x1.4p+3, 3, 96}}},
    };
    return runs;
}

/// Exact equality for synchronous runs, 1e-12 relative for event-driven ones.
void expect_golden_time(double got, double want, bool rc_async,
                        const std::string& what) {
    if (rc_async) {
        EXPECT_NEAR(got, want, 1e-12 * std::abs(want)) << what;
    } else {
        EXPECT_EQ(got, want) << what;
    }
}

TEST(RcStepTimeline, MatchesParent) {
    for (const GoldenRun& golden : golden_runs()) {
        const std::string mode =
            std::string(golden.rc_async ? "async" : "sync") +
            (golden.schedule == CommSchedule::Pipelined ? "/pipelined"
                                                        : "/serialized");
        const RunResult r =
            run_scenario(4, BackendKind::Sequential, {golden.rc_async, golden.schedule});
        expect_golden_time(r.sim_seconds, golden.sim_seconds, golden.rc_async,
                           mode + " final sim_seconds");
        ASSERT_EQ(r.steps.size(), golden.steps.size()) << mode;
        for (std::size_t i = 0; i < golden.steps.size(); ++i) {
            const GoldenStep& want = golden.steps[i];
            const RcStepStats& got = r.steps[i];
            const std::string at = mode + " step " + std::to_string(i);
            expect_golden_time(got.sim_seconds_after, want.sim_seconds_after,
                               golden.rc_async, at + " sim_seconds_after");
            expect_golden_time(got.exchange_seconds, want.exchange_seconds,
                               golden.rc_async, at + " exchange_seconds");
            EXPECT_EQ(got.ops, want.ops) << at;
            EXPECT_EQ(got.messages, want.messages) << at;
            EXPECT_EQ(got.bytes, want.bytes) << at;
        }
    }
}

}  // namespace
}  // namespace aa

