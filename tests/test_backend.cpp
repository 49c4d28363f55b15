// ExecutionBackend contract tests.
//
// The load-bearing property is the determinism contract from
// runtime/backend.hpp: for a fixed seed and config, the threaded backend must
// reproduce the sequential backend *bit-identically* — every distance, every
// closeness score, the simulated clock, and the telemetry span stream — no
// matter how the OS schedules the rank threads. The lattice below exercises
// it across rank counts, both communication schedules and both IA kernels,
// with a mid-RC vertex-addition batch in every run.
#include <gtest/gtest.h>

#include <atomic>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "runtime/backend.hpp"

namespace aa {
namespace {

TEST(BackendBasics, NamesRoundTripThroughParse) {
    EXPECT_EQ(backend_kind_name(BackendKind::Sequential), "seq");
    EXPECT_EQ(backend_kind_name(BackendKind::Threaded), "threaded");
    for (const BackendKind kind :
         {BackendKind::Sequential, BackendKind::Threaded}) {
        BackendKind parsed{};
        ASSERT_TRUE(parse_backend_kind(backend_kind_name(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
}

TEST(BackendBasics, ParseRejectsUnknownSpellingsUntouched) {
    BackendKind kind = BackendKind::Threaded;
    EXPECT_FALSE(parse_backend_kind("sequential", kind));
    EXPECT_FALSE(parse_backend_kind("Threaded", kind));
    EXPECT_FALSE(parse_backend_kind("", kind));
    EXPECT_FALSE(parse_backend_kind("threads", kind));
    EXPECT_EQ(kind, BackendKind::Threaded);  // left untouched on failure
}

TEST(BackendBasics, FactoryProducesMatchingKinds) {
    const auto seq = make_backend(BackendKind::Sequential, 4);
    EXPECT_EQ(seq->name(), "seq");
    EXPECT_FALSE(seq->concurrent());
    const auto threaded = make_backend(BackendKind::Threaded, 4);
    EXPECT_EQ(threaded->name(), "threaded");
    EXPECT_TRUE(threaded->concurrent());
}

TEST(BackendBasics, SequentialRunsRanksInAscendingOrder) {
    SequentialBackend backend;
    std::vector<RankId> order;
    backend.run_ranks(5, [&](RankId r) { order.push_back(r); });
    EXPECT_EQ(order, (std::vector<RankId>{0, 1, 2, 3, 4}));
}

TEST(BackendBasics, ThreadedRunsEveryRankExactlyOnceWithBarrier) {
    ThreadedBackend backend(4);
    for (int round = 0; round < 50; ++round) {
        std::vector<int> hits(8, 0);
        std::atomic<int> total{0};
        backend.run_ranks(hits.size(), [&](RankId r) {
            hits[r] += 1;  // distinct slots: racy only if a rank ran twice
            total.fetch_add(1, std::memory_order_relaxed);
        });
        // Barrier semantics: all writes are visible after run_ranks returns.
        EXPECT_EQ(total.load(), 8);
        for (const int h : hits) {
            EXPECT_EQ(h, 1);
        }
    }
}

// ---------------------------------------------------------------------------
// Determinism lattice: seq vs threaded, bit for bit.
// ---------------------------------------------------------------------------

struct RunResult {
    std::vector<std::vector<Weight>> matrix;
    ClosenessScores scores;
    double sim_seconds{0};
    std::size_t rc_steps{0};
    std::vector<MetricSpan> spans;
};

RunResult run_scenario(BackendKind backend, std::uint32_t ranks,
                       CommSchedule schedule, IaKernel kernel,
                       std::size_t backend_threads = 0) {
    Rng rng(987);
    DynamicGraph g = barabasi_albert(72, 2, rng, WeightRange{1.0, 3.0});

    EngineConfig config;
    config.num_ranks = ranks;
    config.ia_threads = 2;
    config.ia_kernel = kernel;
    config.schedule = schedule;
    config.seed = 0xBACC01 + ranks;
    config.backend = backend;
    config.backend_threads = backend_threads;
    config.enable_metrics = true;

    AnytimeEngine engine(g, config);
    engine.initialize();
    engine.run_rc_steps(2);

    // Mid-RC addition batch: the dynamic-update loops (extend, broadcast
    // apply, propagate) all run on the backend too.
    GrowthConfig gc;
    gc.num_new = 5;
    gc.communities = 2;
    gc.intra_edges = 2;
    gc.host_edges = 2;
    Rng batch_rng(4242);
    const auto batch = grow_batch(g.num_vertices(), gc, batch_rng);
    RoundRobinPS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();

    RunResult result;
    result.matrix = engine.full_distance_matrix();
    result.scores = engine.closeness();
    result.sim_seconds = engine.sim_seconds();
    result.rc_steps = engine.rc_steps_completed();
    result.spans = engine.metrics().spans();
    return result;
}

void expect_bit_identical(const RunResult& seq, const RunResult& threaded) {
    // EXPECT_EQ on doubles is exact comparison — bit-identical, not "close".
    EXPECT_EQ(seq.sim_seconds, threaded.sim_seconds);
    EXPECT_EQ(seq.rc_steps, threaded.rc_steps);
    ASSERT_EQ(seq.matrix.size(), threaded.matrix.size());
    for (std::size_t v = 0; v < seq.matrix.size(); ++v) {
        ASSERT_EQ(seq.matrix[v], threaded.matrix[v]) << "row " << v;
    }
    ASSERT_EQ(seq.scores.closeness, threaded.scores.closeness);
    ASSERT_EQ(seq.scores.reachable, threaded.scores.reachable);
    // Telemetry: same spans, in the same order, with the same simulated
    // bounds and op counts (per-rank sinks merged in rank order).
    ASSERT_EQ(seq.spans.size(), threaded.spans.size());
    for (std::size_t i = 0; i < seq.spans.size(); ++i) {
        const MetricSpan& a = seq.spans[i];
        const MetricSpan& b = threaded.spans[i];
        EXPECT_EQ(a.name, b.name) << "span " << i;
        EXPECT_EQ(a.rank, b.rank) << "span " << i;
        EXPECT_EQ(a.step, b.step) << "span " << i;
        EXPECT_EQ(a.t_begin, b.t_begin) << "span " << i << " (" << a.name << ")";
        EXPECT_EQ(a.t_end, b.t_end) << "span " << i << " (" << a.name << ")";
        EXPECT_EQ(a.ops, b.ops) << "span " << i << " (" << a.name << ")";
    }
}

using Param = std::tuple<std::uint32_t /*ranks*/, CommSchedule, IaKernel>;

class BackendDeterminism : public ::testing::TestWithParam<Param> {};

TEST_P(BackendDeterminism, ThreadedMatchesSequentialBitIdentically) {
    const auto [ranks, schedule, kernel] = GetParam();
    const RunResult seq =
        run_scenario(BackendKind::Sequential, ranks, schedule, kernel);
    const RunResult threaded =
        run_scenario(BackendKind::Threaded, ranks, schedule, kernel);
    expect_bit_identical(seq, threaded);
}

TEST_P(BackendDeterminism, ThreadedWithFewerWorkersThanRanksStillMatches) {
    const auto [ranks, schedule, kernel] = GetParam();
    const RunResult seq =
        run_scenario(BackendKind::Sequential, ranks, schedule, kernel);
    const RunResult threaded = run_scenario(BackendKind::Threaded, ranks,
                                            schedule, kernel,
                                            /*backend_threads=*/2);
    expect_bit_identical(seq, threaded);
}

INSTANTIATE_TEST_SUITE_P(
    Lattice, BackendDeterminism,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values(CommSchedule::SerializedAllToAll,
                                         CommSchedule::ParallelRounds),
                       ::testing::Values(IaKernel::Dijkstra,
                                         IaKernel::DeltaStepping)),
    [](const ::testing::TestParamInfo<Param>& p) {
        // Appends only: gcc 12 reports a false -Wrestrict for `"literal" +
        // std::string` temporaries.
        std::string name = "r";
        name += std::to_string(std::get<0>(p.param));
        name += std::get<1>(p.param) == CommSchedule::SerializedAllToAll ? "_ser" : "_par";
        name += std::get<2>(p.param) == IaKernel::DeltaStepping ? "_ds" : "_dij";
        return name;
    });

// Repartition-S moves whole rows between ranks; its seed and re-mark loops
// run on the backend, so pin that path separately (RoundRobinPS above never
// exercises it).
TEST(BackendDeterminismRepartition, ThreadedMatchesSequentialBitIdentically) {
    for (const CommSchedule schedule :
         {CommSchedule::SerializedAllToAll, CommSchedule::ParallelRounds}) {
        Rng rng(321);
        DynamicGraph g = planted_partition(60, 4, 0.2, 0.02, rng);
        RunResult results[2];
        for (const BackendKind backend :
             {BackendKind::Sequential, BackendKind::Threaded}) {
            EngineConfig config;
            config.num_ranks = 4;
            config.schedule = schedule;
            config.seed = 0xC0FFEE;
            config.backend = backend;
            config.enable_metrics = true;
            AnytimeEngine engine(g, config);
            engine.initialize();
            engine.run_rc_steps(1);
            GrowthConfig gc;
            gc.num_new = 8;
            gc.communities = 2;
            gc.intra_edges = 2;
            gc.host_edges = 2;
            Rng batch_rng(777);
            const auto batch = grow_batch(g.num_vertices(), gc, batch_rng);
            RepartitionS strategy;
            engine.apply_addition(batch, strategy);
            engine.run_to_quiescence();
            RunResult& result =
                results[backend == BackendKind::Threaded ? 1 : 0];
            result.matrix = engine.full_distance_matrix();
            result.scores = engine.closeness();
            result.sim_seconds = engine.sim_seconds();
            result.rc_steps = engine.rc_steps_completed();
            result.spans = engine.metrics().spans();
        }
        expect_bit_identical(results[0], results[1]);
    }
}

}  // namespace
}  // namespace aa
