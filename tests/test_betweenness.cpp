#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "graph/generators.hpp"
#include "measures/betweenness.hpp"

namespace aa {
namespace {

TEST(ExactBetweenness, PathGraph) {
    // Path 0-1-2-3-4: betweenness of vertex i = (i+1 choose pairs through it).
    DynamicGraph g(5);
    for (VertexId v = 0; v + 1 < 5; ++v) {
        g.add_edge(v, v + 1);
    }
    const auto scores = exact_betweenness(g);
    EXPECT_NEAR(scores[0], 0.0, 1e-9);
    EXPECT_NEAR(scores[1], 3.0, 1e-9);  // pairs (0,2),(0,3),(0,4)
    EXPECT_NEAR(scores[2], 4.0, 1e-9);  // (0,3),(0,4),(1,3),(1,4)
    EXPECT_NEAR(scores[3], 3.0, 1e-9);
    EXPECT_NEAR(scores[4], 0.0, 1e-9);
}

TEST(ExactBetweenness, StarCenter) {
    // Star with k leaves: center carries every leaf pair = k(k-1)/2.
    DynamicGraph g(6);
    for (VertexId v = 1; v < 6; ++v) {
        g.add_edge(0, v);
    }
    const auto scores = exact_betweenness(g);
    EXPECT_NEAR(scores[0], 10.0, 1e-9);
    for (VertexId v = 1; v < 6; ++v) {
        EXPECT_NEAR(scores[v], 0.0, 1e-9);
    }
}

TEST(ExactBetweenness, EqualPathsSplitCredit) {
    // Square 0-1-2-3-0: the pair (0,2) has two shortest paths (via 1 and 3),
    // each carrying half a unit; same for (1,3).
    DynamicGraph g(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    g.add_edge(3, 0);
    const auto scores = exact_betweenness(g);
    for (VertexId v = 0; v < 4; ++v) {
        EXPECT_NEAR(scores[v], 0.5, 1e-9);
    }
}

TEST(ExactBetweenness, WeightsChangeRouting) {
    // Triangle with one heavy edge: traffic between its endpoints detours.
    DynamicGraph g(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, 1.0);
    g.add_edge(0, 2, 10.0);
    const auto scores = exact_betweenness(g);
    EXPECT_NEAR(scores[1], 1.0, 1e-9);  // carries the (0,2) pair
    EXPECT_NEAR(scores[0], 0.0, 1e-9);
    EXPECT_NEAR(scores[2], 0.0, 1e-9);
}

TEST(ExactBetweenness, CliqueIsZero) {
    DynamicGraph g(5);
    for (VertexId u = 0; u < 5; ++u) {
        for (VertexId v = u + 1; v < 5; ++v) {
            g.add_edge(u, v);
        }
    }
    for (const double s : exact_betweenness(g)) {
        EXPECT_NEAR(s, 0.0, 1e-9);
    }
}

TEST(ApproxBetweenness, AllPivotsIsExact) {
    Rng gen_rng(1);
    const auto g = barabasi_albert(60, 2, gen_rng);
    const auto exact = exact_betweenness(g);
    Rng rng(2);
    const auto approx = approx_betweenness(g, 60, rng);
    for (std::size_t v = 0; v < 60; ++v) {
        EXPECT_NEAR(approx[v], exact[v], 1e-9);
    }
}

TEST(ApproxBetweenness, SampledEstimateTracksRanking) {
    Rng gen_rng(3);
    const auto g = barabasi_albert(150, 3, gen_rng);
    const auto exact = exact_betweenness(g);
    Rng rng(4);
    const auto approx = approx_betweenness(g, 50, rng);
    // The top exact vertex should rank near the top of the estimate.
    const auto top_exact = static_cast<std::size_t>(
        std::max_element(exact.begin(), exact.end()) - exact.begin());
    std::size_t better = 0;
    for (std::size_t v = 0; v < approx.size(); ++v) {
        better += approx[v] > approx[top_exact];
    }
    EXPECT_LT(better, 5u);
}

TEST(BetweennessEngine, ExactWhenAllPivotsProcessed) {
    Rng gen_rng(5);
    const auto g = barabasi_albert(80, 2, gen_rng);
    EngineConfig config;
    config.num_ranks = 4;
    config.seed = 6;
    BetweennessEngine engine(g, config);
    engine.initialize();
    while (!engine.exact()) {
        engine.refine(16);
    }
    const auto exact = exact_betweenness(g);
    const auto scores = engine.scores();
    for (std::size_t v = 0; v < 80; ++v) {
        EXPECT_NEAR(scores[v], exact[v], 1e-9);
    }
}

TEST(BetweennessEngine, AnytimeRefinementChargesTime) {
    Rng gen_rng(7);
    const auto g = barabasi_albert(100, 2, gen_rng);
    EngineConfig config;
    config.num_ranks = 4;
    config.seed = 8;
    BetweennessEngine engine(g, config);
    engine.initialize();
    const double t0 = engine.sim_seconds();
    EXPECT_EQ(engine.refine(10), 10u);
    const double t1 = engine.sim_seconds();
    EXPECT_GT(t1, t0);
    EXPECT_EQ(engine.pivots_processed(), 10u);
    EXPECT_FALSE(engine.exact());
    // Refining beyond n caps at n.
    EXPECT_EQ(engine.refine(1000), 90u);
    EXPECT_TRUE(engine.exact());
}

}  // namespace
}  // namespace aa
