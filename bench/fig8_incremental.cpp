// Figure 8 reproduction: incremental vertex additions — the batch is spread
// over 10 RC steps (the paper's 51/187/383/561 additions per step,
// cumulative 512/1873/3830/5611 on a 50k host), comparing baseline restart
// with the three strategies.
//
// Expected shape (paper §V.B.3): restart is far above everything (it reruns
// from scratch ten times); RoundRobin-PS and CutEdge-PS win at small
// per-step batches; Repartition-S catches up and wins at the largest.
#include <cstdio>

#include "core/baseline.hpp"
#include "core/strategies.hpp"
#include "harness.hpp"

namespace {

constexpr std::size_t kSteps = 10;

/// Incremental scenario: at each of 10 RC steps, add `per_step` vertices with
/// `strategy`, then converge fully at the end. Returns simulated seconds.
double incremental_run(const aa::DynamicGraph& host, const aa::EngineConfig& config,
                       std::size_t per_step, aa::VertexAdditionStrategy& strategy,
                       std::uint64_t seed,
                       aa::bench::JsonReport* report = nullptr,
                       const std::string& label = "") {
    aa::AnytimeEngine engine(host, config);
    engine.initialize();
    std::size_t host_size = host.num_vertices();
    for (std::size_t step = 0; step < kSteps; ++step) {
        const auto batch = aa::bench::make_batch(host_size, per_step, seed + step);
        engine.apply_addition(batch, strategy);
        host_size += per_step;
        engine.rc_step();  // one refinement step between updates
    }
    engine.run_to_quiescence();
    if (report != nullptr) {
        report->add_timeline(label, engine);
    }
    return engine.sim_seconds();
}

/// Baseline: every update forces a from-scratch recomputation of the grown
/// graph (ten restarts).
double restart_run(const aa::DynamicGraph& host, const aa::EngineConfig& config,
                   std::size_t per_step, std::uint64_t seed) {
    double total = 0;
    aa::DynamicGraph current = host;
    for (std::size_t step = 0; step < kSteps; ++step) {
        const auto batch =
            aa::bench::make_batch(current.num_vertices(), per_step, seed + step);
        current = aa::apply_batch(current, batch);
        total += aa::static_run(current, config).sim_seconds;
    }
    return total;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace aa;
    using namespace aa::bench;

    const Options options = parse_options(
        argc, argv, "fig8: incremental additions over 10 RC steps");
    const EngineConfig config = engine_config(options);
    const DynamicGraph host = make_host_graph(options);

    std::printf("Figure 8: incremental additions (10 steps) on a %zu-vertex graph, "
                "%u ranks\n\n",
                host.num_vertices(), options.ranks);

    JsonReport report = make_report("fig8_incremental", options);
    const auto step_sizes = figure8_step_sizes(options);
    Table table({"per_step(cumulative)", "baseline_restart_s", "repartition_s",
                 "roundrobin_ps_s", "cutedge_ps_s"});
    for (const std::size_t per_step : step_sizes) {
        RepartitionS repartition;
        RoundRobinPS round_robin;
        CutEdgePS cut_edge(options.seed * 5 + 3);
        const std::string label =
            std::to_string(per_step) + "(" + std::to_string(per_step * kSteps) + ")";
        JsonReport* rp = per_step == step_sizes.back() ? &report : nullptr;
        std::string tag = "@";  // appended, not `"@" + ...`: gcc 12 -Wrestrict
        tag += std::to_string(per_step);
        table.add_row(
            {label,
             fmt_seconds(restart_run(host, config, per_step, options.seed)),
             fmt_seconds(incremental_run(host, config, per_step, repartition,
                                         options.seed, rp, "repartition" + tag)),
             fmt_seconds(incremental_run(host, config, per_step, round_robin,
                                         options.seed, rp, "roundrobin_ps" + tag)),
             fmt_seconds(incremental_run(host, config, per_step, cut_edge,
                                         options.seed, rp, "cutedge_ps" + tag))});
    }
    table.print();
    table.write_csv(options.csv);
    report.set_table(table);
    report.write();
    return 0;
}
