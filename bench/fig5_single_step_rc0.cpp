// Figure 5 reproduction: RoundRobin-PS vs CutEdge-PS vs Repartition-S for a
// single community-structured batch (1%..12% of the host, the paper's
// 500..6000 of 50,000) injected at RC0 (start of the analysis).
//
// Expected shape (paper §V.B.2): RoundRobin-PS and CutEdge-PS win for small
// batches (low fixed overhead); the dynamic-update cost grows with the batch
// until Repartition-S — whose repartition+migration cost is roughly flat —
// crosses below them.
#include <cstdio>

#include "core/strategies.hpp"
#include "harness.hpp"

namespace {

/// Simulated completion time of: initialize, progress to `inject_step`,
/// apply `batch` with `strategy`, converge. When `report` is non-null the
/// run's timeline is recorded under `label`.
double run_scenario(const aa::DynamicGraph& host, const aa::EngineConfig& config,
                    std::size_t inject_step, const aa::GrowthBatch& batch,
                    aa::VertexAdditionStrategy& strategy,
                    aa::bench::JsonReport* report = nullptr,
                    const std::string& label = "") {
    aa::AnytimeEngine engine(host, config);
    engine.initialize();
    engine.run_rc_steps(inject_step);
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();
    if (report != nullptr) {
        report->add_timeline(label, engine);
    }
    return engine.sim_seconds();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace aa;
    using namespace aa::bench;

    const Options options = parse_options(
        argc, argv, "fig5: strategy comparison, single batch at RC0");
    const EngineConfig config = engine_config(options);
    const DynamicGraph host = make_host_graph(options);

    std::printf("Figure 5: vertex additions at RC0 on a %zu-vertex graph, %u ranks\n\n",
                host.num_vertices(), options.ranks);

    JsonReport report = make_report("fig5_single_step_rc0", options);
    const auto batch_sizes = figure5_batch_sizes(options);
    Table table({"batch", "repartition_s", "cutedge_ps_s", "roundrobin_ps_s"});
    for (const std::size_t batch_size : batch_sizes) {
        const GrowthBatch batch =
            make_batch(host.num_vertices(), batch_size, options.seed + batch_size);
        RepartitionS repartition;
        CutEdgePS cut_edge(options.seed * 3 + 1);
        RoundRobinPS round_robin;
        // One timeline per strategy, at the sweep's largest batch.
        JsonReport* rp = batch_size == batch_sizes.back() ? &report : nullptr;
        std::string tag = "@";  // appended, not `"@" + ...`: gcc 12 -Wrestrict
        tag += std::to_string(batch_size);
        table.add_row({std::to_string(batch_size),
                       fmt_seconds(run_scenario(host, config, 0, batch, repartition,
                                                rp, "repartition" + tag)),
                       fmt_seconds(run_scenario(host, config, 0, batch, cut_edge,
                                                rp, "cutedge_ps" + tag)),
                       fmt_seconds(run_scenario(host, config, 0, batch, round_robin,
                                                rp, "roundrobin_ps" + tag))});
    }
    table.print();
    table.write_csv(options.csv);
    report.set_table(table);
    report.write();
    return 0;
}
