// Figure 7 reproduction: number of NEW cut-edges created by each strategy as
// a function of the batch size (same batches as Figures 5/6).
//
// Expected shape (paper §V.B.2): RoundRobin-PS creates the most new
// cut-edges (it scatters each community across all ranks); CutEdge-PS
// noticeably fewer (it keeps batch communities together and anchors them to
// affine ranks); Repartition-S the fewest (it may even lower the total cut
// by repartitioning the old vertices too). The gaps grow with the batch.
#include <cstdio>

#include "core/strategies.hpp"
#include "harness.hpp"

namespace {

/// New cut-edges introduced by applying `batch` with `strategy` right after
/// static convergence (counted as the change in total cut, floored at 0 —
/// Repartition-S can make the total cut smaller than before the batch).
long long new_cut_edges(const aa::DynamicGraph& host, const aa::EngineConfig& config,
                        const aa::GrowthBatch& batch,
                        aa::VertexAdditionStrategy& strategy,
                        aa::bench::JsonReport* report = nullptr,
                        const std::string& label = "") {
    aa::AnytimeEngine engine(host, config);
    engine.initialize();
    engine.run_to_quiescence();
    const auto before = static_cast<long long>(engine.current_cut_edges());
    engine.apply_addition(batch, strategy);
    if (report != nullptr) {
        // The "add" span in the timeline carries new_cut_edges itself.
        report->add_timeline(label, engine);
    }
    return static_cast<long long>(engine.current_cut_edges()) - before;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace aa;
    using namespace aa::bench;

    const Options options =
        parse_options(argc, argv, "fig7: new cut-edges per strategy");
    const EngineConfig config = engine_config(options);
    const DynamicGraph host = make_host_graph(options);

    std::printf("Figure 7: new cut-edges on a %zu-vertex graph, %u ranks\n"
                "(negative = repartitioning lowered the total cut)\n\n",
                host.num_vertices(), options.ranks);

    JsonReport report = make_report("fig7_new_cut_edges", options);
    const auto batch_sizes = figure5_batch_sizes(options);
    Table table({"batch", "repartition_s", "cutedge_ps", "roundrobin_ps"});
    for (const std::size_t batch_size : batch_sizes) {
        const GrowthBatch batch =
            make_batch(host.num_vertices(), batch_size, options.seed + batch_size);
        RepartitionS repartition;
        CutEdgePS cut_edge(options.seed * 3 + 1);
        RoundRobinPS round_robin;
        JsonReport* rp = batch_size == batch_sizes.back() ? &report : nullptr;
        std::string tag = "@";  // appended, not `"@" + ...`: gcc 12 -Wrestrict
        tag += std::to_string(batch_size);
        table.add_row(
            {std::to_string(batch_size),
             std::to_string(new_cut_edges(host, config, batch, repartition, rp,
                                          "repartition" + tag)),
             std::to_string(new_cut_edges(host, config, batch, cut_edge, rp,
                                          "cutedge_ps" + tag)),
             std::to_string(new_cut_edges(host, config, batch, round_robin, rp,
                                          "roundrobin_ps" + tag))});
    }
    table.print();
    table.write_csv(options.csv);
    report.set_table(table);
    report.write();
    return 0;
}
