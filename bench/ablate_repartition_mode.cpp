// Ablation E (extension beyond the paper): Repartition-S's partitioner.
// The paper repartitions the grown graph from scratch ("we reused the
// algorithm from the DD phase"); adaptive repartitioning (ParMETIS
// AdaptiveRepart style) refines the existing assignment instead, moving far
// fewer vertices and therefore migrating far fewer DV rows. This harness
// quantifies the trade: completion time vs. resulting cut quality, across
// the Figure 6 batch sweep.
#include <cstdio>

#include "core/strategies.hpp"
#include "harness.hpp"

namespace {

struct Outcome {
    double seconds;
    std::size_t cut_edges;
};

Outcome run(const aa::DynamicGraph& host, aa::EngineConfig config,
            aa::RepartitionMode mode, const aa::GrowthBatch& batch,
            aa::bench::JsonReport* report = nullptr,
            const std::string& label = "") {
    config.repartition_mode = mode;
    aa::AnytimeEngine engine(host, config);
    engine.initialize();
    engine.run_rc_steps(8);
    aa::RepartitionS strategy;
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();
    if (report != nullptr) {
        report->add_timeline(label, engine);
    }
    return {engine.sim_seconds(), engine.current_cut_edges()};
}

}  // namespace

int main(int argc, char** argv) {
    using namespace aa;
    using namespace aa::bench;

    const Options options = parse_options(
        argc, argv, "ablation: scratch vs adaptive repartitioning");
    const EngineConfig config = engine_config(options);
    const DynamicGraph host = make_host_graph(options);

    std::printf("Ablation E: Repartition-S scratch vs adaptive, %zu-vertex graph, "
                "%u ranks, batch at RC8\n\n",
                host.num_vertices(), options.ranks);

    JsonReport report = make_report("ablate_repartition_mode", options);
    const auto batch_sizes = figure5_batch_sizes(options);
    Table table({"batch", "scratch_s", "scratch_cut", "adaptive_s", "adaptive_cut"});
    for (const std::size_t batch_size : batch_sizes) {
        const GrowthBatch batch =
            make_batch(host.num_vertices(), batch_size, options.seed + batch_size);
        JsonReport* rp = batch_size == batch_sizes.back() ? &report : nullptr;
        std::string tag = "@";  // appended, not `"@" + ...`: gcc 12 -Wrestrict
        tag += std::to_string(batch_size);
        const Outcome scratch = run(host, config, RepartitionMode::Scratch, batch,
                                    rp, "scratch" + tag);
        const Outcome adaptive = run(host, config, RepartitionMode::Adaptive, batch,
                                     rp, "adaptive" + tag);
        table.add_row({std::to_string(batch_size), fmt_seconds(scratch.seconds),
                       std::to_string(scratch.cut_edges),
                       fmt_seconds(adaptive.seconds),
                       std::to_string(adaptive.cut_edges)});
    }
    table.print();
    table.write_csv(options.csv);
    report.set_table(table);
    report.write();
    return 0;
}
