// Engine benchmark entry point. One run = one workload at one seed:
//
//   perfbench --workload churn|serve --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--commit ID] [--source-digest HEX]
//
// An untraced run (--trace 0) times the end-to-end metrics over three
// independent passes, each a fresh engine, its set-up and a script of a third
// of --seconds drawn from its own stream: set-up time is the median over the
// passes, script wall and sim time are totals, round latencies pool the
// rounds of all passes. Script and round times are also reported relative to
// the host-speed probe (probe.hpp) run between the rounds of the same pass;
// these relative figures, not the raw wall times, are the gated end-to-end
// metrics, because on a shared host the raw times of runs of the same code
// spread by up to a third while the ratios keep within a few percent. A
// traced run (--trace 1) makes one untraced and one traced pass of the same
// script, the latter with a span around every public engine call, and
// reports the per-layer metrics. The correctness gate follows every pass of
// an untraced run and the traced pass of a traced run (whose untraced pass
// must agree with it): the converged closeness must equal, bit for bit, a
// from-scratch engine on the final graph (and, on serve, the last published
// snapshot). On any failed check the run exits nonzero without printing a
// result. The last line of standard output is the JSON result object.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

/// Untraced runs measure this many independent passes (set-up + script).
constexpr std::size_t kPasses = 3;

/// The metric lists of BENCHMARK.json, in its order.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "wall_rel", "sim_s", "update_rel_p50", "update_rel_tail", "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "partition.dd_s", "partition.cut_edges", "core.initialize_s", "ia.ops",
    "rc.steps", "rc.step_p50_s", "rc.step_total_s", "rc.ops", "rc.ops_per_s",
    "rc.post_sim_s", "rc.ingest_sim_s", "rc.propagate_sim_s", "rc.post_s",
    "rc.ingest_s", "rc.propagate_s",
    "runtime.messages", "runtime.bytes", "runtime.exchange_sim_s",
    "runtime.exchange_s", "runtime.delivery_events", "runtime.rank_skew",
    "runtime.backend_speedup",
    "add.roundrobin_s", "add.cutedge_s", "add.repartition_s", "add.dynamic_ops",
    "add.moved_vertices", "add.steps_to_exact",
    "delete.apply_s", "delete.add_edges_s", "delete.seed_suspects",
    "delete.invalidated_entries", "delete.cascade_rounds",
    "delete.changed_per_invalidated", "delete.restart_s",
    "shard.migrations", "shard.migrated_rows", "shard.imbalance",
    "refine.demand_hot",
    "serve.publish_p50_s", "serve.publish_total_s", "serve.delta_frac",
    "serve.rows_scanned", "serve.published_bytes", "serve.chunks_copied",
    "serve.point_p50_s", "serve.point_tail_s", "serve.point_samples",
    "serve.batch_p50_s", "serve.batch_tail_s", "serve.batch_samples",
    "serve.topk_p50_s", "serve.topk_tail_s", "serve.topk_samples",
    "serve.wait_p50_s", "serve.wait_tail_s", "serve.wait_samples",
    "serve.topk_patched", "serve.shed",
    "serve.reads_per_s", "serve.read_p50_s", "serve.read_tail_s",
    "serve.staleness_p50_s",
    "self.rc_step_s", "self.add_s", "self.delete_s", "self.publish_s",
    "self.round_s", "bench.other_s", "bench.trace_overhead"};

struct Options {
    Workload workload{Workload::Churn};
    std::uint64_t seed{0};
    double seconds{0};
    bool trace{false};
    std::string out_dir{".bench_build/traces"};
    std::string commit{"unknown"};
    std::string source_digest{"unknown"};
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload churn|serve "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] [--commit ID] "
                 "[--source-digest HEX]\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options opt;
    bool have_workload = false;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + flag).c_str());
        }
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            have_workload = true;
            if (value == "churn") {
                opt.workload = Workload::Churn;
            } else if (value == "serve") {
                opt.workload = Workload::Serve;
            } else {
                usage(("unknown workload " + value).c_str());
            }
        } else if (flag == "--seed") {
            have_seed = true;
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            have_seconds = true;
            opt.seconds = std::strtod(value.c_str(), &end);
            if (!(opt.seconds > 0)) {
                usage("--seconds must be positive");
            }
        } else if (flag == "--trace") {
            have_trace = true;
            if (value != "0" && value != "1") {
                usage("--trace takes 0 or 1");
            }
            opt.trace = value == "1";
        } else if (flag == "--out-dir") {
            opt.out_dir = value;
        } else if (flag == "--commit") {
            opt.commit = value;
        } else if (flag == "--source-digest") {
            opt.source_digest = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0') {
            usage(("bad number for " + flag).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
        usage("--workload, --seed, --seconds and --trace are required");
    }
    return opt;
}

std::size_t usable_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return static_cast<std::size_t>(CPU_COUNT(&set));
    }
    return static_cast<std::size_t>(sysconf(_SC_NPROCESSORS_ONLN));
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[noreturn]] void fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
    std::exit(1);
}

/// Script seed of pass `i` of a run: pass 0 uses the run's seed (the traced
/// run's passes are pass 0), later passes their own streams.
std::uint64_t pass_seed(std::uint64_t seed, std::size_t i) {
    return seed ^ (0x9E3779B97F4A7C15ull * i);
}

/// From-scratch engine on the final graph: the oracle of the correctness
/// gate. Returns its set-up wall seconds.
double check_against_restart(const WorkloadSpec& spec, const PassResult& pass) {
    Tracer off(false);
    std::unique_ptr<aa::AnytimeEngine> oracle;
    const double restart_s = set_up(oracle, pass.final_graph, spec.config, off);
    const std::uint64_t want = closeness_checksum(oracle->closeness());
    if (pass.checksum != want) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "closeness checksum %016llx != from-scratch %016llx",
                      static_cast<unsigned long long>(pass.checksum),
                      static_cast<unsigned long long>(want));
        fail(buf);
    }
    if (spec.kind == Workload::Serve && pass.snapshot_checksum != want) {
        fail("last published snapshot disagrees with the converged engine");
    }
    if (pass.failed_rounds > 0 && pass.failed_rounds == pass.rounds) {
        fail("no round reached quiescence");
    }
    if (!pass.shapes_sampled) {
        fail("a read shape was issued without a latency sample");
    }
    return restart_s;
}

void add_read_metrics(Results& r, const std::string& prefix, const PassResult& pass) {
    const Summary lat = pass.read_latency.summary();
    r.add(prefix + "reads_per_s",
          pass.wall_s > 0 ? static_cast<double>(pass.reads) / pass.wall_s : 0, "1/s");
    r.add(prefix + "read_p50_s", lat.p50, "s");
    r.add(prefix + "read_tail_s", lat.tail, "s");
    r.add(prefix + "read_tail_pct", lat.tail_pct, "percentile");
    r.add(prefix + "read_samples", static_cast<double>(lat.count), "count");
    r.add(prefix + "staleness_p50_s", pass.staleness.quantile(0.5), "s");
}

int run(const Options& opt) {
    const WorkloadSpec spec = make_spec(opt.workload, opt.seed, opt.seconds / kPasses);
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t cpus = usable_cpus();
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", spec.name.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
    std::printf("host: nproc=%zu hardware_concurrency=%u l3_bytes=%ld compiler=\"%s\" "
                "build_type=%s flags=\"%s\" commit=%s source_digest=%s\n",
                cpus, hw, sysconf(_SC_LEVEL3_CACHE_SIZE), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, opt.commit.c_str(),
                opt.source_digest.c_str());
    std::printf("workload: n=%zu ranks=%u backend=%s rounds_per_pass=%zu readers=%zu "
                "working_threads=%zu\n",
                spec.host_vertices, spec.config.num_ranks,
                spec.config.backend == aa::BackendKind::Threaded ? "threaded" : "seq",
                spec.rounds, spec.readers, spec.working_threads);
    if (hw == 0 || spec.working_threads > hw || spec.working_threads > cpus) {
        fail("workload would run more working threads than the host has");
    }
    std::fflush(stdout);

    const aa::DynamicGraph host = make_host(spec, opt.seed);
    Results results;
    PassResult pass;
    std::uint64_t rounds = 0;
    std::uint64_t failed_rounds = 0;
    // Reads of every pass, pooled (serve).
    PassResult reads;
    const auto count = [&](const PassResult& p) {
        rounds += p.rounds;
        failed_rounds += p.failed_rounds;
        reads.reads += p.reads;
        reads.failed_reads += p.failed_reads;
        reads.wall_s += p.wall_s;
        reads.read_latency.merge(p.read_latency);
        reads.staleness.merge(p.staleness);
    };
    if (!opt.trace) {
        // Independent passes on fresh engines, each with its own script, so
        // a run samples three times as many distinct rounds as one pass holds.
        // Set-up time is the median over passes, so a stall on a shared host
        // moves one set-up, not the result.
        Tracer off(false);
        std::vector<double> setups;
        std::vector<double> updates;
        std::vector<double> update_rels;
        std::vector<double> probes;
        double wall = 0;
        double wall_rel = 0;
        double sim = 0;
        for (std::size_t i = 0; i < kPasses; ++i) {
            pass = run_pass(spec, host, pass_seed(opt.seed, i), off, nullptr);
            count(pass);
            check_against_restart(spec, pass);
            setups.push_back(pass.setup_s);
            wall += pass.wall_s;
            wall_rel += pass.wall_s / pass.probe_p50_s;
            sim += pass.sim_s;
            updates.insert(updates.end(), pass.update_s.begin(), pass.update_s.end());
            for (const double u : pass.update_s) {
                update_rels.push_back(u / pass.probe_p50_s);
            }
            probes.push_back(pass.probe_p50_s);
        }
        results.add("setup_s", median(setups), "s");
        results.add("wall_s", wall, "s");
        results.add("wall_rel", wall_rel, "x");
        results.add("sim_s", sim, "s");
        results.add_summary("update", summarize(updates));
        const Summary rel = summarize(update_rels);
        results.add("update_rel_p50", rel.p50, "x");
        results.add("update_rel_tail", rel.tail, "x");
        results.add("probe_p50_s", median(probes), "s");
        results.add("passes", static_cast<double>(kPasses), "count");
        results.add("peak_rss_mb", peak_rss_mb(), "MB");
        if (spec.kind == Workload::Serve) {
            add_read_metrics(results, "", reads);
        }
    } else {
        // Untraced pass first: the trace-overhead base and the set-up state
        // the side layers are checked against.
        Tracer off(false);
        SetupFacts facts;
        const PassResult plain = run_pass(spec, host, opt.seed, off, nullptr, &facts);
        count(plain);
        Tracer tracer(true);
        pass = run_pass(spec, host, opt.seed, tracer, &results);
        count(pass);
        if (spec.kind == Workload::Churn && pass.sim_s != plain.sim_s) {
            fail("traced and untraced passes disagree on sim_s");
        }
        if (pass.script_checksum != plain.script_checksum) {
            fail("traced and untraced passes converged to different closeness");
        }
        results.add("delete.restart_s", check_against_restart(spec, pass), "s");
        if (!measure_side_layers(spec, host, facts, results)) {
            fail("side-layer cross-check");
        }
        add_read_metrics(results, "serve.", pass);
        const auto self = tracer.self_times();
        const auto self_of = [&self](const std::string& name) {
            const auto it = self.find(name);
            return it == self.end() ? 0.0 : it->second;
        };
        results.add("self.rc_step_s", self_of("rc_step"), "s");
        results.add("self.add_s",
                    self_of("add.roundrobin") + self_of("add.cutedge") +
                        self_of("add.repartition"),
                    "s");
        results.add("self.delete_s", self_of("apply_deletion") + self_of("add_edges"), "s");
        results.add("self.publish_s", self_of("publish"), "s");
        results.add("self.round_s", self_of("round"), "s");
        results.add("bench.other_s", self_of("script"), "s");
        results.add("bench.trace_overhead", pass.wall_s / plain.wall_s, "x");
        std::printf("self time by span (s):");
        for (const auto& [name, t] : self) {
            std::printf(" %s=%.6f", name.c_str(), t);
        }
        std::printf("\n");
        std::error_code ec;
        std::filesystem::create_directories(opt.out_dir, ec);
        const std::string path = opt.out_dir + "/" + spec.name + "-seed" +
                                 std::to_string(opt.seed) + ".spans.json";
        if (ec || !tracer.write_json(path)) {
            fail("cannot write " + path);
        }
        std::printf("spans: %zu written to %s\n", tracer.spans().size(), path.c_str());
    }

    const std::uint64_t attempted = rounds + reads.reads;
    const std::uint64_t failed = failed_rounds + reads.failed_reads;
    std::printf("failed_frac = %.9g (%llu failed of %llu attempted: %llu rounds, %llu reads)\n",
                static_cast<double>(failed) / static_cast<double>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(reads.reads));
    results.print_lines();
    const std::vector<std::string>& keep = opt.trace ? kPerLayer : kEndToEnd;
    for (const std::string& name : keep) {
        if (!results.has(name) || !std::isfinite(results.get(name))) {
            fail("metric " + name + " missing or not finite");
        }
    }
    std::printf("%s\n", results.final_json(true, attempted, failed, keep).c_str());
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    return perfbench::run(perfbench::parse(argc, argv));
}
