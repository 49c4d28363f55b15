#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <cstring>
#include <initializer_list>
#include <istream>
#include <iterator>
#include <ostream>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "core/ia.hpp"
#include "core/rc.hpp"
#include "core/strategies.hpp"
#include "runtime/message.hpp"

namespace aa {

namespace {

/// One rank's phase span on the simulated clock, with count attributes.
MetricSpan rank_span(std::string name, RankId r, std::int64_t step,
                     double t_begin, double t_end, double ops,
                     std::initializer_list<std::pair<const char*, std::size_t>> counts) {
    MetricSpan span;
    span.name = std::move(name);
    span.rank = static_cast<std::int32_t>(r);
    span.step = step;
    span.t_begin = t_begin;
    span.t_end = t_end;
    span.ops = ops;
    for (const auto& [key, value] : counts) {
        span.attrs.emplace_back(key, std::to_string(value));
    }
    return span;
}

}  // namespace

AnytimeEngine::AnytimeEngine(DynamicGraph graph, EngineConfig config)
    : graph_(std::move(graph)),
      config_(config),
      cluster_(std::make_unique<Cluster>(config.num_ranks, config.logp,
                                         config.schedule)),
      backend_(make_backend(config.backend, config.num_ranks,
                            config.backend_threads)),
      pool_(std::make_unique<ThreadPool>(config.ia_threads)),
      inline_pool_(std::make_unique<ThreadPool>(1)),
      rng_(config.seed),
      metrics_(std::make_unique<MetricsRegistry>()),
      demand_(std::make_unique<DemandTracker>(graph_.num_vertices())) {
    AA_ASSERT_MSG(config_.num_ranks >= 1, "need at least one rank");
    // Resolve the ingest window once: the host LLC shared by however many
    // ranks ingest concurrently (all of them under a concurrent backend).
    rc_ingest_window_bytes_ = adaptive_rc_ingest_window_bytes(
        backend_->concurrent() ? config_.num_ranks : 1);
    if (config_.enable_metrics) {
        metrics_->enable();
    }
    cluster_->set_metrics(metrics_.get());
}

AnytimeEngine::~AnytimeEngine() = default;

std::size_t AnytimeEngine::num_ranks() const { return cluster_->num_ranks(); }

double AnytimeEngine::sim_seconds() const { return cluster_->max_time(); }

const Cluster& AnytimeEngine::cluster() const { return *cluster_; }
Cluster& AnytimeEngine::cluster() { return *cluster_; }

void AnytimeEngine::set_boundary_hook(std::function<void(AnytimeEngine&)> hook) {
    boundary_hook_ = std::move(hook);
}

void AnytimeEngine::fire_boundary_hook() {
    // Query heat ages once per engine boundary so stale interest fades; the
    // decay skips zero cells, so an idle tracker costs one pass of loads.
    demand_->decay(kDefaultHeatDecay);
    if (metrics_->enabled()) {
        const DemandTracker::Totals totals = demand_->totals();
        metrics_->set(metrics_->gauge("refine.demand.total"), totals.total);
        metrics_->set(metrics_->gauge("refine.demand.max"), totals.max);
        metrics_->set(metrics_->gauge("refine.demand.hot"),
                      static_cast<double>(totals.hot));
    }
    if (boundary_hook_) {
        boundary_hook_(*this);
    }
}

std::vector<std::vector<LocalId>> AnytimeEngine::plan_refine_orders() {
    std::vector<std::vector<LocalId>> plans(ranks_.size());
    if (config_.refine_policy == RefinePolicy::Uniform) {
        return plans;  // contract: empty plans = the historical schedule
    }
    std::vector<double> heat;
    if (!demand_->snapshot(heat)) {
        return plans;  // no demand signal: bit-identical to Uniform
    }
    for (RankId r = 0; r < ranks_.size(); ++r) {
        plans[r] = plan_rank_order(ranks_[r].sg, heat);
    }
    return plans;
}

void AnytimeEngine::refresh_weight_extremes() {
    w_min_ = kInfinity;
    w_max_ = 0;
    for (const Edge& e : graph_.edges()) {
        w_min_ = std::min(w_min_, e.weight);
        w_max_ = std::max(w_max_, e.weight);
    }
}

void AnytimeEngine::note_structural_change() {
    // Every caller has just re-settled its ranks to the local fixpoint (and
    // the deletion cascade only leaves certified-or-invalidated entries), so
    // the wavefront certificate restarts from its intra-rank base case.
    wavefront_k_ = 0;
    refresh_weight_extremes();
    demand_->resize(graph_.num_vertices());
    // Structural changes move rows wholesale (add/swap/extract/replace) and
    // change n, which re-normalizes every closeness score under the
    // corrected variant — so the next take_changed_rows() must answer "all".
    serve_rows_all_changed_ = true;
}

BoundsParams AnytimeEngine::bounds_params() const {
    BoundsParams params;
    params.n = graph_.num_vertices();
    params.variant = config_.closeness_variant;
    params.w_min = w_min_;
    params.w_max = w_max_;
    params.wavefront_k = wavefront_k_;
    params.quiescent = initialized_ && quiescent();
    return params;
}

ClosenessInterval AnytimeEngine::closeness_interval(VertexId v) const {
    AA_ASSERT_MSG(initialized_, "initialize() must run first");
    AA_ASSERT(v < ownership_.num_vertices());
    const RankState& state = ranks_[ownership_.owner(v)];
    return row_closeness_interval(state.store.row(state.sg.local_id(v)), v,
                                  bounds_params());
}

void AnytimeEngine::run_rank_phase(
    const std::function<void(RankId, std::vector<MetricSpan>&)>& fn) {
    // Per-rank span sinks, merged in ascending rank order after the backend's
    // barrier: the registry sees the exact sequence the sequential loop would
    // have produced, regardless of completion order.
    std::vector<std::vector<MetricSpan>> sinks(ranks_.size());
    backend_->run_ranks(ranks_.size(), [&fn, &sinks](RankId r) {
        fn(r, sinks[r]);
    });
    for (std::vector<MetricSpan>& sink : sinks) {
        for (MetricSpan& span : sink) {
            metrics_->record_span(std::move(span));
        }
    }
}

ThreadPool& AnytimeEngine::ia_pool() {
    // An inline pool (no workers) touches no shared state in parallel_for, so
    // concurrent rank closures may each drive it; the shared multi-worker pool
    // may not be entered concurrently.
    return backend_->concurrent() ? *inline_pool_ : *pool_;
}

ThreadPool* AnytimeEngine::kernel_pool() {
    return backend_->concurrent() ? nullptr : pool_.get();
}

double AnytimeEngine::charge_partition_cost(std::size_t vertices, std::size_t edges) {
    // Multilevel partitioning is O((V + E) log V)-ish; the paper runs
    // ParMETIS in parallel across the ranks, so divide by P.
    const double units = static_cast<double>(vertices + edges) *
                         std::log2(static_cast<double>(std::max<std::size_t>(vertices, 2)));
    const double per_rank =
        kPartitionCostFactor * units / static_cast<double>(num_ranks());
    for (RankId r = 0; r < cluster_->num_ranks(); ++r) {
        cluster_->charge_compute(r, per_rank);
    }
    return per_rank * static_cast<double>(num_ranks());
}

void AnytimeEngine::distribute_edge(VertexId u, VertexId v, Weight w) {
    const RankId ru = ownership_.owner(u);
    const RankId rv = ownership_.owner(v);
    ranks_[ru].sg.add_local_edge(u, v, w);
    if (rv != ru) {
        ranks_[rv].sg.add_local_edge(u, v, w);
    }
}

void AnytimeEngine::initialize() {
    AA_ASSERT_MSG(!initialized_, "initialize() called twice");
    initialized_ = true;

    const std::size_t n = graph_.num_vertices();
    const auto num_ranks = cluster_->num_ranks();
    const bool mx = metrics_->enabled();

    // ---- DD: cut-minimizing partition (the paper uses ParMETIS). ----
    const double dd_begin = cluster_->max_time();
    Rng partition_rng = rng_.fork();
    const Partitioning partition =
        multilevel_partition(graph_, num_ranks, partition_rng, config_.partition);
    // The flat assignment becomes the two-level shard map; owner resolution
    // is identical for any shards_per_rank until a shard is migrated.
    ownership_ = ShardOwnership::from_partition(partition.assignment, num_ranks,
                                                config_.shards_per_rank);
    const double dd_ops = charge_partition_cost(n, graph_.num_edges());
    if (mx) {
        MetricSpan span;
        span.name = "dd";
        span.t_begin = dd_begin;
        span.t_end = cluster_->max_time();
        span.ops = dd_ops;
        span.attrs.emplace_back("vertices", std::to_string(n));
        span.attrs.emplace_back("edges", std::to_string(graph_.num_edges()));
        span.attrs.emplace_back("cut_edges", std::to_string(current_cut_edges()));
        metrics_->record_span(std::move(span));
    }

    // Build rank states: sub-graphs, then distance rows in adoption order.
    ranks_.clear();
    ranks_.reserve(num_ranks);
    for (RankId r = 0; r < num_ranks; ++r) {
        RankState state;
        state.sg = LocalSubgraph(r, ownership_);
        state.store = DistanceStore(n);
        for (const VertexId v : state.sg.local_vertices()) {
            state.store.add_row(v);
        }
        ranks_.push_back(std::move(state));
    }
    for (const Edge& e : graph_.edges()) {
        distribute_edge(e.u, e.v, e.weight);
    }

    // ---- IA: per-rank multithreaded SSSP (Dijkstra or delta-stepping). ----
    std::vector<double> ia_ops(num_ranks, 0);
    run_rank_phase([&](RankId r, std::vector<MetricSpan>& sink) {
        IaProfile profile;
        const double ia_begin = cluster_->time(r);
        double ops = 0;
        if (config_.ia_kernel == IaKernel::DeltaStepping) {
            std::vector<LocalId> sources(ranks_[r].sg.num_local());
            std::iota(sources.begin(), sources.end(), 0);
            ops = ia_delta_stepping(ranks_[r].sg, ranks_[r].store, ia_pool(),
                                    sources,
                                    /*mark_prop=*/false, config_.ia_delta,
                                    mx ? &profile : nullptr);
        } else {
            ops = ia_dijkstra_all(ranks_[r].sg, ranks_[r].store, ia_pool(),
                                  mx ? &profile : nullptr);
        }
        cluster_->charge_compute(r, ops, config_.ia_threads);
        ia_ops[r] = ops;
        if (mx) {
            sink.push_back(rank_span("ia", r, -1, ia_begin, cluster_->time(r),
                                     ops, {{"sources", profile.sources},
                                           {"sub_vertices", profile.sub_vertices},
                                           {"folds", profile.folds}}));
        }
    });
    for (RankId r = 0; r < num_ranks; ++r) {
        report_.ia_ops += ia_ops[r];
    }
    cluster_->barrier();
    // IA leaves every intra-rank pair exact: the wavefront certificate's
    // k = 0 base case (see refine/bounds.hpp).
    wavefront_k_ = 0;
    refresh_weight_extremes();
    demand_->resize(n);
    fire_boundary_hook();
}

bool AnytimeEngine::quiescent() const {
    if (cluster_->has_pending_messages()) {
        return false;
    }
    for (const RankState& state : ranks_) {
        if (state.store.any_send_pending() || state.store.any_prop_pending()) {
            return false;
        }
    }
    return true;
}

double AnytimeEngine::ingest_on_rank(RankId r, const std::vector<Message>& inbox,
                                     std::int64_t step,
                                     std::vector<MetricSpan>* sink) {
    RcIngestProfile profile;
    const double t0 = cluster_->time(r);
    const double ops = rc_ingest_updates(
        ranks_[r].sg, ranks_[r].store, inbox, BoundaryWireFormat::V2Soa,
        kernel_pool(), kRcIngestParallelGrain, rc_ingest_window_bytes_,
        sink != nullptr ? &profile : nullptr);
    cluster_->charge_compute(r, ops);
    if (sink != nullptr) {
        sink->push_back(rank_span("rc.ingest", r, step, t0, cluster_->time(r),
                                  ops, {{"blocks", profile.blocks},
                                        {"entries", profile.entries},
                                        {"windows", profile.windows}}));
    }
    return ops;
}

bool AnytimeEngine::rc_step() {
    AA_ASSERT_MSG(initialized_, "initialize() must run before RC steps");
    if (quiescent()) {
        return false;
    }

    RcStepStats stats;
    stats.step = rc_steps_ + 1;
    const std::size_t messages_before = cluster_->stats().total_messages;
    const std::size_t bytes_before = cluster_->stats().total_bytes;
    const bool mx = metrics_->enabled();
    const auto step_no = static_cast<std::int64_t>(rc_steps_ + 1);
    // Snapshot per-rank comm accounting before the step so the exchange span
    // can carry this step's per-rank in/out deltas.
    std::vector<RankStats> comm_before;
    if (mx) {
        comm_before.reserve(ranks_.size());
        for (RankId r = 0; r < ranks_.size(); ++r) {
            comm_before.push_back(cluster_->rank_stats(r));
        }
    }

    // Refine plans for this step: per-rank sweep orders from the query-heat
    // signal (all empty under Uniform / no demand — the kernels then take
    // their historical ascending sweeps, bit-identically).
    // Planned once on the driver thread so both phases below order work
    // consistently.
    const std::vector<std::vector<LocalId>> refine_plans = plan_refine_orders();

    // Phase 1: package & post boundary DV updates. Rank-confined throughout
    // (each closure serializes its own rows and posts from its own outbox).
    std::vector<double> post_ops(ranks_.size(), 0);
    run_rank_phase([&](RankId r, std::vector<MetricSpan>& sink) {
        RcPostProfile profile;
        const double t0 = cluster_->time(r);
        const double ops = rc_post_boundary_updates(
            ranks_[r].sg, ranks_[r].store, *cluster_, mx ? &profile : nullptr,
            refine_plans[r]);
        cluster_->charge_compute(r, ops);
        post_ops[r] = ops;
        if (mx) {
            MetricSpan span = rank_span(
                "rc.post", r, step_no, t0, cluster_->time(r), ops,
                {{"blocks", profile.blocks}, {"entries", profile.entries}});
            span.bytes = profile.bytes;
            span.messages = profile.messages;
            sink.push_back(std::move(span));
        }
    });
    for (RankId r = 0; r < ranks_.size(); ++r) {
        report_.rc_ops += post_ops[r];
        stats.ops += post_ops[r];
    }

    // Phase 2: personalized all-to-all exchange. The collective exchange is
    // a barrier that lands every message in its receiver's inbox; the
    // event-driven one leaves each message on the wire with its own arrival
    // time, senders departing at their own clocks (no entry barrier). Either
    // way each receiver's messages are in canonical order: ascending seq,
    // after any inbox leftovers from collectives outside the RC loop.
    std::vector<std::vector<DeliveryEvent>> in_flight(ranks_.size());
    const char* exchange_span = "rc.exchange";
    double exchange_begin = cluster_->max_time();
    double exchange_end = exchange_begin;
    if (config_.rc_async) {
        exchange_span = "rc.exchange.inflight";
        exchange_begin = cluster_->time(0);
        for (RankId r = 1; r < ranks_.size(); ++r) {
            exchange_begin = std::min(exchange_begin, cluster_->time(r));
        }
        std::vector<DeliveryEvent> deliveries = cluster_->pipelined_exchange();
        exchange_end = exchange_begin;
        std::vector<const DeliveryEvent*> order;
        order.reserve(deliveries.size());
        for (const DeliveryEvent& e : deliveries) {
            exchange_end = std::max(exchange_end, e.time);
            order.push_back(&e);
        }
        std::sort(order.begin(), order.end(),
                  [](const DeliveryEvent* a, const DeliveryEvent* b) {
                      return delivered_before(*a, *b);
                  });
        for (const DeliveryEvent* e : order) {
            delivery_trace_.push_back({stats.step, e->time, e->source,
                                       e->message.to, e->seq,
                                       e->message.size_bytes()});
        }
        stats.exchange_seconds = exchange_end - exchange_begin;
        for (DeliveryEvent& e : deliveries) {
            in_flight[e.message.to].push_back(std::move(e));
        }
    } else {
        stats.exchange_seconds = cluster_->exchange();
        exchange_end = cluster_->max_time();
    }
    if (mx) {
        // Per-rank children share the exchange window; each carries its own
        // rank's sent-side load plus the received side as attributes.
        const auto h =
            metrics_->span_open(exchange_span, -1, step_no, exchange_begin);
        for (RankId r = 0; r < ranks_.size(); ++r) {
            const RankStats& now = cluster_->rank_stats(r);
            MetricSpan span = rank_span(
                "rc.exchange.rank", r, step_no, exchange_begin, exchange_end, 0,
                {{"bytes_in", now.bytes_received - comm_before[r].bytes_received},
                 {"messages_in",
                  now.messages_received - comm_before[r].messages_received}});
            span.bytes = now.bytes_sent - comm_before[r].bytes_sent;
            span.messages = now.messages_sent - comm_before[r].messages_sent;
            metrics_->span_add(h, 0, span.bytes, span.messages);
            metrics_->record_span(std::move(span));
        }
        metrics_->span_close(h, exchange_end);
    }

    // Phase 3: each rank ingests its inbox in canonical order, then
    // propagates to its local fixpoint. A message cannot be touched before
    // it arrives, so the rank advances its clock to the next canonical
    // arrival when that is still in the future, and ingests in one call the
    // longest canonical prefix that has arrived by its clock. After a
    // collective exchange the whole inbox has arrived: one call. Propagate
    // waits for the whole inbox, which keeps every rank's relaxation order
    // identical in both modes (relax() acceptance has an epsilon band, so
    // order matters). The batched kernels run the row sweeps on the IA
    // thread pool when the backend is sequential (kernel_pool()) — that
    // accelerates host wall-clock time only; the simulated clock still
    // prices RC single-threaded per rank (the paper's model), so `threads`
    // stays 1 in charge_compute.
    std::vector<double> phase3_ops(ranks_.size(), 0);
    run_rank_phase([&](RankId r, std::vector<MetricSpan>& sink) {
        std::vector<Message> inbox = cluster_->receive(r);
        std::vector<double> arrival(inbox.size(), cluster_->time(r));
        for (DeliveryEvent& e : in_flight[r]) {
            inbox.push_back(std::move(e.message));
            arrival.push_back(e.time);
        }
        std::vector<Message> arrived;
        std::size_t next = 0;
        do {
            if (next < arrival.size()) {
                cluster_->advance_rank_to(r, arrival[next]);
            }
            std::size_t end = next;
            while (end < arrival.size() && arrival[end] <= cluster_->time(r)) {
                ++end;
            }
            arrived.assign(std::make_move_iterator(inbox.begin() + next),
                           std::make_move_iterator(inbox.begin() + end));
            phase3_ops[r] +=
                ingest_on_rank(r, arrived, step_no, mx ? &sink : nullptr);
            next = end;
        } while (next < inbox.size());

        RcPropagateProfile profile;
        const double t0 = cluster_->time(r);
        const double ops = rc_propagate_local(
            ranks_[r].sg, ranks_[r].store, kernel_pool(),
            kRcPropagateParallelGrain, mx ? &profile : nullptr, refine_plans[r],
            config_.refine_budget_ops);
        cluster_->charge_compute(r, ops);
        phase3_ops[r] += ops;
        if (mx) {
            sink.push_back(rank_span("rc.propagate", r, step_no, t0,
                                     cluster_->time(r), ops,
                                     {{"rows_drained", profile.rows_drained}}));
        }
    });
    for (RankId r = 0; r < ranks_.size(); ++r) {
        report_.rc_ops += phase3_ops[r];
        stats.ops += phase3_ops[r];
    }
    cluster_->barrier();

    ++rc_steps_;
    // Advance the wavefront certificate only for full-fixpoint steps: a
    // budgeted propagate may stop short of the local fixpoint the
    // certificate's induction needs (settled entries stay settled either
    // way, so a stale k is sound, just loose).
    if (config_.refine_budget_ops <= 0) {
        wavefront_k_ = wavefront_k_ < 0 ? 0 : wavefront_k_ + 1;
    }
    report_.rc_steps = rc_steps_;
    report_.sim_seconds = sim_seconds();
    stats.messages = cluster_->stats().total_messages - messages_before;
    stats.bytes = cluster_->stats().total_bytes - bytes_before;
    stats.sim_seconds_after = sim_seconds();
    step_history_.push_back(stats);

    // Feed the migration planner the step's measured per-rank relax load
    // (post + ingest + propagate ops — the same numbers the phase spans
    // record). Observing is free bookkeeping; shards only move when
    // auto_migrate opts in.
    std::vector<double> rank_ops(ranks_.size(), 0);
    for (RankId r = 0; r < ranks_.size(); ++r) {
        rank_ops[r] = post_ops[r] + phase3_ops[r];
    }
    planner_.observe(rank_ops);
    if (mx) {
        metrics_->set(metrics_->gauge("shard.load.imbalance"),
                      planner_.imbalance());
    }
    // Auto-migration needs a warm EWMA: migrate_shards resets the planner, so
    // requiring a few boundaries of fresh observations before the next move
    // keeps the drain work of a migration (itself skewed toward the receiving
    // rank) from re-triggering the planner forever — the drain quiesces in
    // fewer steps than the warmup, so only sustained real load can migrate.
    constexpr std::size_t kAutoMigrateWarmupSteps = 4;
    if (config_.auto_migrate &&
        planner_.observations() >= kAutoMigrateWarmupSteps) {
        const std::vector<ShardMove> moves =
            plan_migration(config_.migrate_max_shards);
        if (!moves.empty()) {
            migrate_shards(moves);
        }
    }
    fire_boundary_hook();
    return true;
}

std::vector<double> AnytimeEngine::shard_static_weights() const {
    std::vector<double> weights(ownership_.num_shards(), 0.0);
    for (const RankState& state : ranks_) {
        for (LocalId l = 0; l < state.sg.num_local(); ++l) {
            weights[ownership_.shard(state.sg.global_id(l))] +=
                1.0 + static_cast<double>(state.sg.neighbors(l).size());
        }
    }
    return weights;
}

std::vector<ShardMove> AnytimeEngine::plan_migration(
    std::uint32_t max_moves) const {
    if (!initialized_) {
        return {};
    }
    return planner_.plan(ownership_, shard_static_weights(), max_moves,
                         config_.migrate_imbalance_threshold);
}

std::size_t AnytimeEngine::run_rc_steps(std::size_t max_steps) {
    std::size_t steps = 0;
    while (steps < max_steps && rc_step()) {
        ++steps;
    }
    return steps;
}

std::size_t AnytimeEngine::run_to_quiescence() {
    return run_rc_steps(std::numeric_limits<std::size_t>::max());
}

void AnytimeEngine::apply_addition(const GrowthBatch& batch,
                                   VertexAdditionStrategy& strategy) {
    AA_ASSERT_MSG(initialized_, "initialize() must run before dynamic updates");
    const bool mx = metrics_->enabled();
    auto h = MetricsRegistry::kNullHandle;
    if (mx) {
        h = metrics_->span_open("add", -1, static_cast<std::int64_t>(rc_steps_),
                                sim_seconds());
        metrics_->span_attr(h, "strategy", std::string(strategy.name()));
        metrics_->span_attr(h, "new_vertices", std::to_string(batch.num_new));
        metrics_->span_attr(h, "batch_edges", std::to_string(batch.edges.size()));
    }
    last_moved_vertices_ = 0;
    strategy.apply(*this, batch);
    report_.vertex_additions += batch.num_new;
    report_.edge_additions += batch.edges.size();
    report_.sim_seconds = sim_seconds();
    if (mx) {
        // Batch edges that ended up spanning ranks under the strategy's
        // placement — the paper's "new cut edges" quality signal (Figure 7).
        std::size_t new_cut = 0;
        for (const Edge& e : batch.edges) {
            if (ownership_.owner(e.u) != ownership_.owner(e.v)) {
                ++new_cut;
            }
        }
        metrics_->span_attr(h, "new_cut_edges", std::to_string(new_cut));
        metrics_->span_attr(h, "moved_vertices",
                            std::to_string(last_moved_vertices_));
        metrics_->span_attr(h, "cut_edges_after",
                            std::to_string(current_cut_edges()));
        metrics_->span_close(h, sim_seconds());
    }
    fire_boundary_hook();
}

std::size_t AnytimeEngine::current_cut_edges() const {
    std::size_t cut = 0;
    for (const Edge& e : graph_.edges()) {
        if (ownership_.owner(e.u) != ownership_.owner(e.v)) {
            ++cut;
        }
    }
    return cut;
}

std::vector<Weight> AnytimeEngine::distance_row(VertexId v) const {
    AA_ASSERT(v < ownership_.num_vertices());
    const RankState& state = ranks_[ownership_.owner(v)];
    const auto row = state.store.row(state.sg.local_id(v));
    return {row.begin(), row.end()};
}

Weight AnytimeEngine::query_distance(VertexId u, VertexId v) {
    AA_ASSERT_MSG(initialized_, "initialize() must run first");
    AA_ASSERT(u < ownership_.num_vertices() && v < ownership_.num_vertices());
    const RankId owner = ownership_.owner(u);
    const RankState& state = ranks_[owner];
    const Weight result = state.store.at(state.sg.local_id(u), v);
    // Price the round trip: an 8-byte request and a 16-byte reply between
    // rank 0 (the query frontend) and the owner, plus the O(1) lookup.
    if (owner != 0) {
        cluster_->send(0, owner, MessageTag::Control, std::vector<std::byte>(8));
        cluster_->send(owner, 0, MessageTag::Control, std::vector<std::byte>(16));
        cluster_->exchange();
        (void)cluster_->receive(0);
        (void)cluster_->receive(owner);
    }
    cluster_->charge_compute(owner, 1);
    return result;
}

std::vector<std::vector<Weight>> AnytimeEngine::full_distance_matrix() const {
    const std::size_t n = graph_.num_vertices();
    std::vector<std::vector<Weight>> matrix(n);
    for (const RankState& state : ranks_) {
        for (LocalId l = 0; l < state.sg.num_local(); ++l) {
            const auto row = state.store.row(l);
            matrix[state.sg.global_id(l)] = {row.begin(), row.end()};
        }
    }
    return matrix;
}

void AnytimeEngine::visit_rows(
    const std::function<void(VertexId, std::span<const Weight>)>& fn) const {
    for (const RankState& state : ranks_) {
        for (LocalId l = 0; l < state.sg.num_local(); ++l) {
            fn(state.sg.global_id(l), state.store.row(l));
        }
    }
}

std::span<const Weight> AnytimeEngine::row_view(VertexId v) const {
    AA_ASSERT(v < ownership_.num_vertices());
    const RankState& state = ranks_[ownership_.owner(v)];
    return state.store.row(state.sg.local_id(v));
}

AnytimeEngine::ChangedRows AnytimeEngine::take_changed_rows() {
    ChangedRows out;
    out.all = serve_rows_all_changed_;
    serve_rows_all_changed_ = false;
    // Drain even on the conservative answer so the stamps restart from a
    // clean epoch for the next interval.
    for (RankState& state : ranks_) {
        state.store.drain_touched([&](VertexId v) { out.rows.push_back(v); });
    }
    if (out.all) {
        out.rows.clear();
        return out;
    }
    // Each vertex lives in exactly one rank's store, but keep the output
    // canonical (ascending, unique) regardless of rank iteration order.
    std::sort(out.rows.begin(), out.rows.end());
    out.rows.erase(std::unique(out.rows.begin(), out.rows.end()),
                   out.rows.end());
    return out;
}

ClosenessScores AnytimeEngine::closeness() const {
    return closeness_from_matrix(full_distance_matrix(), config_.closeness_variant);
}

ClosenessScores AnytimeEngine::compute_closeness_distributed() {
    AA_ASSERT_MSG(initialized_, "initialize() must run first");
    const std::size_t n = graph_.num_vertices();

    // Wire triple: (vertex, closeness score, reachable count). The score is
    // evaluated rank-side through the same closeness_score() expression the
    // observer path uses, so the two agree bit-for-bit.
    struct ScoreEntry {
        VertexId vertex;
        double closeness;
        std::uint64_t reachable;
    };
    static_assert(std::is_trivially_copyable_v<ScoreEntry>);

    ClosenessScores scores;
    scores.closeness.assign(n, 0);
    scores.reachable.assign(n, 0);

    for (RankId r = 0; r < ranks_.size(); ++r) {
        const RankState& state = ranks_[r];
        std::vector<ScoreEntry> entries;
        entries.reserve(state.sg.num_local());
        for (LocalId l = 0; l < state.sg.num_local(); ++l) {
            const auto row = state.store.row(l);
            Weight sum = 0;
            std::uint64_t reached = 0;
            for (const Weight d : row) {
                if (d < kInfinity) {
                    sum += d;
                    ++reached;
                }
            }
            entries.push_back(
                {state.sg.global_id(l),
                 closeness_score(sum, static_cast<std::size_t>(reached), n,
                                 config_.closeness_variant),
                 reached});
        }
        // Each row costs one pass over its n columns.
        cluster_->charge_compute(
            r, static_cast<double>(state.sg.num_local()) * static_cast<double>(n));

        if (r == 0) {
            for (const ScoreEntry& entry : entries) {
                scores.closeness[entry.vertex] = entry.closeness;
                scores.reachable[entry.vertex] = entry.reachable;
            }
        } else {
            Serializer out;
            out.write_span(std::span<const ScoreEntry>(entries));
            cluster_->send(r, 0, MessageTag::Control, out.take());
        }
    }
    cluster_->exchange();
    for (const Message& message : cluster_->receive(0)) {
        Deserializer in(message.bytes());
        for (const ScoreEntry& entry : in.read_vector<ScoreEntry>()) {
            scores.closeness[entry.vertex] = entry.closeness;
            scores.reachable[entry.vertex] = entry.reachable;
        }
        cluster_->charge_compute(0, static_cast<double>(message.bytes().size()) / 16);
    }
    cluster_->barrier();
    return scores;
}

namespace {
constexpr std::uint64_t kCheckpointMagic = 0xAA00C4EC4901DEAD;
}  // namespace

void AnytimeEngine::save_checkpoint(std::ostream& out) const {
    AA_ASSERT_MSG(initialized_, "nothing to checkpoint before initialize()");
    Serializer s;
    s.write(kCheckpointMagic);
    s.write(static_cast<std::uint64_t>(cluster_->num_ranks()));
    s.write(static_cast<std::uint64_t>(graph_.num_vertices()));
    const auto edges = graph_.edges();
    s.write(static_cast<std::uint64_t>(edges.size()));
    for (const Edge& e : edges) {
        s.write(e.u);
        s.write(e.v);
        s.write(e.weight);
    }
    // Ownership travels as the two-level shard tables so a migrated
    // assignment (which no flat from_partition construction reproduces)
    // restores exactly.
    s.write_span(std::span<const ShardId>(ownership_.shard_of()));
    s.write_span(std::span<const RankId>(ownership_.shard_map()));
    s.write(ownership_.shards_per_rank());
    s.write(static_cast<std::uint64_t>(rc_steps_));
    s.write(sim_seconds());
    // Rows in ascending global-vertex order, full width.
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
        const RankState& state = ranks_[ownership_.owner(v)];
        s.write_span(state.store.row(state.sg.local_id(v)));
    }
    const auto buffer = s.take();
    out.write(reinterpret_cast<const char*>(buffer.data()),
              static_cast<std::streamsize>(buffer.size()));
    AA_ASSERT_MSG(out.good(), "checkpoint write failed");
}

AnytimeEngine AnytimeEngine::load_checkpoint(std::istream& in, EngineConfig config) {
    std::vector<std::byte> buffer;
    {
        std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
        buffer.resize(raw.size());
        std::memcpy(buffer.data(), raw.data(), raw.size());
    }
    Deserializer d(buffer);
    AA_ASSERT_MSG(d.read<std::uint64_t>() == kCheckpointMagic,
                  "not an anytime-anywhere checkpoint");
    const auto ranks = static_cast<std::uint32_t>(d.read<std::uint64_t>());
    AA_ASSERT_MSG(ranks == config.num_ranks,
                  "checkpoint was taken with a different rank count");
    const auto n = static_cast<std::size_t>(d.read<std::uint64_t>());
    const auto m = static_cast<std::size_t>(d.read<std::uint64_t>());

    DynamicGraph graph(n);
    for (std::size_t i = 0; i < m; ++i) {
        const auto u = d.read<VertexId>();
        const auto v = d.read<VertexId>();
        const auto w = d.read<Weight>();
        graph.add_edge(u, v, w);
    }
    auto shard_of = d.read_vector<ShardId>();
    AA_ASSERT(shard_of.size() == n);
    auto shard_map = d.read_vector<RankId>();
    const auto shards_per_rank = d.read<std::uint32_t>();
    const auto rc_steps = static_cast<std::size_t>(d.read<std::uint64_t>());
    const auto sim_time = d.read<double>();

    AnytimeEngine engine(std::move(graph), config);
    engine.initialized_ = true;
    engine.rc_steps_ = rc_steps;
    engine.ownership_ = ShardOwnership(std::move(shard_of), std::move(shard_map),
                                       shards_per_rank);

    // Rebuild rank state from the checkpointed ownership (no DD re-run).
    engine.ranks_.clear();
    engine.ranks_.reserve(ranks);
    for (RankId r = 0; r < ranks; ++r) {
        RankState state;
        state.sg = LocalSubgraph(r, engine.ownership_);
        state.store = DistanceStore(n);
        for (const VertexId v : state.sg.local_vertices()) {
            state.store.add_row(v);
        }
        engine.ranks_.push_back(std::move(state));
    }
    for (const Edge& e : engine.graph_.edges()) {
        engine.distribute_edge(e.u, e.v, e.weight);
    }
    for (VertexId v = 0; v < n; ++v) {
        auto values = d.read_vector<Weight>();
        AA_ASSERT(values.size() == n);
        RankState& state = engine.ranks_[engine.ownership_.owner(v)];
        state.store.install_row(state.sg.local_id(v), std::move(values));
    }
    AA_ASSERT_MSG(d.exhausted(), "trailing bytes in checkpoint");
    // The wavefront certificate is not checkpointed: after a restore only
    // the (exact) diagonal is trusted until one full RC step re-establishes
    // the intra-rank base case.
    engine.wavefront_k_ = -1;
    engine.refresh_weight_extremes();
    engine.demand_->resize(n);

    // Pending worklist marks are not checkpointed; re-establish consistency
    // conservatively (one full sweep, like Repartition-S after migration).
    for (RankId r = 0; r < ranks; ++r) {
        RankState& state = engine.ranks_[r];
        for (LocalId l = 0; l < state.sg.num_local(); ++l) {
            state.store.mark_row_for_prop(l);
            if (state.sg.is_boundary(l)) {
                state.store.mark_row_for_send(l);
            }
        }
    }
    engine.cluster_->fast_forward(sim_time);
    return engine;
}

}  // namespace aa
