// ExecutionBackend: who runs the per-rank phase bodies.
//
// The paper's RC loop is embarrassingly rank-parallel — between collectives,
// each simulated processor only touches its own sub-graph, its own
// DistanceStore rows, its own clock and its own outbox. The engine therefore
// expresses every per-rank phase (IA Dijkstra, RC post/ingest/propagate,
// addition extend/propagate, repartition seeding and re-marking) as a closure
// over one rank's state and hands the *execution* of those closures to a
// pluggable backend:
//
//   * SequentialBackend — ascending rank order on the calling thread. This is
//     the historical behavior and the default; results, telemetry span order
//     and simulated-time pricing are bit-identical to the pre-backend engine.
//   * ThreadedBackend — the closures run concurrently on a private worker
//     pool (thread-per-rank when sized by the engine default), so real cores
//     execute ranks in parallel between the collectives, exactly like the
//     OpenMP/MPI deployment the paper measures.
//
// Determinism contract: for a fixed seed and config, closeness output and
// sim_seconds() are bit-identical across backends and thread schedules. The
// engine earns that by construction —
//   * rank closures only mutate rank-confined state (see the concurrency
//     contracts on Cluster, MailboxSystem and DistanceStore), so no
//     interleaving can change any rank's values;
//   * floating-point accumulations across ranks (report ops, step stats) are
//     reduced from per-rank slots in ascending rank order after the barrier,
//     never in completion order;
//   * telemetry spans are buffered per rank inside the closure and merged in
//     rank order at the barrier (MetricsRegistry is single-writer);
//   * simulated-time pricing is per-rank clock arithmetic, unaffected by who
//     advances the clock or when.
// tests/test_backend.cpp enforces the contract property-style over graphs ×
// P × schedules × backends, including mid-RC addition batches.
//
// run_ranks() is a barrier: it returns only after every closure has finished,
// with all their writes visible to the caller (the driver thread). Collective
// operations (exchange, broadcast, barrier, stats reads) stay on the driver
// thread between run_ranks() calls. The event-driven RC exchange keeps the
// same shape: pipelined_exchange() and the delivery trace run on the driver
// thread; each rank then ingests its own arrivals inside the rank phase,
// touching only its own clock, so the trace and every result are identical
// across backends and across repeated threaded runs.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string_view>

#include "common/types.hpp"
#include "runtime/thread_pool.hpp"

namespace aa {

/// Backend selector carried by EngineConfig and the tools' --backend flag.
enum class BackendKind {
    Sequential,  // "seq": rank loops on the driver thread (default)
    Threaded,    // "threaded": one worker per rank between collectives
};

/// Canonical flag spelling ("seq" / "threaded").
std::string_view backend_kind_name(BackendKind kind);

/// Parse a --backend flag value. Returns false (leaving `kind` untouched) for
/// anything but the canonical spellings.
bool parse_backend_kind(std::string_view name, BackendKind& kind);

class ExecutionBackend {
public:
    virtual ~ExecutionBackend() = default;

    /// Canonical name (matches backend_kind_name of the kind that made it).
    virtual std::string_view name() const = 0;

    /// True when run_ranks may execute closures concurrently. The engine uses
    /// this to keep the shared intra-rank ThreadPool out of the kernels in
    /// concurrent mode (each rank then runs its kernels on its own worker;
    /// pricing is unaffected — see AnytimeEngine::ia_pool()).
    virtual bool concurrent() const = 0;

    /// Execute fn(r) once for every rank r in [0, num_ranks) and return when
    /// all of them completed (barrier semantics: every write a closure made
    /// happens-before the return). fn must confine itself to rank-r state
    /// plus the rank-confined Cluster/MailboxSystem entry points
    /// (charge_compute / send / receive of its own rank) and must not throw.
    virtual void run_ranks(std::size_t num_ranks,
                           const std::function<void(RankId)>& fn) = 0;
};

/// Ascending rank order on the calling thread — the reference execution.
class SequentialBackend final : public ExecutionBackend {
public:
    std::string_view name() const override { return "seq"; }
    bool concurrent() const override { return false; }
    void run_ranks(std::size_t num_ranks,
                   const std::function<void(RankId)>& fn) override;
};

/// Concurrent execution on a private pool. `workers` worker threads plus the
/// calling thread execute the rank closures; the factory sizes it at P
/// workers by default so every rank gets its own executor (thread-per-rank).
/// With fewer workers than ranks, contiguous rank ranges share an executor —
/// still concurrent across ranges, still deterministic by contract.
/// `workers <= 1` degenerates to inline (sequential) execution — correct,
/// just without parallelism, the expected situation on a single-core host.
class ThreadedBackend final : public ExecutionBackend {
public:
    explicit ThreadedBackend(std::size_t workers);

    std::string_view name() const override { return "threaded"; }
    bool concurrent() const override { return true; }
    void run_ranks(std::size_t num_ranks,
                   const std::function<void(RankId)>& fn) override;

private:
    ThreadPool pool_;
};

/// Factory keyed by EngineConfig: `workers` only applies to Threaded (0 picks
/// num_ranks, i.e. thread-per-rank).
std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind,
                                               std::size_t num_ranks,
                                               std::size_t workers = 0);

}  // namespace aa
