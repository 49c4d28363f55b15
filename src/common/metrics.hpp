// MetricsRegistry: the observability layer for the anytime engine.
//
// The paper's whole claim is *anytime* behaviour — solution quality as a
// function of elapsed (simulated) time — so the engine records where that
// time goes as a stream of *spans* on the simulated clock: one span per
// phase (DD, per-rank IA), per RC-step sub-phase (post / exchange / ingest /
// propagate, per rank), and per dynamic-addition event (with its strategy,
// moved-vertex count and new cut edges as attributes). Alongside spans the
// registry keeps plain counters, gauges and fixed-bucket histograms for
// scalar facts (per-rank traffic, exchange payload distributions).
//
// Cost discipline: a registry is *disabled* by default and then performs no
// allocation and no work beyond one branch per call — every register/record
// entry point starts with `if (!enabled_) return kNullHandle;`. Hot kernels
// (the RC relaxation loops) are never instrumented at all; spans wrap whole
// per-rank phase calls, so even an enabled registry adds O(ranks) work per
// RC step, not O(relaxations).
//
// Spans nest (LIFO): `span_open` inside an open span records the parent and
// depth, which the exporters preserve so a timeline viewer can reconstruct
// the tree (e.g. `add` > `repartition.migrate`). Times are whatever clock
// the caller passes — the engine passes simulated seconds; wall-clock
// benches pass host seconds.
//
// Exporters: `metrics_to_json` renders the full registry; `spans_to_csv` /
// `spans_from_csv` are a lossless round-trip for the span stream (the format
// external tooling ingests). The engine-level timeline schema built on top
// of these lives in core/telemetry.hpp.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aa {

/// One closed (or still-open) phase interval on some clock.
struct MetricSpan {
    std::string name;
    /// Rank the span belongs to; -1 = collective / engine-global.
    std::int32_t rank{-1};
    /// RC step the span belongs to; -1 = outside the RC stepping loop.
    std::int64_t step{-1};
    /// Nesting depth at open (0 = top level) and parent span index
    /// (-1 = none): together they encode the span tree.
    std::uint32_t depth{0};
    std::int64_t parent{-1};
    double t_begin{0};
    double t_end{0};
    /// Work accounted to the span (abstract ops, payload traffic).
    double ops{0};
    std::uint64_t bytes{0};
    std::uint64_t messages{0};
    /// Free-form (key, value) annotations, e.g. {"strategy", "CutEdge-PS"}.
    std::vector<std::pair<std::string, std::string>> attrs;

    friend bool operator==(const MetricSpan&, const MetricSpan&) = default;
};

class MetricsRegistry {
public:
    using Handle = std::uint32_t;
    static constexpr Handle kNullHandle = std::numeric_limits<Handle>::max();

    struct CounterValue {
        std::string name;
        std::int32_t rank{-1};
        double value{0};
        bool is_gauge{false};
    };
    struct HistogramValue {
        std::string name;
        /// Upper bounds of the finite buckets; an implicit +inf bucket
        /// follows. counts.size() == bounds.size() + 1.
        std::vector<double> bounds;
        std::vector<std::uint64_t> counts;
        double sum{0};
        std::uint64_t observations{0};
    };

    MetricsRegistry() = default;

    /// Disabled registries ignore every call below without allocating.
    /// Register instruments only after enabling: handles minted while
    /// disabled are kNullHandle and stay inert if the registry is enabled
    /// later.
    void enable() { enabled_ = true; }
    void disable() { enabled_ = false; }
    bool enabled() const { return enabled_; }

    // ---- counters & gauges -------------------------------------------------

    /// Find-or-create a monotonically accumulating counter. `rank` = -1 for
    /// cluster-global counters.
    Handle counter(std::string_view name, std::int32_t rank = -1);
    /// Find-or-create a last-value-wins gauge.
    Handle gauge(std::string_view name, std::int32_t rank = -1);
    void add(Handle h, double delta);
    void set(Handle h, double value);
    double value(Handle h) const;

    // ---- histograms --------------------------------------------------------

    /// Find-or-create (by name) a histogram with the given finite bucket
    /// upper bounds (ascending); values above the last bound land in an
    /// implicit overflow bucket.
    Handle histogram(std::string_view name, std::span<const double> bounds);
    void observe(Handle h, double value);

    // ---- spans -------------------------------------------------------------

    /// Open a span at time `t_begin`. Spans close LIFO (assert-checked).
    Handle span_open(std::string_view name, std::int32_t rank = -1,
                     std::int64_t step = -1, double t_begin = 0);
    /// Accumulate work onto an open span.
    void span_add(Handle h, double ops, std::uint64_t bytes = 0,
                  std::uint64_t messages = 0);
    /// Annotate an open or closed span.
    void span_attr(Handle h, std::string_view key, std::string value);
    void span_close(Handle h, double t_end);
    /// One-shot convenience for spans whose bounds are already known.
    void record_span(MetricSpan span);

    // ---- introspection & lifecycle ----------------------------------------

    const std::vector<MetricSpan>& spans() const { return spans_; }
    std::size_t open_span_count() const { return open_stack_.size(); }
    std::vector<CounterValue> counters() const;
    std::vector<HistogramValue> histograms() const;

    /// Drop all recorded data (instruments and spans); keeps enablement.
    void clear();

private:
    bool enabled_{false};
    std::vector<MetricSpan> spans_;
    std::vector<std::uint32_t> open_stack_;
    std::vector<CounterValue> counters_;
    std::vector<HistogramValue> histograms_;
};

// ---- exporters -------------------------------------------------------------

/// Escape a string for embedding in a JSON string literal (quotes excluded).
std::string json_escape(std::string_view s);

/// Render one span as a JSON object. `indent` spaces prefix every line when
/// `pretty`; single-line otherwise.
std::string span_to_json(const MetricSpan& span);

/// Render a span list as a JSON array (one span per line, `indent` spaces of
/// leading indentation for each element).
std::string spans_to_json(std::span<const MetricSpan> spans, int indent = 2);

/// Full registry dump: {"enabled":..., "spans":[...], "counters":[...],
/// "histograms":[...]}.
std::string metrics_to_json(const MetricsRegistry& m, int indent = 0);

/// The same dump without `enabled` and `spans`: {"counters":[...],
/// "histograms":[...]}. For summaries whose span stream would dwarf them.
std::string instruments_to_json(const MetricsRegistry& m, int indent = 0);

/// CSV with header `name,rank,step,depth,parent,t_begin,t_end,ops,bytes,
/// messages,attrs`; attrs is `k=v;k=v` with %-escaping of the delimiter
/// characters. Lossless: `spans_from_csv(spans_to_csv(s)) == s`.
std::string spans_to_csv(std::span<const MetricSpan> spans);
std::vector<MetricSpan> spans_from_csv(std::string_view csv);

}  // namespace aa
