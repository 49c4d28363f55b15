// Wall-clock instruments of the engine benchmark: the span tracer wrapped
// around every public engine call, the latency summaries, and the result
// sink that prints each metric by name with its unit.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// One public call as seen from outside the engine.
struct Span {
    std::string name;
    double begin{0};  // wall seconds since the tracer's epoch
    double end{0};
    std::int64_t parent{-1};
    std::int64_t round{-1};
};

/// In-memory span recorder. Disabled tracers take no clock readings and
/// allocate nothing; an enabled one keeps every span until write_json().
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

    bool enabled() const { return enabled_; }
    void set_round(std::int64_t round) { round_ = round; }

    /// RAII span: opened on construction, closed on destruction.
    class Scope {
    public:
        Scope(Tracer& tracer, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer& tracer_;
        std::int64_t index_{-1};
    };

    const std::vector<Span>& spans() const { return spans_; }
    /// Duration minus the part covered by direct children, per span name.
    std::map<std::string, double> self_times() const;
    /// Durations of every span called `name`, in recording order.
    std::vector<double> durations(const std::string& name) const;
    /// Write {"spans": [...]} to `path`; returns false on I/O failure.
    bool write_json(const std::string& path) const;

private:
    bool enabled_;
    Clock::time_point epoch_;
    std::int64_t round_{-1};
    std::vector<Span> spans_;
    std::vector<std::int64_t> open_;
};

/// Median and tail of a sample set. The tail is the highest percentile, up
/// to 99.9, with at least ten samples beyond it. Below twenty samples that
/// percentile would not lie above the median, so the tail is the maximum,
/// reported as percentile 100.
struct Summary {
    double p50{0};
    double tail{0};
    double tail_pct{0};
    std::size_t count{0};
};
Summary summarize(std::vector<double> samples);
double median(std::vector<double> samples);

/// Log-bucketed latency histogram (buckets 1% wide from 10 ns to 1000 s)
/// for the serve readers, which issue millions of reads per run. Each bucket
/// keeps the sum of its samples, so a percentile reports the mean of the
/// samples in its bucket: a measured value, accurate to the bucket width.
class LatencyHistogram {
public:
    LatencyHistogram();
    void add(double seconds);
    void merge(const LatencyHistogram& other);
    std::size_t count() const { return count_; }
    double quantile(double q) const;
    Summary summary() const;

private:
    std::vector<std::uint64_t> counts_;
    std::vector<double> sums_;
    std::size_t count_{0};
};

/// Named metrics with units, printed as "name = value unit" lines and as the
/// benchmark's final JSON line.
class Results {
public:
    void add(const std::string& name, double value, const std::string& unit);
    void add_summary(const std::string& prefix, const Summary& s);
    bool has(const std::string& name) const;
    double get(const std::string& name) const;
    void print_lines() const;
    /// {"correct":..., "attempted":..., "failed":..., "metrics": {...}} with
    /// only the metrics named in `keep`, in that order.
    std::string final_json(bool correct, std::uint64_t attempted,
                           std::uint64_t failed,
                           const std::vector<std::string>& keep) const;

private:
    struct Entry {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

}  // namespace perfbench
