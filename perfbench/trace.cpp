#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
    if (!tracer_.enabled_) {
        return;
    }
    Span span;
    span.name = name;
    span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
    span.round = tracer_.round_;
    span.begin = seconds_between(tracer_.epoch_, Clock::now());
    index_ = static_cast<std::int64_t>(tracer_.spans_.size());
    tracer_.spans_.push_back(std::move(span));
    tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
    if (index_ < 0) {
        return;
    }
    tracer_.spans_[static_cast<std::size_t>(index_)].end =
        seconds_between(tracer_.epoch_, Clock::now());
    tracer_.open_.pop_back();
}

std::map<std::string, double> Tracer::self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[i] += spans_[i].end - spans_[i].begin;
        if (spans_[i].parent >= 0) {
            self[static_cast<std::size_t>(spans_[i].parent)] -=
                spans_[i].end - spans_[i].begin;
        }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        out[spans_[i].name] += self[i];
    }
    return out;
}

std::vector<double> Tracer::durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
        if (s.name == name) {
            out.push_back(s.end - s.begin);
        }
    }
    return out;
}

bool Tracer::write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"begin\": %.9f, "
                     "\"end\": %.9f, \"parent\": %lld, \"round\": %lld}%s\n",
                     i, s.name.c_str(), s.begin, s.end,
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.round),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

double median(std::vector<double> samples) {
    if (samples.empty()) {
        return 0;
    }
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

/// The tail percentile for `n` samples (see Summary).
double tail_percentile(std::size_t n) {
    if (n < 20) {
        return 100;
    }
    const double nd = static_cast<double>(n);
    return std::min(99.9, 100.0 * (nd - 10.0) / nd);
}

}  // namespace

Summary summarize(std::vector<double> samples) {
    Summary s;
    s.count = samples.size();
    if (samples.empty()) {
        return s;
    }
    std::sort(samples.begin(), samples.end());
    s.p50 = median(samples);
    s.tail_pct = tail_percentile(samples.size());
    const auto rank = static_cast<std::size_t>(
        std::ceil(s.tail_pct / 100.0 * static_cast<double>(samples.size())));
    s.tail = samples[std::min(samples.size(), std::max<std::size_t>(rank, 1)) - 1];
    return s;
}

namespace {

constexpr double kHistMin = 1e-8;
constexpr double kHistGrowth = 1.01;
const double kHistLogGrowth = std::log(kHistGrowth);
const std::size_t kHistBuckets =
    static_cast<std::size_t>(std::log(1e3 / kHistMin) / kHistLogGrowth) + 2;

std::size_t bucket_of(double seconds) {
    if (!(seconds > kHistMin)) {
        return 0;
    }
    const auto b =
        static_cast<std::size_t>(std::log(seconds / kHistMin) / kHistLogGrowth) + 1;
    return std::min(b, kHistBuckets - 1);
}

}  // namespace

LatencyHistogram::LatencyHistogram()
    : counts_(kHistBuckets, 0), sums_(kHistBuckets, 0.0) {}

void LatencyHistogram::add(double seconds) {
    const std::size_t b = bucket_of(seconds);
    ++counts_[b];
    sums_[b] += seconds;
    ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
    for (std::size_t b = 0; b < counts_.size(); ++b) {
        counts_[b] += other.counts_[b];
        sums_[b] += other.sums_[b];
    }
    count_ += other.count_;
}

double LatencyHistogram::quantile(double q) const {
    if (count_ == 0) {
        return 0;
    }
    const auto target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
        seen += counts_[b];
        if (seen >= target) {
            return sums_[b] / static_cast<double>(counts_[b]);
        }
    }
    return 0;
}

Summary LatencyHistogram::summary() const {
    Summary s;
    s.count = count_;
    if (count_ == 0) {
        return s;
    }
    s.p50 = quantile(0.5);
    s.tail_pct = tail_percentile(count_);
    s.tail = quantile(s.tail_pct / 100.0);
    return s;
}

void Results::add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
}

void Results::add_summary(const std::string& prefix, const Summary& s) {
    add(prefix + "_p50_s", s.p50, "s");
    add(prefix + "_tail_s", s.tail, "s");
    add(prefix + "_tail_pct", s.tail_pct, "percentile");
    add(prefix + "_samples", static_cast<double>(s.count), "count");
}

bool Results::has(const std::string& name) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const Entry& e) { return e.name == name; });
}

double Results::get(const std::string& name) const {
    for (const Entry& e : entries_) {
        if (e.name == name) {
            return e.value;
        }
    }
    return 0;
}

void Results::print_lines() const {
    for (const Entry& e : entries_) {
        std::printf("  %-34s = %.9g %s\n", e.name.c_str(), e.value, e.unit.c_str());
    }
}

std::string Results::final_json(bool correct, std::uint64_t attempted,
                                std::uint64_t failed,
                                const std::vector<std::string>& keep) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const std::string& name : keep) {
        for (const Entry& e : entries_) {
            if (e.name != name) {
                continue;
            }
            char buf[256];
            std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          first ? "" : ", ", e.name.c_str(), e.value, e.unit.c_str());
            out += buf;
            first = false;
            break;
        }
    }
    out += "}}";
    return out;
}

}  // namespace perfbench
