#include "probe.hpp"

#include <algorithm>
#include <cmath>

#include "trace.hpp"

namespace perfbench {

namespace {

/// Row length: the workloads' host size, so a row is a DV row (16 KB).
constexpr std::size_t kCols = 2000;
constexpr std::size_t kDegree = 6;
/// Rows relaxed per kernel run: 3072 row reads, a few milliseconds.
constexpr std::size_t kRowsPerRun = 512;

std::uint64_t next_random(std::uint64_t& state) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

}  // namespace

SpeedProbe::Kernel::Kernel(std::size_t rows)
    : rows_(rows), offsets_(rows + 1), values_(rows * kCols) {
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    for (std::size_t u = 0; u < rows_; ++u) {
        offsets_[u] = static_cast<std::uint32_t>(targets_.size());
        for (std::size_t k = 0; k < kDegree; ++k) {
            targets_.push_back(static_cast<std::uint32_t>(next_random(state) % rows_));
        }
    }
    offsets_[rows_] = static_cast<std::uint32_t>(targets_.size());
    for (double& d : values_) {
        d = static_cast<double>(next_random(state) % 1024);
    }
}

double SpeedProbe::Kernel::run() {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kRowsPerRun; ++i) {
        const std::size_t u = (next_ + i) % rows_;
        double* row = &values_[u * kCols];
        for (std::uint32_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
            const double* other = &values_[static_cast<std::size_t>(targets_[e]) * kCols];
            for (std::size_t t = 0; t < kCols; ++t) {
                row[t] = std::min(row[t], other[t] + 1.0);
            }
        }
    }
    next_ = (next_ + kRowsPerRun) % rows_;
    return seconds_between(t0, Clock::now());
}

double SpeedProbe::run() {
    return std::sqrt(memory_.run() * core_.run());
}

}  // namespace perfbench
