// Host-speed probe: fixed reference kernels the benchmark times between
// engine rounds. They share no code with the engine, so no change to the
// engine moves them; what moves them is the host (other tenants, clock
// speed, cache and memory-bandwidth pressure).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class SpeedProbe {
public:
    /// Runs both kernels once; returns the geometric mean of their wall
    /// seconds. On a shared host the clock speed and the cache and memory
    /// pressure change independently and engine rounds follow both: the
    /// geometric mean tracks round times about twice as closely as either
    /// kernel alone (IQR/median of relative round times over 6-7 seeds: 8%
    /// against 15-18%).
    double run();

private:
    /// Min-plus relaxation of `rows` rows of 2000 doubles along a fixed
    /// random graph, the shape of the engine's RC propagation.
    class Kernel {
    public:
        explicit Kernel(std::size_t rows);
        double run();

    private:
        std::size_t rows_;
        std::vector<std::uint32_t> offsets_;
        std::vector<std::uint32_t> targets_;
        std::vector<double> values_;
        std::size_t next_{0};
    };

    Kernel memory_{2000};  // 32 MB: streams from the shared L3 or memory
    Kernel core_{64};      // 1 MB: stays in the core's own L2
};

}  // namespace perfbench
