#include "calibrate.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "spans.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kTableEntries = 1u << 18;  // 1 MiB of indices
constexpr std::uint32_t kSteps = 1u << 20;

std::uint64_t
mix(std::uint64_t h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h;
}

/// One random cycle through every entry (Sattolo), built once.
const std::vector<std::uint32_t> &
cycle()
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> next(kTableEntries);
        for (std::uint32_t i = 0; i < kTableEntries; ++i)
            next[i] = i;
        std::uint64_t state = 0x5eed;
        for (std::uint32_t i = kTableEntries - 1; i > 0; --i) {
            state = mix(state + 0x9e3779b97f4a7c15ull);
            std::swap(next[i], next[state % i]);
        }
        return next;
    }();
    return table;
}

}  // namespace

double
calibrationSeconds()
{
    const std::vector<std::uint32_t> &next = cycle();
    const double start = nowSeconds();
    std::uint32_t at = 0;
    std::uint64_t h = 1;
    double x = 1.0;
    std::uint64_t taken = 0;
    for (std::uint32_t step = 0; step < kSteps; ++step) {
        at = next[at];
        h = mix(h ^ at);
        if (h & 0x40) {
            ++taken;
            x = x * 0.999 + 1e-3;
        } else {
            x = x * 1.001 - 1e-3;
        }
        for (int k = 0; k < 8; ++k)
            h = mix(h + static_cast<std::uint64_t>(k));
    }
    const double seconds = nowSeconds() - start;
    // Keep the results alive so the loop cannot be dropped.
    volatile std::uint64_t sink = h + taken + static_cast<std::uint64_t>(x);
    (void)sink;
    return seconds;
}

}  // namespace perfbench
