#include "support/rng.h"

#include <cassert>
#include <cmath>

namespace balign {

std::uint64_t
SplitMix64::next()
{
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    SplitMix64 sm(seed);
    for (auto &word : s_)
        word = sm.next();
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    assert(bound > 0);
    // Lemire's multiply-shift rejection method, unbiased.
    std::uint64_t x = nextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
        const std::uint64_t threshold = -bound % bound;
        while (lo < threshold) {
            x = nextU64();
            m = static_cast<__uint128_t>(x) * bound;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    assert(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

std::uint64_t
Rng::nextGeometric(double p, std::uint64_t cap)
{
    if (p >= 1.0)
        return 0;
    if (p <= 0.0)
        return cap;
    const double u = nextDouble();
    const double draw = std::floor(std::log1p(-u) / std::log1p(-p));
    if (draw >= static_cast<double>(cap))
        return cap;
    return static_cast<std::uint64_t>(draw);
}

std::size_t
Rng::nextWeighted(const double *weights, std::size_t n)
{
    assert(n >= 1);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        total += weights[i];
    if (total <= 0.0)
        return n - 1;
    double point = nextDouble() * total;
    for (std::size_t i = 0; i < n; ++i) {
        point -= weights[i];
        if (point < 0.0)
            return i;
    }
    return n - 1;
}

Rng
Rng::split()
{
    return Rng(nextU64());
}

}  // namespace balign
