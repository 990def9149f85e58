/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The trace walker and the workload generator must be exactly reproducible
 * across runs and platforms, so we implement xoshiro256** (seeded through
 * SplitMix64) rather than relying on implementation-defined std::mt19937
 * distributions. All distribution helpers here are fully specified.
 */

#ifndef BALIGN_SUPPORT_RNG_H
#define BALIGN_SUPPORT_RNG_H

#include <cstddef>
#include <cstdint>

namespace balign {

/**
 * SplitMix64: used to expand a 64-bit seed into xoshiro state. Also a decent
 * standalone mixing function for hashing.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    /// Next 64 pseudo-random bits.
    std::uint64_t next();

  private:
    std::uint64_t state_;
};

/**
 * xoshiro256**: fast, high-quality 64-bit PRNG with 256 bits of state.
 *
 * Deterministic for a given seed; no global state.
 */
class Rng
{
  public:
    /// Seeds the four state words via SplitMix64.
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /// Uniform 64-bit value.
    std::uint64_t
    nextU64()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /// Uniform value in [0, bound) using Lemire's unbiased method.
    std::uint64_t nextBounded(std::uint64_t bound);

    /// Uniform double in [0, 1) with 53 bits of precision.
    double
    nextDouble()
    {
        return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
    }

    /// Bernoulli draw: true with probability @p p (clamped to [0,1]).
    bool
    nextBool(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /**
     * Geometric draw: number of failures before the first success with
     * success probability @p p in (0, 1]; capped at @p cap.
     */
    std::uint64_t nextGeometric(double p, std::uint64_t cap);

    /**
     * Draws an index in [0, n) proportional to the given non-negative
     * weights. Returns n - 1 if all weights are zero.
     *
     * @param weights pointer to n weights
     * @param n number of weights (must be >= 1)
     */
    std::size_t nextWeighted(const double *weights, std::size_t n);

    /// Fork an independent stream (for parallel sub-generators).
    Rng split();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

}  // namespace balign

#endif  // BALIGN_SUPPORT_RNG_H
