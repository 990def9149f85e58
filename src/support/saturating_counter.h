/**
 * @file
 * N-bit saturating up/down counters, the basic predictor state element.
 *
 * The paper's dynamic predictors (direct-mapped PHT, correlation PHT, BTB
 * entries) all use 2-bit saturating counters. A counter is a raw value in
 * [0, max] with max = 2^bits - 1; the width is a runtime parameter so
 * sweeps can explore other widths. A fresh PHT counter starts weakly
 * not-taken (max/2); a fresh BTB entry starts weakly taken (max/2 + 1).
 */

#ifndef BALIGN_SUPPORT_SATURATING_COUNTER_H
#define BALIGN_SUPPORT_SATURATING_COUNTER_H

#include <cstdint>

namespace balign {

/**
 * Steps @p value one toward the observed outcome, clamped to [0, max].
 * Written as an arithmetic clamp for structure-of-arrays predictor tables
 * (sim/batch_replay.cc): it compiles to an add plus two conditional moves
 * instead of a data-dependent branch.
 */
inline std::uint8_t
saturatingUpdate(std::uint8_t value, std::uint8_t max, bool taken)
{
    const int stepped = static_cast<int>(value) + (taken ? 1 : -1);
    const int floored = stepped < 0 ? 0 : stepped;
    const int ceiling = static_cast<int>(max);
    return static_cast<std::uint8_t>(floored > ceiling ? ceiling : floored);
}

/// Direction a raw counter value predicts: the upper half of the range is
/// taken.
inline bool
saturatingTaken(std::uint8_t value, std::uint8_t max)
{
    return value > max / 2;
}

}  // namespace balign

#endif  // BALIGN_SUPPORT_SATURATING_COUNTER_H
