/**
 * @file
 * Profile degradation: deterministic, seeded transforms over a recorded
 * edge profile.
 *
 * Every experiment in the paper aligns a program with the exact walk it is
 * later measured on — the best-case assumption. Production profiles are
 * sampled, stale, merged across inputs, or simply wrong. This library
 * models those failure modes as reproducible transforms of the edge
 * weights (the CFG structure is never modified), so the experiment matrix
 * can run *align-on-degraded / measure-on-true* and chart each aligner's
 * CPI degradation curve (bench_robustness).
 *
 * Flow-conservation contract (lint/profile_rules.cc):
 *  - `sample` preserves the prof.* flow invariants of its input: it thins
 *    whole flow units (paths/cycles from a flow decomposition), so a
 *    lint-clean profile stays lint-clean.
 *  - `stale` is a genuine profile (a fresh walk), clean by construction.
 *  - `merge` sums profiles of independent walks; each walk may strand up
 *    to flowSlack activations, so a merged profile is clean under a slack
 *    scaled by the number of constituent walks.
 *  - `perturb` and `drift` make no promise. Perturb's per-edge noise is
 *    exactly the inconsistency prof.flow exists to catch; drift conserves
 *    each block's total outflow (and hence total program weight) but
 *    reroutes it between successors, so downstream in/out balances —
 *    an impossible execution is the point of the anti-profile.
 */

#ifndef BALIGN_PROFILE_DEGRADE_H
#define BALIGN_PROFILE_DEGRADE_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cfg/program.h"
#include "trace/walker.h"

namespace balign {

/// The degradation families (ROADMAP item 3).
enum class DegradeKind : std::uint8_t {
    None,     ///< identity: align on the measurement profile
    Sample,   ///< keep ~1/N of the recorded events (binomial thinning)
    Stale,    ///< profile from a different input (re-walk, other seed)
    Perturb,  ///< multiplicative per-edge weight noise
    Merge,    ///< average across several inputs (summed extra walks)
    Drift,    ///< adversarial interpolation toward the anti-profile
};

/// Printable kind name ("none", "sample", ...).
const char *degradeKindName(DegradeKind kind);

/// Inverse of degradeKindName; nullopt for unknown names.
std::optional<DegradeKind> parseDegradeKind(std::string_view name);

/// Every degradation kind including None, in enum order.
const std::vector<DegradeKind> &allDegradeKinds();

/**
 * One point on a degradation axis. The severity field used depends on the
 * kind: Sample reads `n` (keep 1/n), Merge reads `n` (number of extra
 * walks merged in), Perturb reads `param` (noise half-width eps), Drift
 * reads `param` (interpolation t in [0, 1]), Stale and None read neither.
 * `seed` feeds the transform's own RNG (Sample/Perturb) or selects the
 * alternate input (Stale/Merge); it never touches the measurement walk.
 */
struct DegradeSpec
{
    DegradeKind kind = DegradeKind::None;
    std::uint32_t n = 0;
    double param = 0.0;
    std::uint64_t seed = 1;

    static DegradeSpec none() { return {}; }
    bool isNone() const { return kind == DegradeKind::None; }

    /// Severity label for curves/JSON: "1/8", "eps=0.5", "t=0.25", ...
    std::string severityLabel() const;

    bool operator==(const DegradeSpec &other) const;
    bool operator<(const DegradeSpec &other) const;
};

/// "none", "sample(1/8)", "perturb(eps=0.5)" — for logs and JSON.
std::string degradeSpecLabel(const DegradeSpec &spec);

/**
 * Binomial event thinning: replaces the profile with one that keeps each
 * recorded flow unit independently with probability 1/n. The profile is
 * first decomposed into flow units (simple paths and cycles); each unit's
 * weight w is thinned to Binomial(w, 1/n). Thinning whole units rather
 * than individual edges is what preserves per-block, loop-boundary, and
 * program-wide flow conservation (see file comment). n == 0 or 1 is the
 * identity.
 */
void sampleProfile(Program &program, std::uint32_t n, std::uint64_t seed);

/**
 * Stale profile: clears all weights and re-profiles with a walker seed
 * derived from (walk.seed, seed) — the "aligned against last week's
 * input" scenario. The walk budget and knobs are taken from @p walk.
 */
void staleProfile(Program &program, const WalkOptions &walk,
                  std::uint64_t seed);

/**
 * Multiplicative noise: each edge weight w becomes round(w * f) with f
 * drawn uniformly from [max(0, 1-eps), 1+eps], independently per edge,
 * clamped to kMaxProfileWeight (cfg/serialize.h) so a huge eps cannot
 * wrap a weight. Deliberately violates flow conservation (that is the
 * scenario).
 */
void perturbProfile(Program &program, double eps, std::uint64_t seed);

/**
 * Cross-input merge: adds the profiles of @p extra_inputs additional
 * walks (seeds derived from (walk.seed, seed, input index)) onto the
 * existing weights. Summing rather than dividing keeps the weights
 * integral and flow-conserving; every aligner and objective is invariant
 * under uniform profile scaling, so the sum behaves as the average.
 */
void mergeProfiles(Program &program, const WalkOptions &walk,
                   std::uint32_t extra_inputs, std::uint64_t seed);

/**
 * Adversarial drift: interpolates the profile a fraction @p t of the way
 * toward its anti-profile — the weight assignment that inverts every
 * placement decision (conditional taken/fall-through weights swapped;
 * indirect-target weights reversed across the sorted targets). t = 0 is
 * the identity, t = 1 the full adversary. Deterministic (no RNG), and
 * exchanges weight only between out-edges of the same block, so each
 * block's total outflow — and the program's total weight — is preserved
 * exactly (successor inflows are not; see the file comment).
 */
void driftProfile(Program &program, double t);

/**
 * Applies @p spec to @p program's profile. @p walk describes the walk the
 * profile was recorded with (Stale and Merge re-walk with its budget).
 * None is the identity.
 */
void degradeProfile(Program &program, const WalkOptions &walk,
                    const DegradeSpec &spec);

}  // namespace balign

#endif  // BALIGN_PROFILE_DEGRADE_H
