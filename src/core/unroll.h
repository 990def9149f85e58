/**
 * @file
 * Single-block loop unrolling by basic-block duplication — the extension
 * the paper proposes in §3: "simply duplicating the basic block and then
 * inverting (aligning) the branch condition for the added conditional
 * branches ... would offer some performance improvement, even if the other
 * optimizations offered by loop unrolling were ignored."
 *
 * A self-loop block L (conditional whose taken edge targets itself) is
 * replaced by `factor` copies laid out consecutively. The first factor-1
 * copies continue by FALLING THROUGH to the next copy (their branch, taken
 * on loop exit, jumps forward past the chain); the last copy branches
 * backward to the first. One full pass through the chain executes `factor`
 * iterations with factor-1 fall-through branches and a single taken one,
 * cutting misfetches on every architecture and mispredictions on
 * FALLTHROUGH.
 *
 * The transformation is performed on the CFG before profiling; callers
 * re-profile afterwards (duplication invalidates old edge weights, which
 * are cleared). Deterministic outcome patterns on the loop branch are
 * replaced by the equivalent stochastic bias, since the copies partition
 * the original iteration sequence.
 */

#ifndef BALIGN_CORE_UNROLL_H
#define BALIGN_CORE_UNROLL_H

#include "cfg/program.h"

namespace balign {

struct UnrollOptions
{
    /// Copies of the loop block (>= 2).
    unsigned factor = 4;

    /// Only unroll loops whose self edge carries at least this weight
    /// (requires a profile; 0 unrolls every self loop).
    Weight minWeight = 0;

    /// Skip loop blocks bigger than this (code-size guard).
    std::uint32_t maxBlockInstrs = 48;
};

/**
 * Unrolls eligible self-loop blocks in @p proc, renumbering blocks as
 * needed (fall-through adjacency is preserved, so the identity layout
 * stays exact). All edge weights in the procedure are cleared.
 *
 * @return the number of loops unrolled.
 */
unsigned unrollSelfLoops(Procedure &proc, const UnrollOptions &options = {});

/// Program-wide driver; clears all weights, returns total loops unrolled.
unsigned unrollSelfLoops(Program &program,
                         const UnrollOptions &options = {});

}  // namespace balign

#endif  // BALIGN_CORE_UNROLL_H
