/**
 * @file
 * Table-2-style program attributes, computed from a CFG plus the dynamic
 * statistics collected during tracing.
 *
 * The dynamic fields are filled by applyTraceProfile (sim/batch_replay.h)
 * / the evaluator; this
 * header defines the record and the static-side computation (conditional
 * branch-site counts, Q-coverage of executed conditional branches).
 */

#ifndef BALIGN_CFG_CFG_STATS_H
#define BALIGN_CFG_CFG_STATS_H

#include <cstdint>

#include "cfg/program.h"

namespace balign {

/**
 * Measured attributes of a traced program (paper Table 2).
 */
struct ProgramStats
{
    /// Total instructions executed during tracing.
    std::uint64_t instrsTraced = 0;

    /// Dynamic counts of each break-in-control-flow category.
    std::uint64_t condBranches = 0;       ///< executed conditional branches
    std::uint64_t takenCondBranches = 0;  ///< of which taken
    std::uint64_t uncondBranches = 0;     ///< executed unconditional branches
    std::uint64_t indirectJumps = 0;
    std::uint64_t calls = 0;
    std::uint64_t returns = 0;

    /// Branch-site skew: #hottest conditional sites covering X% of executed
    /// conditional branches.
    std::size_t q50 = 0;
    std::size_t q90 = 0;
    std::size_t q99 = 0;
    std::size_t q100 = 0;

    /// Static number of conditional branch sites in the binary.
    std::size_t staticCondSites = 0;

    std::uint64_t
    totalBreaks() const
    {
        return condBranches + uncondBranches + indirectJumps + calls +
               returns;
    }

    /// Percentage of traced instructions that break control flow.
    double pctBreaks() const;

    /// Percentage of executed conditional branches that were taken.
    double pctTaken() const;

    /// Break-type mix percentages (of all breaks).
    double pctCondOfBreaks() const;
    double pctIndirectOfBreaks() const;
    double pctUncondOfBreaks() const;
    double pctCallOfBreaks() const;
    double pctReturnOfBreaks() const;
};

/**
 * Computes the static and skew fields of @p stats from a profiled program:
 * staticCondSites and the Q-coverage metrics derive from per-site executed
 * conditional-branch counts (sum of both out-edge weights of each
 * conditional block).
 *
 * The purely dynamic fields (instrsTraced, break counts) must have been
 * filled from the walk's counts already; this only adds the CFG-derived
 * ones.
 */
void fillStaticStats(const Program &program, ProgramStats &stats);

}  // namespace balign

#endif  // BALIGN_CFG_CFG_STATS_H
