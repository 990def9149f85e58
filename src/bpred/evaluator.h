/**
 * @file
 * Branch-architecture evaluation: the parameters of one simulated
 * architecture and the metrics a trace replay accumulates for it.
 *
 * Two engines fill an EvalResult: runBatchReplay (sim/batch_replay.h),
 * the production engine behind every experiment, and the naive
 * OracleEvaluator (check/oracle.h), the reference it is checked
 * against. Both accumulate the paper's metrics:
 *
 *  - instructions executed under that layout (sense inversions do not
 *    change the count; inserted jumps add instructions when executed,
 *    deleted jumps remove them);
 *  - the branch execution penalty, BEP = misfetches * misfetch_penalty +
 *    mispredicts * mispredict_penalty (paper §6);
 *  - relative CPI = (aligned instructions + BEP) / original instructions;
 *  - the percentage of executed conditional branches that fall through.
 *
 * Penalty rules (paper §6): for the static and PHT architectures,
 * unconditional branches, correctly predicted taken conditional branches
 * and direct calls misfetch; mispredicted conditional branches,
 * mispredicted returns and all indirect jumps mispredict. The BTB
 * architectures avoid the misfetch for taken branches that hit in the BTB.
 * A 32-entry return stack predicts returns in every configuration.
 */

#ifndef BALIGN_BPRED_EVALUATOR_H
#define BALIGN_BPRED_EVALUATOR_H

#include <cstddef>
#include <cstdint>

#include "bpred/arch.h"

namespace balign {

/// Evaluator configuration.
struct EvalParams
{
    Arch arch = Arch::BtFnt;
    Penalties penalties;
    std::size_t phtEntries = 4096;
    unsigned historyBits = 12;
    unsigned counterBits = 2;
    std::size_t btbEntries = 256;
    std::size_t btbWays = 4;
    std::size_t rasEntries = 32;

    /// Paper defaults for each architecture.
    static EvalParams forArch(Arch arch);
};

/// Accumulated metrics.
struct EvalResult
{
    std::uint64_t instrs = 0;
    std::uint64_t misfetches = 0;
    std::uint64_t mispredicts = 0;

    std::uint64_t condExec = 0;
    std::uint64_t condTaken = 0;  ///< realized-taken conditionals
    std::uint64_t condMispredicts = 0;
    std::uint64_t uncondExec = 0;
    std::uint64_t callExec = 0;
    std::uint64_t returnExec = 0;
    std::uint64_t returnMispredicts = 0;
    std::uint64_t indirectExec = 0;
    std::uint64_t btbHits = 0;
    std::uint64_t btbLookups = 0;

    Penalties penalties;

    /// Total branch execution penalty in cycles.
    double
    bep() const
    {
        return static_cast<double>(misfetches) * penalties.misfetch +
               static_cast<double>(mispredicts) * penalties.mispredict;
    }

    /// Relative CPI against the original program's instruction count.
    double
    relativeCpi(std::uint64_t original_instrs) const
    {
        return (static_cast<double>(instrs) + bep()) /
               static_cast<double>(original_instrs);
    }

    /// Percent of executed conditional branches that fell through.
    double
    pctFallThrough() const
    {
        if (condExec == 0)
            return 0.0;
        return 100.0 * static_cast<double>(condExec - condTaken) /
               static_cast<double>(condExec);
    }

    /// Conditional branch prediction accuracy (direction only).
    double
    condAccuracy() const
    {
        if (condExec == 0)
            return 0.0;
        return 100.0 *
               static_cast<double>(condExec - condMispredicts) /
               static_cast<double>(condExec);
    }
};

}  // namespace balign

#endif  // BALIGN_BPRED_EVALUATOR_H
