/**
 * @file
 * Figure-4 driver: total execution time on the dual-issue Alpha 21064
 * model for Original, Pettis & Hansen (Greedy) and Try15 layouts.
 *
 * Per paper §6.1, the Greedy alignment is the same one used for all the
 * simulations (hot-first chain ordering), and the Try15 alignment is the
 * one produced with the BTB cost model, which the paper found performed
 * the same or slightly better than the PHT and BT/FNT alignments on the
 * real machine.
 */

#ifndef BALIGN_SIM_EXEC_TIME_H
#define BALIGN_SIM_EXEC_TIME_H

#include "sim/pipeline.h"
#include "support/stats.h"
#include "workload/spec.h"

namespace balign {

/// Relative execution times (original = 1.0).
struct ExecTimeResult
{
    std::string name;
    double originalCycles = 0.0;
    double greedyRelative = 1.0;  ///< greedy cycles / original cycles
    double try15Relative = 1.0;   ///< try15 cycles / original cycles

    /// Detailed per-layout stats for analysis.
    std::uint64_t origMispredicts = 0;
    std::uint64_t greedyMispredicts = 0;
    std::uint64_t try15Mispredicts = 0;
    std::uint64_t origICacheMisses = 0;
    std::uint64_t try15ICacheMisses = 0;
    std::uint64_t origMisfetches = 0;
    std::uint64_t try15Misfetches = 0;
    double origCyclesTotal = 0.0;
    std::uint64_t origInstrs = 0;
};

/// Runs the Figure-4 experiment for one program model. The pipeline models
/// replay the recorded profiling trace (one replay per layout); @p times,
/// when given, accumulates generate/profile/align/replay wall time.
ExecTimeResult runExecTime(const ProgramSpec &spec,
                           PhaseTimes *times = nullptr);

}  // namespace balign

#endif  // BALIGN_SIM_EXEC_TIME_H
