/**
 * @file
 * Thread-pooled parallel experiment runner.
 *
 * The paper tables and figures all have the same shape: for every program
 * in a suite, generate the model, profile it with one recorded walk, build
 * the layouts, and evaluate every (architecture, algorithm) configuration
 * against the trace — one batched pass over the trace drives every lane of
 * a lane block at once (sim/batch_replay.h). Every one of those steps is
 * independent across programs, and the lane blocks are independent
 * within a program too. runSuite() schedules all of it across a
 * work-sharing thread pool: program-level tasks fan out first, and each
 * task's alignment and replay stages fan out further into the same pool
 * (nested parallelFor); a replay splits into lane blocks only as far as
 * workers sit idle.
 *
 * Determinism: every result is written to a pre-assigned slot and no
 * floating-point reduction crosses threads, so the output is byte-identical
 * to a serial run regardless of thread count or scheduling.
 *
 * Thread count: the BALIGN_THREADS environment variable, defaulting to
 * std::thread::hardware_concurrency(). BALIGN_THREADS=1 reproduces the
 * serial path exactly (no worker threads are spawned at all).
 *
 * Instrumentation: pass a PhaseTimes to accumulate per-phase wall time
 * (generate / profile / align / replay) for machine-readable JSON output;
 * see bench/bench_wallclock.cc and the BENCH_*.json trajectories.
 */

#ifndef BALIGN_SIM_RUNNER_H
#define BALIGN_SIM_RUNNER_H

#include <vector>

#include "sim/cpi.h"
#include "sim/exec_time.h"
#include "support/stats.h"
#include "workload/spec.h"

namespace balign {

/**
 * Threads the runner uses by default: BALIGN_THREADS when set to a
 * positive integer (values > 256 are clamped, garbage is warned about and
 * ignored), otherwise the hardware concurrency (at least 1).
 */
unsigned defaultThreads();

/// Runner configuration.
struct RunnerOptions
{
    AlignOptions align;           ///< passed through to the aligners
    unsigned threads = 0;         ///< 0 = defaultThreads()
    PhaseTimes *times = nullptr;  ///< optional per-phase wall-time sink
};

/**
 * Runs every (program, configuration) cell of the experiment matrix across
 * the pool. Returns one ExperimentRun per spec, in suite order, each
 * identical to what runExperiment(spec, configs, options.align) produces.
 */
std::vector<ExperimentRun>
runSuite(const std::vector<ProgramSpec> &suite,
         const std::vector<ExperimentConfig> &configs,
         const RunnerOptions &options = {});

/**
 * Parallel counterpart of runExecTime (Figure 4): one result per spec, in
 * suite order, identical to the serial calls.
 */
std::vector<ExecTimeResult>
runExecTimeSuite(const std::vector<ProgramSpec> &suite,
                 const RunnerOptions &options = {});

}  // namespace balign

#endif  // BALIGN_SIM_RUNNER_H
