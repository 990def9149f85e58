/**
 * @file
 * Wall-clock timing bench for the perf trajectory: runs the full paper
 * experiment matrix (the Table 3 + Table 4 configurations over the
 * benchmark suite) on the parallel runner twice — at 1 thread and at the
 * configured thread count — and prints one line of JSON per run plus a
 * summary line with the thread speedup and the single-thread replay-phase
 * seconds. The one-pass-vs-per-layout replay ratio lives in bench_micro
 * (BM_ReplayMultiLayout vs BM_ReplayPerLayout).
 *
 * Environment: BALIGN_THREADS, BALIGN_TRACE_INSTRS, BALIGN_PROGRAMS as
 * usual.
 */

#include <iostream>

#include "bench_util.h"
#include "sim/runner.h"
#include "support/log.h"

using namespace balign;

namespace {

struct TimedRun
{
    double wall = 0.0;    ///< elapsed seconds
    double replay = 0.0;  ///< "replay" phase seconds, summed over threads
};

TimedRun
timedRun(const std::vector<ProgramSpec> &suite,
         const std::vector<ExperimentConfig> &configs, unsigned threads,
         const char *label)
{
    bench::WallClock wall;
    PhaseTimes times;
    RunnerOptions options;
    options.threads = threads;
    options.times = &times;
    const std::vector<ExperimentRun> runs = runSuite(suite, configs, options);
    const double seconds = wall.seconds();
    if (runs.size() != suite.size())
        fatal("bench_wallclock: %zu runs for %zu programs", runs.size(),
              suite.size());
    std::cout << bench::timingJson(label, threads, suite.size(), seconds,
                                   times)
              << "\n";
    return {seconds, times.seconds("replay")};
}

}  // namespace

int
main()
{
    setVerbose(false);

    // The union of the Table 3 and Table 4 experiment matrices.
    const Arch archs[] = {Arch::Fallthrough, Arch::BtFnt,     Arch::Likely,
                          Arch::PhtDirect,   Arch::PhtCorrelated,
                          Arch::BtbSmall,    Arch::BtbLarge};
    std::vector<ExperimentConfig> configs;
    for (Arch arch : archs) {
        configs.push_back({arch, AlignerKind::Original});
        configs.push_back({arch, AlignerKind::Greedy});
        configs.push_back({arch, AlignerKind::Try15});
    }

    const std::vector<ProgramSpec> suite =
        bench::tunedSuite(benchmarkSuite());
    const unsigned threads = defaultThreads();

    const TimedRun serial = timedRun(suite, configs, 1, "wallclock_serial");
    const TimedRun parallel =
        timedRun(suite, configs, threads, "wallclock_parallel");

    std::printf(
        "{\"bench\":\"wallclock\",\"threads\":%u,\"programs\":%zu,"
        "\"configs\":%zu,\"serial_s\":%.6f,\"parallel_s\":%.6f,"
        "\"speedup\":%.3f,\"replay_s\":%.6f}\n",
        threads, suite.size(), configs.size(), serial.wall, parallel.wall,
        serial.wall / parallel.wall, serial.replay);
    return 0;
}
