#include "sim/runner.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "support/log.h"
#include "support/thread_pool.h"
#include "workload/generator.h"

namespace balign {

unsigned
defaultThreads()
{
    if (const char *env = std::getenv("BALIGN_THREADS")) {
        char *end = nullptr;
        const long value = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && value >= 1)
            return static_cast<unsigned>(std::min<long>(value, 256));
        warn("BALIGN_THREADS='%s' is not a positive integer; using the "
             "hardware default", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

namespace {

/// Generate + profile one spec, with per-phase timing.
PreparedProgram
prepareTimed(const ProgramSpec &spec, PhaseTimes *times)
{
    Program program;
    {
        ScopedPhaseTimer timer(times, "generate");
        program = generateProgram(spec);
    }
    WalkOptions walk;
    walk.seed = traceSeed(spec);
    walk.instrBudget = spec.traceInstrs;
    ScopedPhaseTimer timer(times, "profile");
    return prepareProgram(std::move(program), walk, spec.name);
}

}  // namespace

std::vector<ExperimentRun>
runSuite(const std::vector<ProgramSpec> &suite,
         const std::vector<ExperimentConfig> &configs,
         const RunnerOptions &options)
{
    ThreadPool pool(options.threads != 0 ? options.threads
                                         : defaultThreads());
    const RunContext context{&pool, options.times};

    std::vector<ExperimentRun> runs(suite.size());
    pool.parallelFor(suite.size(), [&](std::size_t i) {
        const ProgramSpec &spec = suite[i];
        const PreparedProgram prepared = prepareTimed(spec, options.times);
        ExperimentRun run =
            runConfigs(prepared, configs, options.align, context);
        run.group = spec.group;
        runs[i] = std::move(run);
    });
    return runs;
}

std::vector<ExecTimeResult>
runExecTimeSuite(const std::vector<ProgramSpec> &suite,
                 const RunnerOptions &options)
{
    ThreadPool pool(options.threads != 0 ? options.threads
                                         : defaultThreads());
    std::vector<ExecTimeResult> results(suite.size());
    pool.parallelFor(suite.size(), [&](std::size_t i) {
        results[i] = runExecTime(suite[i], options.times);
    });
    return results;
}

}  // namespace balign
