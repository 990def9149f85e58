/**
 * @file
 * Reproduces paper Figure 4: total execution time on a dual-issue Alpha
 * AXP 21064 model for the SPEC92 C programs, comparing the original
 * layout, the Pettis & Hansen (Greedy) alignment and the Try15 alignment
 * (built with the BTB cost model, per paper §6.1).
 *
 * Shape targets: the floating-point codes (alvinn, ear) see essentially no
 * benefit; gcc, eqntott and sc benefit the most; the paper measured up to
 * a 16% total-time reduction.
 */

#include <iostream>

#include "bench_util.h"
#include "sim/runner.h"
#include "support/log.h"
#include "support/table.h"

using namespace balign;

int
main()
{
    setVerbose(false);
    Table table({"Program", "Original", "Pettis&Hansen", "Try15",
                 "Try15 speedup%", "Orig mispred", "Try15 mispred",
                 "Orig I$ miss", "Try15 I$ miss", "Orig misfetch", "Try15 misfetch"});

    const bench::WallClock wall;
    PhaseTimes times;
    RunnerOptions runner;
    runner.times = &times;
    const std::vector<ProgramSpec> suite = bench::tunedSuite(figure4Suite());
    const std::vector<ExecTimeResult> results =
        runExecTimeSuite(suite, runner);

    for (const ExecTimeResult &r : results) {
        table.row()
            .cell(r.name)
            .cell(1.0, 3)
            .cell(r.greedyRelative, 3)
            .cell(r.try15Relative, 3)
            .cell(100.0 * (1.0 - r.try15Relative), 1)
            .cell(r.origMispredicts, true)
            .cell(r.try15Mispredicts, true)
            .cell(r.origICacheMisses, true)
            .cell(r.try15ICacheMisses, true)
            .cell(r.origMisfetches, true)
            .cell(r.try15Misfetches, true);
    }

    std::cout << "Figure 4: relative total execution time on the dual-issue "
                 "Alpha 21064 model\n(original = 1.0; lower is better)\n\n";
    table.print(std::cout);
    std::cerr << bench::timingJson("fig4_exectime", defaultThreads(),
                                   suite.size(), wall.seconds(), times)
              << "\n";
    return 0;
}
