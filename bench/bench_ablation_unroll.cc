/**
 * @file
 * Ablation for the paper's §3 proposal: unrolling hot single-block loops
 * by basic-block duplication before alignment. The paper predicts reduced
 * misfetch penalties on all architectures and better FALLTHROUGH
 * prediction; ALVINN (where one such loop is 64% of all branches) is the
 * motivating example.
 *
 * Reports relative CPI of aligned (Try15) code with and without unrolling
 * on the loop-dominated FP models and a couple of integer models, under
 * FALLTHROUGH and BT/FNT, plus the static code growth.
 */

#include <iostream>

#include "bench_util.h"
#include "core/unroll.h"
#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "sim/cpi.h"
#include "support/log.h"
#include "support/table.h"
#include "workload/generator.h"

using namespace balign;

int
main()
{
    setVerbose(false);
    Table table({"Program", "FT aligned", "FT unroll+aligned", "BF aligned",
                 "BF unroll+aligned", "loops unrolled", "code growth %"});

    const char *names[] = {"alvinn", "ear",  "swm256",  "tomcatv",
                           "eqntott", "compress"};
    for (const char *name : names) {
        ProgramSpec spec = suiteSpec(name);
        spec.traceInstrs = bench::traceInstrs(spec.traceInstrs);

        // Baseline: profile + align the generated program.
        const PreparedProgram plain = prepareProgram(spec);

        // Unrolled variant: profile first (to find the hot loops), unroll,
        // re-profile, align.
        Program transformed = generateProgram(spec);
        {
            WalkOptions options;
            options.seed = traceSeed(spec);
            options.instrBudget = spec.traceInstrs;
            profileProgram(transformed, options);
        }
        UnrollOptions unroll;
        unroll.factor = 4;
        unroll.minWeight = spec.traceInstrs / 1000;  // hot loops only
        const unsigned loops = unrollSelfLoops(transformed, unroll);
        WalkOptions walk_options;
        walk_options.seed = traceSeed(spec);
        walk_options.instrBudget = spec.traceInstrs;
        const PreparedProgram prepared_unrolled =
            prepareProgram(std::move(transformed), walk_options);

        const std::vector<ExperimentConfig> configs = {
            {Arch::Fallthrough, AlignerKind::Original},
            {Arch::Fallthrough, AlignerKind::Try15},
            {Arch::BtFnt, AlignerKind::Try15},
        };
        const ExperimentRun base = runConfigs(plain, configs);
        const ExperimentRun unrolled =
            runConfigs(prepared_unrolled, configs);

        // Both walks use the same instruction budget and the duplicated
        // blocks execute the same per-iteration work, so the two models'
        // relative CPIs are directly comparable.
        auto rel = [&](const ExperimentRun &run, Arch arch) {
            return run.cell(arch, AlignerKind::Try15).relCpi;
        };

        const double growth =
            100.0 *
            (static_cast<double>(
                 prepared_unrolled.program.totalInstrs()) /
                 static_cast<double>(plain.program.totalInstrs()) -
             1.0);

        table.row()
            .cell(name)
            .cell(rel(base, Arch::Fallthrough), 3)
            .cell(rel(unrolled, Arch::Fallthrough), 3)
            .cell(rel(base, Arch::BtFnt), 3)
            .cell(rel(unrolled, Arch::BtFnt), 3)
            .cell(static_cast<std::uint64_t>(loops))
            .cell(growth, 1);
    }

    std::cout << "Ablation: single-block loop unrolling (factor 4) before "
                 "Try15 alignment\n(relative CPI against each model's "
                 "original layout; unrolled columns rescaled to the plain "
                 "baseline)\n\n";
    table.print(std::cout);
    return 0;
}
