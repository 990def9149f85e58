/**
 * @file
 * Ablation (methodology): profile robustness across inputs.
 *
 * The paper aligns each program with the same input used for measurement
 * ("for each architecture, we use the same input to align the program and
 * to measure the improvement") and notes that combining more profiles is
 * possible. This harness quantifies the gap: a program is aligned with a
 * profile from one input (walk seed) and evaluated on a different input,
 * compared against self-trained alignment. Because branch biases are
 * properties of the program model, profile-guided layout should transfer
 * well — the classic argument for profile-guided code layout.
 */

#include <iostream>

#include "bench_util.h"
#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "sim/cpi.h"
#include "support/log.h"
#include "support/table.h"
#include "trace/profiler.h"
#include "trace/walker.h"
#include "workload/generator.h"

using namespace balign;

int
main()
{
    setVerbose(false);
    const Arch arch = Arch::Fallthrough;
    Table table({"Program", "orig", "self-trained", "cross-trained",
                 "transfer %"});

    const char *names[] = {"compress", "eqntott", "espresso", "gcc", "li",
                           "sc", "groff", "tex"};
    for (const char *name : names) {
        ProgramSpec spec = suiteSpec(name);
        if (const char *env = std::getenv("BALIGN_TRACE_INSTRS")) {
            const auto v = std::strtoull(env, nullptr, 10);
            if (v > 0)
                spec.traceInstrs = v;
        }

        WalkOptions train_walk;
        train_walk.seed = traceSeed(spec);
        train_walk.instrBudget = spec.traceInstrs;
        WalkOptions test_walk = train_walk;
        test_walk.seed = traceSeed(spec) ^ 0x5555aaaa5555aaaaull;

        const CostModel model(arch);

        // Train on the TRAINING input.
        Program program = generateProgram(spec);
        {
            Profiler profiler(program);
            walk(program, train_walk, profiler);
        }
        const ProgramLayout cross_layout =
            alignProgram(program, AlignerKind::Try15, &model);

        // Train on the TEST input (self-trained reference).
        program.clearWeights();
        {
            Profiler profiler(program);
            walk(program, test_walk, profiler);
        }
        const ProgramLayout self_layout =
            alignProgram(program, AlignerKind::Try15, &model);
        const ProgramLayout orig = originalLayout(program);

        // All evaluated on the TEST input.
        const BatchTrace test_trace(program, recordTrace(program, test_walk));
        const std::vector<EvalParams> lanes = {EvalParams::forArch(arch)};
        const std::vector<std::vector<EvalResult>> results = runBatchReplay(
            program,
            {{&orig, lanes}, {&self_layout, lanes}, {&cross_layout, lanes}},
            test_trace);

        const auto base = results[0][0].instrs;
        const double orig_cpi = results[0][0].relativeCpi(base);
        const double self_cpi = results[1][0].relativeCpi(base);
        const double cross_cpi = results[2][0].relativeCpi(base);
        // Fraction of the self-trained improvement retained.
        const double transfer =
            orig_cpi - self_cpi > 1e-9
                ? 100.0 * (orig_cpi - cross_cpi) / (orig_cpi - self_cpi)
                : 100.0;

        table.row()
            .cell(name)
            .cell(orig_cpi, 3)
            .cell(self_cpi, 3)
            .cell(cross_cpi, 3)
            .cell(transfer, 1);
    }

    std::cout << "Ablation: cross-input profile robustness (FALLTHROUGH, "
                 "Try15)\n(transfer % = share of the self-trained CPI "
                 "improvement kept when aligning\n with a different "
                 "input's profile)\n\n";
    table.print(std::cout);
    return 0;
}
