/**
 * @file
 * Ablation (paper §4): the TryN group size. The paper reports that
 * considering 10 nodes at a time gave slightly worse results than 15 for a
 * few programs but ran much faster, and that both beat Greedy. This
 * harness sweeps N over {1, 5, 10, 15} on the FALLTHROUGH architecture
 * (where the search matters most) and also reports the Cost heuristic,
 * which is effectively the N=1 greedy-with-cost-model point.
 *
 * The Try15 alignment wall time goes to stderr, one line per program, so
 * the table on stdout is identical from run to run.
 */

#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "sim/cpi.h"
#include "support/log.h"
#include "support/table.h"

using namespace balign;

int
main()
{
    setVerbose(false);
    Table table({"Program", "Orig", "Greedy", "Cost", "Try1", "Try5",
                 "Try10", "Try15"});

    const std::vector<std::size_t> sizes = {1, 5, 10, 15};

    for (const auto &spec : bench::tunedSuite(benchmarkSuite())) {
        const PreparedProgram prepared = prepareProgram(spec);
        const Program &program = prepared.program;
        const CostModel model(Arch::Fallthrough);

        auto evaluate = [&](const ProgramLayout &layout) {
            return runBatchReplay(program, layout, *prepared.batch,
                                  {EvalParams::forArch(Arch::Fallthrough)})[0];
        };

        const ProgramLayout orig = originalLayout(program);
        const std::uint64_t base = evaluate(orig).instrs;

        Table &row = table.row().cell(spec.name);
        row.cell(evaluate(orig).relativeCpi(base), 3);
        row.cell(evaluate(alignProgram(program, AlignerKind::Greedy,
                                       nullptr))
                     .relativeCpi(base),
                 3);
        row.cell(evaluate(alignProgram(program, AlignerKind::Cost, &model))
                     .relativeCpi(base),
                 3);

        double try15_ms = 0.0;
        for (std::size_t n : sizes) {
            AlignOptions options;
            options.groupSize = n;
            const auto start = std::chrono::steady_clock::now();
            const ProgramLayout layout =
                alignProgram(program, AlignerKind::Try15, &model, options);
            const auto stop = std::chrono::steady_clock::now();
            if (n == 15) {
                try15_ms =
                    std::chrono::duration<double, std::milli>(stop - start)
                        .count();
            }
            row.cell(evaluate(layout).relativeCpi(base), 3);
        }
        std::fprintf(stderr, "align ms (Try15) %s: %.1f\n",
                     spec.name.c_str(), try15_ms);
    }

    std::cout << "Ablation: TryN group size on the FALLTHROUGH architecture "
                 "(relative CPI)\n\n";
    table.print(std::cout);
    return 0;
}
