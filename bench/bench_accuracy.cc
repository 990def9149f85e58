/**
 * @file
 * Prediction-accuracy study (paper §4 framing): "static prediction
 * mechanisms, particularly profile-based methods, accurately predict
 * 70-90% of the conditional branches; many current computer architectures
 * use dynamic prediction ... to accurately predict 90-95% of the
 * branches." This harness measures conditional direction accuracy per
 * architecture (original layout) across the suite, including the Yeh-Patt
 * local two-level extension.
 */

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
    const Arch archs[] = {Arch::Fallthrough, Arch::BtFnt,  Arch::Likely,
                          Arch::PhtDirect,   Arch::PhtCorrelated,
                          Arch::PhtLocal,    Arch::BtbLarge};
    std::vector<EvalParams> lanes;
    for (Arch arch : archs)
        lanes.push_back(EvalParams::forArch(arch));

    Table table({"Program", "FALLTHRU", "BT/FNT", "LIKELY", "PHT", "COR",
                 "LOCAL", "BTB256"});
    std::vector<double> sums(std::size(archs), 0.0);
    std::size_t count = 0;

    for (const auto &spec : bench::tunedSuite(benchmarkSuite())) {
        const PreparedProgram prepared = prepareProgram(spec);
        const ProgramLayout layout = originalLayout(prepared.program);
        const std::vector<EvalResult> results = runBatchReplay(
            prepared.program, layout, *prepared.batch, lanes);

        Table &row = table.row().cell(spec.name);
        for (std::size_t a = 0; a < std::size(archs); ++a) {
            const double accuracy = results[a].condAccuracy();
            row.cell(accuracy, 1);
            sums[a] += accuracy;
        }
        ++count;
    }

    Table &avg = table.separator().row().cell("Average");
    for (std::size_t a = 0; a < std::size(archs); ++a)
        avg.cell(sums[a] / static_cast<double>(count), 1);

    std::cout << "Conditional branch prediction accuracy (%), original "
                 "layout\n(paper: profile-based static 70-90%; dynamic "
                 "90-95%)\n\n";
    table.print(std::cout);
    return 0;
}
