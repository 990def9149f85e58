/**
 * @file
 * Ablation (paper §6.1): chain concatenation order — hottest-first versus
 * the Pettis–Hansen BT/FNT precedence ordering — evaluated on the BT/FNT
 * architecture with the Greedy and Try15 aligners.
 *
 * The paper found hot-first performed slightly better overall on the real
 * machine (it satisfies most BT/FNT precedences anyway while improving
 * locality); on the pure BT/FNT branch model the precedence ordering
 * should be at least as good.
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

    const std::vector<ExperimentConfig> configs = {
        {Arch::BtFnt, AlignerKind::Original},
        {Arch::BtFnt, AlignerKind::Greedy},
        {Arch::BtFnt, AlignerKind::Try15},
    };

    Table table({"Program", "Orig", "Greedy/hot", "Greedy/prec", "Try15/hot",
                 "Try15/prec"});

    for (const auto &spec : bench::tunedSuite(benchmarkSuite())) {
        const PreparedProgram prepared = prepareProgram(spec);

        // runConfigs applies BT/FNT precedence ordering for the BT/FNT
        // architecture; to isolate the policy we drive the layouts by hand.
        const CostModel model(Arch::BtFnt);
        auto align_with = [&](AlignerKind kind, ChainOrderPolicy policy) {
            AlignOptions options;
            options.chainOrder = policy;
            return alignProgram(prepared.program, kind, &model, options);
        };
        const ProgramLayout layouts[] = {
            originalLayout(prepared.program),
            align_with(AlignerKind::Greedy, ChainOrderPolicy::HotFirst),
            align_with(AlignerKind::Greedy,
                       ChainOrderPolicy::BtFntPrecedence),
            align_with(AlignerKind::Try15, ChainOrderPolicy::HotFirst),
            align_with(AlignerKind::Try15,
                       ChainOrderPolicy::BtFntPrecedence),
        };
        std::vector<LayoutLanes> input;
        for (const ProgramLayout &layout : layouts)
            input.push_back({&layout, {EvalParams::forArch(Arch::BtFnt)}});
        const std::vector<std::vector<EvalResult>> results =
            runBatchReplay(prepared.program, input, *prepared.batch);
        const std::uint64_t base = results[0][0].instrs;

        Table &row = table.row().cell(spec.name);
        for (const std::vector<EvalResult> &result : results)
            row.cell(result[0].relativeCpi(base), 3);
    }

    std::cout << "Ablation: chain ordering policy on the BT/FNT "
                 "architecture (relative CPI)\n\n";
    table.print(std::cout);
    return 0;
}
