/**
 * @file
 * Paper Figure 2 walk-through: ALVINN's input_hidden routine — a single
 * 11-instruction basic block accounting for nearly all branches. Shows the
 * sense-inversion + inserted-jump loop transformation (paper §3/§4): under
 * the FALLTHROUGH model the original loop costs 5 cycles of branch work
 * per iteration; the transformed loop costs 3.
 */

#include <cstdio>

#include "core/align_program.h"
#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "trace/walker.h"
#include "workload/paper_figures.h"

using namespace balign;

int
main()
{
    const Program program = figure2Alvinn();
    std::printf("Figure 2: ALVINN input_hidden — a single-block loop\n\n");

    const CostModel ft_model(Arch::Fallthrough);

    // Per-iteration costs straight from the cost model (paper §4).
    const double per_iter_orig =
        ft_model.condRealizationCost(1, 0, CondRealization::FallAdjacent,
                                     DirHint::Backward, DirHint::Forward);
    const double per_iter_new = ft_model.condRealizationCost(
        1, 0, CondRealization::NeitherJumpToTaken, DirHint::Backward,
        DirHint::Forward);
    std::printf("FALLTHROUGH cost per loop iteration:\n");
    std::printf("  original (taken back edge):        %.0f cycles\n",
                per_iter_orig);
    std::printf("  inverted sense + jump:             %.0f cycles\n",
                per_iter_new);

    // End to end: align and measure.
    const ProgramLayout original = originalLayout(program);
    const ProgramLayout aligned =
        alignProgram(program, AlignerKind::Try15, &ft_model);

    WalkOptions options;
    options.seed = 7;
    options.instrBudget = 1'000'000;

    const BatchTrace trace = walkBatchTrace(program, options);
    const std::vector<EvalParams> ft = {
        EvalParams::forArch(Arch::Fallthrough)};
    const std::vector<std::vector<EvalResult>> ft_results = runBatchReplay(
        program, {{&original, ft}, {&aligned, ft}}, trace);
    const EvalResult &orig_eval = ft_results[0][0];
    const EvalResult &aligned_eval = ft_results[1][0];

    const auto base = orig_eval.instrs;
    std::printf("\nmeasured over %llu instructions:\n",
                static_cast<unsigned long long>(base));
    std::printf("  original relative CPI: %.3f (%.1f%% fall-through)\n",
                orig_eval.relativeCpi(base), orig_eval.pctFallThrough());
    std::printf("  aligned  relative CPI: %.3f (%.1f%% fall-through)\n",
                aligned_eval.relativeCpi(base),
                aligned_eval.pctFallThrough());

    // BT/FNT for contrast: the backward-taken loop is already predicted.
    const CostModel bf_model(Arch::BtFnt);
    const ProgramLayout bf_aligned =
        alignProgram(program, AlignerKind::Try15, &bf_model);
    const std::vector<EvalParams> bf = {EvalParams::forArch(Arch::BtFnt)};
    const std::vector<std::vector<EvalResult>> bf_results = runBatchReplay(
        program, {{&original, bf}, {&bf_aligned, bf}}, trace);
    std::printf("\nBT/FNT (no transformation expected):\n");
    std::printf("  original relative CPI: %.3f\n",
                bf_results[0][0].relativeCpi(base));
    std::printf("  aligned  relative CPI: %.3f\n",
                bf_results[1][0].relativeCpi(base));
    return 0;
}
