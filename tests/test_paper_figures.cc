/**
 * @file
 * Tests for the reconstructed paper-figure CFGs: structural validity, flow
 * conservation, and the exact branch-cost numbers the harnesses report.
 */

#include <gtest/gtest.h>

#include "cfg/validate.h"
#include "core/align_program.h"
#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "trace/walker.h"
#include "workload/paper_figures.h"

using namespace balign;

namespace {

/// Net flow imbalance of a block: in-weight minus out-weight.
std::int64_t
imbalance(const Procedure &proc, BlockId id, Weight external_in = 0)
{
    std::int64_t net = static_cast<std::int64_t>(external_in);
    for (auto e : proc.inEdges(id))
        net += static_cast<std::int64_t>(proc.edge(e).weight);
    for (auto e : proc.outEdges(id))
        net -= static_cast<std::int64_t>(proc.edge(e).weight);
    return net;
}

}  // namespace

TEST(Figure1, ValidatesAndConservesFlow)
{
    const Program program = figure1Espresso();
    EXPECT_TRUE(validate(program).empty());
    const Procedure &proc = program.proc(0);
    // Interior nodes (paper's 25..31 = ids 1..7) conserve flow.
    for (BlockId id = 1; id <= 7; ++id)
        EXPECT_EQ(imbalance(proc, id), 0) << "node " << id;
}

TEST(Figure1, HotTakenEdgesMatchPaper)
{
    // The edges the paper says FALLTHROUGH mispredicts: 25->31, 31->25,
    // 27->29 (ids 1->7, 7->1, 3->5) are all Taken and hot.
    const Program program = figure1Espresso();
    const Procedure &proc = program.proc(0);
    auto weight_of = [&](BlockId src, BlockId dst) -> Weight {
        for (auto e : proc.outEdges(src)) {
            const Edge &edge = proc.edge(e);
            if (edge.dst == dst && edge.kind == EdgeKind::Taken)
                return edge.weight;
        }
        return 0;
    };
    EXPECT_EQ(weight_of(7, 1), 16000u);  // the "16" label
    EXPECT_EQ(weight_of(1, 7), 15000u);
    EXPECT_EQ(weight_of(3, 5), 4000u);
}

TEST(Figure1, AlignmentMakesNode25FallThroughOf31)
{
    // Paper: in the transformed code node 25 becomes the fall-through of
    // node 31 (31->25 is the hot loop edge). ids: 31 = 7, 25 = 1. The
    // FALLTHROUGH alignment must realize this (taken branches are always
    // mispredicted there); BT/FNT may legitimately keep 31->25 as a
    // backward taken branch instead.
    const Program program = figure1Espresso();
    const CostModel model(Arch::Fallthrough);
    const ProgramLayout layout =
        alignProgram(program, AlignerKind::Try15, &model);
    const auto &order = layout.procs[0].order;
    const auto pos = [&](BlockId blk) {
        return std::find(order.begin(), order.end(), blk) - order.begin();
    };
    EXPECT_EQ(pos(1), pos(7) + 1);
}

TEST(Figure1, AlignmentReducesBepOnEveryStaticArch)
{
    const Program program = figure1Espresso();
    // Use the hand-set weights as both profile and trace (biases drive a
    // stochastic walk with matching ratios).
    for (Arch arch : {Arch::Fallthrough, Arch::BtFnt, Arch::Likely}) {
        const CostModel model(arch);
        const ProgramLayout orig = originalLayout(program);
        const ProgramLayout aligned =
            alignProgram(program, AlignerKind::Try15, &model);

        WalkOptions options;
        options.seed = 77;
        options.instrBudget = 200'000;

        const std::vector<EvalParams> lanes = {EvalParams::forArch(arch)};
        const std::vector<std::vector<EvalResult>> results = runBatchReplay(
            program, {{&orig, lanes}, {&aligned, lanes}},
            walkBatchTrace(program, options));

        EXPECT_LT(results[1][0].bep(), results[0][0].bep())
            << archName(arch);
    }
}

TEST(Figure2, LoopDominatesExecution)
{
    const Program program = figure2Alvinn();
    EXPECT_TRUE(validate(program).empty());
    const Procedure &proc = program.proc(0);
    EXPECT_EQ(proc.block(1).numInstrs, 11u);  // the paper's 11-instr block
    // The self edge carries ~99% of the weight.
    const Weight self =
        proc.edge(static_cast<std::uint32_t>(proc.takenEdge(1))).weight;
    EXPECT_GT(self, proc.totalEdgeWeight() * 95 / 100);
}

TEST(Figure2, FallthroughAlignmentAppliesLoopTrick)
{
    const Program program = figure2Alvinn();
    const CostModel model(Arch::Fallthrough);
    const ProgramLayout layout =
        alignProgram(program, AlignerKind::Try15, &model);
    EXPECT_EQ(layout.procs[0].blocks[1].cond,
              CondRealization::NeitherJumpToTaken);

    // BT/FNT leaves the backward-taken loop alone.
    const CostModel bf(Arch::BtFnt);
    const ProgramLayout bf_layout =
        alignProgram(program, AlignerKind::Try15, &bf);
    EXPECT_EQ(bf_layout.procs[0].blocks[1].cond,
              CondRealization::FallAdjacent);
}

TEST(Figure3, ExactCostNumbers)
{
    // Checked end-to-end by bench_fig3_loop; here assert the layouts.
    const Program program = figure3Loop();
    EXPECT_TRUE(validate(program).empty());

    const ProgramLayout greedy =
        alignProgram(program, AlignerKind::Greedy, nullptr);
    EXPECT_EQ(greedy.procs[0].order, (std::vector<BlockId>{0, 1, 2, 3, 4}));

    const CostModel model(Arch::Likely);
    const ProgramLayout try15 =
        alignProgram(program, AlignerKind::Try15, &model);
    EXPECT_EQ(try15.procs[0].order, (std::vector<BlockId>{0, 2, 3, 1, 4}));
    EXPECT_EQ(try15.procs[0].jumpsRemoved, 1u);
    EXPECT_EQ(try15.procs[0].jumpsInserted, 1u);  // entry -> A jump
    EXPECT_EQ(try15.procs[0].sensesInverted, 1u);
    // Static size unchanged: one jump removed, one inserted.
    EXPECT_EQ(try15.totalInstrs, program.totalInstrs());
}

TEST(Figure3, CostAlignerAlsoBeatsGreedyHere)
{
    // The Cost heuristic cannot rotate the loop either (it processes edges
    // one at a time), but it must never be worse than Greedy under its
    // own cost model on this example.
    const Program program = figure3Loop();
    const CostModel model(Arch::Likely);
    const ProgramLayout cost_layout =
        alignProgram(program, AlignerKind::Cost, &model);

    WalkOptions options;
    options.seed = 5;
    options.instrBudget = 100'000;
    const ProgramLayout greedy_layout =
        alignProgram(program, AlignerKind::Greedy, nullptr);
    const std::vector<EvalParams> lanes = {
        EvalParams::forArch(Arch::Likely)};
    const std::vector<std::vector<EvalResult>> results = runBatchReplay(
        program, {{&greedy_layout, lanes}, {&cost_layout, lanes}},
        walkBatchTrace(program, options));
    EXPECT_LE(results[1][0].bep(), results[0][0].bep() * 1.001);
}
