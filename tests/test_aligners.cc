/**
 * @file
 * Tests for the three alignment algorithms: Greedy (Pettis–Hansen), Cost
 * and Try15 — chain formation rules, the paper's worked examples, and the
 * algorithm-ranking properties the paper reports.
 */

#include <gtest/gtest.h>

#include "cfg/builder.h"
#include "core/align_program.h"
#include "core/cost_align.h"
#include "core/greedy.h"
#include "core/try15.h"
#include "layout/materialize.h"
#include "trace/walker.h"
#include "workload/paper_figures.h"

using namespace balign;

// ---- edge ordering -----------------------------------------------------------

TEST(AlignableEdges, SortedByWeightStably)
{
    Procedure proc(0, "p");
    CfgBuilder b(proc);
    const BlockId a = b.block(2, Terminator::CondBranch);
    const BlockId c = b.block(2, Terminator::FallThrough);
    const BlockId d = b.block(1, Terminator::Return);
    b.fallThrough(a, c, 50);
    b.taken(a, d, 100);
    b.fallThrough(c, d, 50);

    const auto edges = alignableEdgesByWeight(proc);
    ASSERT_EQ(edges.size(), 3u);
    EXPECT_EQ(proc.edge(edges[0]).weight, 100u);
    // Equal-weight edges keep insertion order (stability).
    EXPECT_EQ(proc.edge(edges[1]).weight, 50u);
    EXPECT_LT(edges[1], edges[2]);
}

TEST(AlignableEdges, ExcludesIndirectTargets)
{
    Procedure proc(0, "p");
    CfgBuilder b(proc);
    const BlockId sw = b.block(2, Terminator::IndirectJump);
    const BlockId c0 = b.block(1, Terminator::Return);
    b.other(sw, c0, 1000);
    EXPECT_TRUE(alignableEdgesByWeight(proc).empty());
}

// ---- Greedy -----------------------------------------------------------------

TEST(Greedy, LinksHeaviestEdgesFirst)
{
    Procedure proc(0, "p");
    CfgBuilder b(proc);
    const BlockId head = b.block(2, Terminator::CondBranch);
    const BlockId cold = b.block(2, Terminator::FallThrough);
    const BlockId hot = b.block(3, Terminator::FallThrough);
    const BlockId join = b.block(1, Terminator::Return);
    b.fallThrough(head, cold, 100);
    b.taken(head, hot, 900);
    b.fallThrough(cold, join, 100);
    b.fallThrough(hot, join, 900);

    GreedyAligner aligner;
    const ChainSet chains = aligner.alignProc(proc);
    // head->hot (900) links first, then hot->join (900), cold loses both.
    EXPECT_EQ(chains.next(head), hot);
    EXPECT_EQ(chains.next(hot), join);
    EXPECT_EQ(chains.next(cold), kNoBlock);
}

TEST(Greedy, Figure3LeavesLoopUnchanged)
{
    // The paper's Figure 3: Greedy links A->B and B->C first (the ties are
    // processed in edge order), so C->A would close a cycle and the code
    // is left in its original layout.
    const Program program = figure3Loop();
    const ProgramLayout layout =
        alignProgram(program, AlignerKind::Greedy, nullptr);
    EXPECT_EQ(layout.procs[0].order,
              (std::vector<BlockId>{0, 1, 2, 3, 4}));
    EXPECT_EQ(layout.procs[0].jumpsInserted, 0u);
    EXPECT_EQ(layout.procs[0].jumpsRemoved, 0u);
}

TEST(Greedy, DoesNotWantCostModel)
{
    GreedyAligner aligner;
    EXPECT_FALSE(aligner.wantsCostModelMaterialization());
    EXPECT_EQ(aligner.name(), "greedy");
}

// ---- blockAlignCost -----------------------------------------------------------

TEST(BlockAlignCost, CondRealizationSelection)
{
    Procedure proc(0, "p");
    CfgBuilder b(proc);
    const BlockId head = b.block(2, Terminator::CondBranch);
    const BlockId cold = b.block(2, Terminator::Return);
    const BlockId hot = b.block(3, Terminator::Return);
    b.fallThrough(head, cold, 10);
    b.taken(head, hot, 90);

    const CostModel model(Arch::Fallthrough);
    // Linked to the fall successor: taken edge (90) mispredicts.
    const double fall_adj = blockAlignCost(proc, model, head, cold);
    EXPECT_DOUBLE_EQ(fall_adj, 90 * 5.0 + 10 * 1.0);
    // Linked to the taken successor (inverted): only 10 mispredicts.
    const double taken_adj = blockAlignCost(proc, model, head, hot);
    EXPECT_DOUBLE_EQ(taken_adj, 10 * 5.0 + 90 * 1.0);
    // Unlinked: best branch-plus-jump realization.
    const double unlinked = blockAlignCost(proc, model, head, kNoBlock);
    EXPECT_DOUBLE_EQ(unlinked,
                     std::min(90 * 5.0 + 10 * 1.0 + 10 * 2.0,
                              10 * 5.0 + 90 * 1.0 + 90 * 2.0));
}

TEST(BlockAlignCost, SingleExitBlocks)
{
    Procedure proc(0, "p");
    CfgBuilder b(proc);
    const BlockId u = b.block(2, Terminator::UncondBranch);
    const BlockId f = b.block(2, Terminator::FallThrough);
    const BlockId r = b.block(1, Terminator::Return);
    b.taken(u, r, 40);
    b.fallThrough(f, r, 60);

    const CostModel model(Arch::Likely);
    EXPECT_DOUBLE_EQ(blockAlignCost(proc, model, u, r), 0.0);
    EXPECT_DOUBLE_EQ(blockAlignCost(proc, model, u, kNoBlock), 80.0);
    EXPECT_DOUBLE_EQ(blockAlignCost(proc, model, f, r), 0.0);
    EXPECT_DOUBLE_EQ(blockAlignCost(proc, model, f, kNoBlock), 120.0);
    EXPECT_DOUBLE_EQ(blockAlignCost(proc, model, r, kNoBlock), 0.0);
}

// ---- Cost aligner -------------------------------------------------------------

TEST(CostAligner, RefusesHotSelfLoopLinkOnFallthrough)
{
    // A hot self-loop cannot be linked anyway (self links are cycles), but
    // the Cost aligner must also refuse to link the loop's cold EXIT edge
    // as the fall-through when the loop transformation is cheaper... the
    // exit edge costs nothing extra, so instead verify the decisive case:
    // linking the exit must not prevent the materializer's loop
    // transformation, and the hot edge S->D where linking hurts is
    // refused.
    Program program("loop");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId entry = b.block(2, Terminator::FallThrough);
    const BlockId loop = b.block(4, Terminator::CondBranch);
    const BlockId exit = b.block(1, Terminator::Return);
    b.fallThrough(entry, loop, 10);
    b.taken(loop, loop, 990);
    b.fallThrough(loop, exit, 10);

    const CostModel model(Arch::Fallthrough);
    CostAligner aligner(model);
    const ChainSet chains = aligner.alignProc(proc);
    // Linking loop->exit (FallAdjacent) costs 990*5 + 10*1; leaving the
    // loop unlinked costs 990*3 + 10*5 — unlinked wins, so the Cost
    // aligner must NOT link the exit edge.
    EXPECT_EQ(chains.next(loop), kNoBlock);

    // End-to-end: the materializer then applies the jump transformation.
    const ProgramLayout layout =
        alignProgram(program, AlignerKind::Cost, &model);
    EXPECT_EQ(layout.procs[0].blocks[loop].cond,
              CondRealization::NeitherJumpToTaken);
}

TEST(CostAligner, LeavesSlotForBetterPredecessor)
{
    // Two predecessors of d with equal edge weight 100: s is a
    // conditional whose best unlinked realization already avoids most of
    // the jump cost (benefit 160), p is an unconditional branch whose
    // link removes the jump outright (benefit 200). s->d is processed
    // first (lower edge index), but the predecessor check must leave the
    // slot for p.
    Program program("pred");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId x = b.block(1, Terminator::Return);        // 0 = entry
    const BlockId s_blk = b.block(2, Terminator::CondBranch);  // 1
    const BlockId p_blk = b.block(2, Terminator::UncondBranch);  // 2
    const BlockId d = b.block(3, Terminator::Return);        // 3
    b.fallThrough(s_blk, d, 100);
    b.taken(s_blk, x, 120);
    b.taken(p_blk, d, 100);

    const CostModel model(Arch::Fallthrough);
    // Sanity of the hand-computed benefits.
    const double s_unlinked = blockAlignCost(proc, model, s_blk, kNoBlock);
    const double s_linked = blockAlignCost(proc, model, s_blk, d);
    EXPECT_DOUBLE_EQ(s_unlinked, 860.0);  // jump-to-taken variant
    EXPECT_DOUBLE_EQ(s_linked, 700.0);
    const double p_benefit =
        blockAlignCost(proc, model, p_blk, kNoBlock) -
        blockAlignCost(proc, model, p_blk, d);
    EXPECT_DOUBLE_EQ(p_benefit, 200.0);

    CostAligner aligner(model);
    const ChainSet chains = aligner.alignProc(proc);
    EXPECT_EQ(chains.next(s_blk), kNoBlock);
    EXPECT_EQ(chains.next(p_blk), d);
}

// ---- Try15 ---------------------------------------------------------------------

TEST(Try15, Figure3RotatesLoop)
{
    const Program program = figure3Loop();
    const CostModel model(Arch::Likely);
    const ProgramLayout layout =
        alignProgram(program, AlignerKind::Try15, &model);
    // Rotation E,B,C,A,D: the loop-closing jump is gone and A's sense is
    // inverted (paper Figure 3).
    EXPECT_EQ(layout.procs[0].order,
              (std::vector<BlockId>{0, 2, 3, 1, 4}));
    EXPECT_EQ(layout.procs[0].jumpsRemoved, 1u);
    EXPECT_EQ(layout.procs[0].sensesInverted, 1u);
}

TEST(Try15, GroupSizeOneStillBeatsNothing)
{
    const Program program = figure3Loop();
    const CostModel model(Arch::Likely);
    AlignOptions options;
    options.groupSize = 1;
    const ProgramLayout layout =
        alignProgram(program, AlignerKind::Try15, &model, options);
    // With one edge at a time the search degenerates to a cost-greedy
    // pass; the layout must still be a valid permutation.
    std::vector<bool> seen(program.proc(0).numBlocks(), false);
    for (BlockId id : layout.procs[0].order) {
        EXPECT_FALSE(seen[id]);
        seen[id] = true;
    }
}

TEST(Try15, MinWeightFiltersColdEdges)
{
    // All edges weight 1: with the paper's minEdgeWeight=2 none are
    // searched, but the tidy pass still links beneficial cold edges.
    Program program("cold");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId a = b.block(2, Terminator::FallThrough);
    const BlockId c = b.block(1, Terminator::Return);
    b.fallThrough(a, c, 1);

    const CostModel model(Arch::Likely);
    Try15Aligner aligner(model, AlignOptions{});
    const ChainSet chains = aligner.alignProc(proc);
    EXPECT_EQ(chains.next(a), c);  // tidy pass keeps the fall-through
}

TEST(Try15, NameReflectsGroupSize)
{
    const CostModel model(Arch::Likely);
    AlignOptions options;
    options.groupSize = 10;
    Try15Aligner aligner(model, options);
    EXPECT_EQ(aligner.name(), "try10");
    EXPECT_TRUE(aligner.wantsCostModelMaterialization());
}

TEST(Try15, TidyPassDoesNotUndoLoopTransformation)
{
    // Hot self-loop on FALLTHROUGH: the search decides "align neither";
    // the tidy pass must not link the cold exit edge if that would make
    // the modelled cost worse. (Linking the exit edge is actually
    // harmless — FallAdjacent vs NeitherJumpToTaken is decided by the
    // materializer — but the invariant that tidy never increases modelled
    // cost must hold.)
    Program program("loop");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId entry = b.block(2, Terminator::FallThrough);
    const BlockId loop = b.block(4, Terminator::CondBranch);
    const BlockId exit = b.block(1, Terminator::Return);
    b.fallThrough(entry, loop, 10);
    b.taken(loop, loop, 990);
    b.fallThrough(loop, exit, 10);

    const CostModel model(Arch::Fallthrough);
    Try15Aligner aligner(model, AlignOptions{});
    const ChainSet chains = aligner.alignProc(proc);

    double cost = 0.0;
    for (BlockId id = 0; id < proc.numBlocks(); ++id)
        cost += blockAlignCost(proc, model, id, chains.next(id));
    // The unlinked loop block costs 990*3 + 10*5 = 3020; entry linked = 0.
    EXPECT_LE(cost, 3020.0 + 1e-9);
}

// ---- program-level driver --------------------------------------------------------

TEST(AlignProgram, OriginalKindReturnsIdentity)
{
    const Program program = figure3Loop();
    const ProgramLayout layout =
        alignProgram(program, AlignerKind::Original, nullptr);
    EXPECT_EQ(layout.procs[0].order,
              (std::vector<BlockId>{0, 1, 2, 3, 4}));
    EXPECT_EQ(layout.totalInstrs, program.totalInstrs());
}

TEST(AlignProgram, KindNames)
{
    EXPECT_STREQ(alignerKindName(AlignerKind::Original), "original");
    EXPECT_STREQ(alignerKindName(AlignerKind::Greedy), "greedy");
    EXPECT_STREQ(alignerKindName(AlignerKind::Cost), "cost");
    EXPECT_STREQ(alignerKindName(AlignerKind::Try15), "try15");
}

TEST(AlignProgramDeath, CostAlignerRequiresModel)
{
    const Program program = figure3Loop();
    EXPECT_DEATH(alignProgram(program, AlignerKind::Cost, nullptr),
                 "needs a cost model");
}

TEST(AlignProgram, DirectionIterationsConverge)
{
    // Multiple direction-refinement iterations must yield a valid layout
    // and never a worse modelled cost than a single pass on BT/FNT.
    const Program program = figure3Loop();
    const CostModel model(Arch::BtFnt);
    AlignOptions one;
    one.directionIterations = 1;
    AlignOptions three;
    three.directionIterations = 3;
    const ProgramLayout a =
        alignProgram(program, AlignerKind::Try15, &model, one);
    const ProgramLayout b =
        alignProgram(program, AlignerKind::Try15, &model, three);
    EXPECT_EQ(a.procs[0].order.size(), b.procs[0].order.size());
    // Iterations are deterministic; repeated runs agree.
    const ProgramLayout c =
        alignProgram(program, AlignerKind::Try15, &model, three);
    EXPECT_EQ(b.procs[0].order, c.procs[0].order);
}

TEST(BlockAlignCost, PrevContextMakesChainPredecessorBackward)
{
    // loop: taken -> exit (forward), fall -> latch. With latch as the
    // chain predecessor of loop, the inverted realization's branch to
    // latch is backward and BT/FNT predicts it taken.
    Procedure proc(0, "p");
    CfgBuilder b(proc);
    const BlockId loop = b.block(4, Terminator::CondBranch);
    const BlockId latch = b.block(2, Terminator::UncondBranch);
    const BlockId exit = b.block(1, Terminator::Return);
    b.fallThrough(loop, latch, 1000);
    b.taken(loop, exit, 10);
    b.taken(latch, loop, 990);

    const CostModel model(Arch::BtFnt);
    // Without prev context: branching to latch looks forward (latch id >
    // loop id) -> predicted NT -> 1000 mispredicts in the best "neither"
    // estimate.
    const double without =
        blockAlignCost(proc, model, loop, kNoBlock);
    // With latch as chain predecessor the same branch is backward ->
    // predicted taken -> cost 2 per iteration plus the cold exit jump.
    const double with_prev =
        blockAlignCost(proc, model, loop, kNoBlock, DirOracle(), latch);
    EXPECT_LT(with_prev, without);
    // NeitherJumpToTaken with a backward hot branch: 1000*2 + 10*5 + 10*2.
    EXPECT_DOUBLE_EQ(with_prev, 1000 * 2.0 + 10 * 5.0 + 10 * 2.0);
}
