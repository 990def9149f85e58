/**
 * @file
 * Tests for the static prediction helpers: BT/FNT direction rule and the
 * profile-derived LIKELY bits under original and transformed layouts.
 */

#include <gtest/gtest.h>

#include "bpred/static_pred.h"
#include "cfg/builder.h"
#include "layout/materialize.h"

using namespace balign;

TEST(StaticPred, FallthroughNeverTaken)
{
    EXPECT_FALSE(fallthroughPredictsTaken());
}

TEST(StaticPred, BtFntDirectionRule)
{
    EXPECT_TRUE(btFntPredictsTaken(100, 50));   // backward
    EXPECT_TRUE(btFntPredictsTaken(100, 100));  // self loop counts backward
    EXPECT_FALSE(btFntPredictsTaken(100, 101)); // forward
}

namespace {

/// head cond: taken->hot (w 90), fall->cold (w 10).
Program
skewedProgram()
{
    Program program("skew");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId head = b.block(2, Terminator::CondBranch);
    const BlockId cold = b.block(3, Terminator::Return);
    const BlockId hot = b.block(3, Terminator::Return);
    b.fallThrough(head, cold, 10);
    b.taken(head, hot, 90);
    return program;
}

}  // namespace

TEST(LikelyBits, OriginalLayoutMajorityTaken)
{
    const Program program = skewedProgram();
    const ProgramLayout layout = originalLayout(program);
    const LikelyBits bits(program, layout);
    // The CFG taken edge carries 90 of 100 executions and the original
    // layout keeps the sense: likely = taken.
    EXPECT_TRUE(bits.taken(0, 0));
}

TEST(LikelyBits, InvertedLayoutFlipsBit)
{
    const Program program = skewedProgram();
    // Put the hot block right after head: sense inverts, the realized
    // branch (to the cold block) now executes only 10 of 100 times.
    const ProgramLayout layout = materializeProgram(
        program, {{0, 2, 1}});
    ASSERT_EQ(layout.procs[0].blocks[0].cond,
              CondRealization::TakenAdjacent);
    const LikelyBits bits(program, layout);
    EXPECT_FALSE(bits.taken(0, 0));
}

TEST(LikelyBits, MultipleProceduresIndexedIndependently)
{
    Program program("multi");
    for (int i = 0; i < 2; ++i) {
        std::string name = "p";
        name += std::to_string(i);
        Procedure &proc = program.proc(program.addProc(name));
        CfgBuilder b(proc);
        const BlockId head = b.block(2, Terminator::CondBranch);
        const BlockId cold = b.block(1, Terminator::Return);
        const BlockId hot = b.block(1, Terminator::Return);
        // Procedure 0: taken-majority; procedure 1: fall-majority.
        b.fallThrough(head, cold, i == 0 ? 10 : 90);
        b.taken(head, hot, i == 0 ? 90 : 10);
    }
    const ProgramLayout layout = originalLayout(program);
    const LikelyBits bits(program, layout);
    EXPECT_TRUE(bits.taken(0, 0));
    EXPECT_FALSE(bits.taken(1, 0));
}
