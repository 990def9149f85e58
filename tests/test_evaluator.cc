/**
 * @file
 * The paper's penalty rules against hand-computed counts: a
 * deterministic (patterned) loop is walked once and every architecture's
 * misfetch/mispredict tallies are checked exactly, through both the
 * batched replay engine and the oracle.
 */

#include <gtest/gtest.h>

#include "cfg/builder.h"
#include "layout/materialize.h"
#include "replay_util.h"

using namespace balign;

namespace {

/**
 * entry(2 instrs) -> loop(4 instrs, cond) -> exit(1 instr, return).
 * The loop branch follows the fixed pattern T,T,T,N, so one run executes
 * the loop block four times: instrs = 2 + 16 + 1 = 19.
 */
Program
patternedLoop()
{
    Program program("ploop");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId entry = b.block(2, Terminator::FallThrough);
    const BlockId loop = b.block(4, Terminator::CondBranch);
    const BlockId exit = b.block(1, Terminator::Return);
    b.fallThrough(entry, loop, 1);
    b.taken(loop, loop, 3);
    b.fallThrough(loop, exit, 1);
    proc.block(loop).patternLength = 4;
    proc.block(loop).patternMask = 0b0111;
    return program;
}

EvalResult
runOnce(const Program &program, const ProgramLayout &layout, Arch arch)
{
    WalkOptions options;
    options.instrBudget = 1000;
    options.restartOnExit = false;
    return replayBoth(program, layout, options, EvalParams::forArch(arch));
}

}  // namespace

TEST(Evaluator, InstructionCountIdentityLayout)
{
    const Program program = patternedLoop();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::Fallthrough);
    EXPECT_EQ(result.instrs, 19u);
    EXPECT_EQ(result.condExec, 4u);
    EXPECT_EQ(result.condTaken, 3u);
    EXPECT_EQ(result.returnExec, 1u);  // the run-ending return
}

TEST(Evaluator, FallthroughPenalties)
{
    const Program program = patternedLoop();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::Fallthrough);
    // Three taken iterations mispredicted; final not-taken correct.
    EXPECT_EQ(result.mispredicts, 3u);
    EXPECT_EQ(result.misfetches, 0u);
    EXPECT_DOUBLE_EQ(result.bep(), 12.0);
    EXPECT_DOUBLE_EQ(result.relativeCpi(19), (19.0 + 12.0) / 19.0);
    EXPECT_DOUBLE_EQ(result.pctFallThrough(), 25.0);
}

TEST(Evaluator, BtFntPenalties)
{
    const Program program = patternedLoop();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::BtFnt);
    // Backward loop branch predicted taken: 3 correct-taken misfetches,
    // the exit mispredicted.
    EXPECT_EQ(result.misfetches, 3u);
    EXPECT_EQ(result.mispredicts, 1u);
    EXPECT_DOUBLE_EQ(result.bep(), 7.0);
}

TEST(Evaluator, LikelyPenalties)
{
    const Program program = patternedLoop();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::Likely);
    // Likely bit = taken (3 of 4): same counts as BT/FNT here.
    EXPECT_EQ(result.misfetches, 3u);
    EXPECT_EQ(result.mispredicts, 1u);
}

TEST(Evaluator, PhtDirectPenalties)
{
    const Program program = patternedLoop();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::PhtDirect);
    // Counter starts weakly-NT: T(miss), T(hit), T(hit), N(miss).
    EXPECT_EQ(result.mispredicts, 2u);
    EXPECT_EQ(result.misfetches, 2u);
    EXPECT_EQ(result.condMispredicts, 2u);
}

TEST(Evaluator, GsharePenalties)
{
    const Program program = patternedLoop();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::PhtCorrelated);
    // Fresh table, shifting history: the three taken executions all index
    // fresh weakly-NT counters (mispredict); the final not-taken one is
    // correct.
    EXPECT_EQ(result.mispredicts, 3u);
    EXPECT_EQ(result.misfetches, 0u);
}

TEST(Evaluator, BtbPenalties)
{
    const Program program = patternedLoop();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::BtbLarge);
    // Miss+taken (mispredict), two hits with correct target (free), final
    // not-taken against a taken counter (mispredict).
    EXPECT_EQ(result.mispredicts, 2u);
    EXPECT_EQ(result.misfetches, 0u);
    EXPECT_EQ(result.btbLookups, 4u);
    EXPECT_EQ(result.btbHits, 3u);
}

// ---- calls and returns -----------------------------------------------------

namespace {

Program
callerCallee()
{
    Program program("calls");
    const ProcId main_id = program.addProc("main");
    const ProcId leaf_id = program.addProc("leaf");
    {
        CfgBuilder b(program.proc(main_id));
        const BlockId blk = b.block(5, Terminator::Return);
        b.call(blk, leaf_id, 1);
    }
    {
        CfgBuilder b(program.proc(leaf_id));
        b.block(3, Terminator::Return);
    }
    return program;
}

}  // namespace

TEST(Evaluator, CallAndReturnPenaltiesStatic)
{
    const Program program = callerCallee();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::BtFnt);
    EXPECT_EQ(result.instrs, 8u);
    EXPECT_EQ(result.callExec, 1u);
    EXPECT_EQ(result.returnExec, 2u);  // leaf's return + main's exit
    // Call: misfetch. Leaf return: RAS correct -> misfetch. Main's exit
    // return: unpenalized (program exit).
    EXPECT_EQ(result.misfetches, 2u);
    EXPECT_EQ(result.mispredicts, 0u);
    EXPECT_EQ(result.returnMispredicts, 0u);
}

TEST(Evaluator, CallAndReturnPenaltiesBtb)
{
    const Program program = callerCallee();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::BtbLarge);
    // Cold BTB: call misses (misfetch), return misses with correct RAS
    // (misfetch).
    EXPECT_EQ(result.misfetches, 2u);
    EXPECT_EQ(result.mispredicts, 0u);
}

// ---- layout-dependent instruction accounting --------------------------------

TEST(Evaluator, InsertedJumpCountsOnlyWhenExecuted)
{
    const Program program = patternedLoop();
    // Displace the exit so the loop's fall-through needs a jump... the
    // loop's successors: itself (taken) and exit (fall). Order the exit
    // away from the loop: entry, loop, exit stays — instead force the
    // "neither adjacent" case by putting exit before loop.
    const ProgramLayout layout = materializeProgram(
        program, {{0, 2, 1}}, MaterializeOptions{});
    ASSERT_EQ(layout.procs[0].blocks[1].cond,
              CondRealization::NeitherJumpToFall);
    // The displaced entry block also needs a jump to reach the loop.
    ASSERT_TRUE(layout.procs[0].blocks[0].jumpInserted);
    const EvalResult result = runOnce(program, layout, Arch::BtFnt);
    // Both inserted jumps execute once each: 19 + 2 instructions.
    EXPECT_EQ(result.instrs, 21u);
    EXPECT_EQ(result.uncondExec, 2u);
}

TEST(Evaluator, RemovedJumpReducesInstructionCount)
{
    Program program("rm");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId a = b.block(3, Terminator::UncondBranch);
    const BlockId pad = b.block(2, Terminator::Return);
    const BlockId target = b.block(1, Terminator::Return);
    (void)pad;
    b.taken(a, target, 1);

    const ProgramLayout orig = originalLayout(program);
    const EvalResult before = runOnce(program, orig, Arch::BtFnt);
    EXPECT_EQ(before.instrs, 4u);  // a(3) + target(1)
    EXPECT_EQ(before.misfetches, 1u);  // the jump

    const ProgramLayout moved = materializeProgram(
        program, {{a, target, pad}}, MaterializeOptions{});
    const EvalResult after = runOnce(program, moved, Arch::BtFnt);
    EXPECT_EQ(after.instrs, 3u);  // jump deleted
    EXPECT_EQ(after.misfetches, 0u);
    EXPECT_EQ(after.uncondExec, 0u);
}

// ---- indirect jumps -----------------------------------------------------------

TEST(Evaluator, IndirectJumpPenalties)
{
    Program program("ind");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId sw = b.block(2, Terminator::IndirectJump);
    const BlockId c0 = b.block(1, Terminator::Return);
    b.other(sw, c0, 1, 1.0);

    const ProgramLayout layout = originalLayout(program);
    // Static architectures: every indirect jump mispredicts.
    const EvalResult stat = runOnce(program, layout, Arch::Likely);
    EXPECT_EQ(stat.indirectExec, 1u);
    EXPECT_EQ(stat.mispredicts, 1u);

    // BTB: first execution misses; repeated executions with a stable
    // target hit for free.
    WalkOptions options;
    options.instrBudget = 30;  // ten runs of 3 instructions
    const EvalResult btb = replayBoth(program, layout, options,
                                      EvalParams::forArch(Arch::BtbLarge));
    EXPECT_EQ(btb.indirectExec, 10u);
    EXPECT_EQ(btb.mispredicts, 1u);
}

TEST(Evaluator, CondAccuracyMetric)
{
    const Program program = patternedLoop();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::Fallthrough);
    EXPECT_DOUBLE_EQ(result.condAccuracy(), 25.0);  // 1 of 4 correct
}
