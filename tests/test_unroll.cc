/**
 * @file
 * Tests for the block-duplication loop unroller (the paper's §3 proposed
 * extension): structural correctness, semantics preservation (iteration
 * distribution), and the predicted FALLTHROUGH/misfetch improvements.
 */

#include <gtest/gtest.h>

#include "cfg/builder.h"
#include "cfg/validate.h"
#include "core/align_program.h"
#include "core/unroll.h"
#include "layout/materialize.h"
#include "replay_util.h"
#include "sim/batch_replay.h"
#include "trace/walker.h"
#include "workload/paper_figures.h"

using namespace balign;

namespace {

Program
selfLoopProgram(double p_continue = 0.9)
{
    Program program("loop");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId entry = b.block(2, Terminator::FallThrough);
    const BlockId loop = b.block(11, Terminator::CondBranch);
    const BlockId exit = b.block(3, Terminator::Return);
    b.fallThrough(entry, loop, 0, 1.0);
    b.taken(loop, loop, 0, p_continue);
    b.fallThrough(loop, exit, 0, 1.0 - p_continue);
    return program;
}

}  // namespace

TEST(Unroll, StructureAfterFactor4)
{
    Program program = selfLoopProgram();
    const unsigned count = unrollSelfLoops(program, UnrollOptions{4});
    EXPECT_EQ(count, 1u);
    EXPECT_TRUE(validate(program).empty());

    const Procedure &proc = program.proc(0);
    // entry + 4 copies + exit.
    EXPECT_EQ(proc.numBlocks(), 6u);
    // Copies occupy ids 1..4; early copies fall through to the next.
    for (BlockId c = 1; c <= 3; ++c) {
        const auto fall =
            static_cast<std::uint32_t>(proc.fallThroughEdge(c));
        EXPECT_EQ(proc.edge(fall).dst, c + 1);
        const auto taken = static_cast<std::uint32_t>(proc.takenEdge(c));
        EXPECT_EQ(proc.edge(taken).dst, 5u);  // exit
    }
    // Last copy branches back to the head and falls into the exit.
    const auto back = static_cast<std::uint32_t>(proc.takenEdge(4));
    EXPECT_EQ(proc.edge(back).dst, 1u);
    const auto out = static_cast<std::uint32_t>(proc.fallThroughEdge(4));
    EXPECT_EQ(proc.edge(out).dst, 5u);
}

TEST(Unroll, IdentityLayoutStaysExact)
{
    Program program = selfLoopProgram();
    unrollSelfLoops(program, UnrollOptions{3});
    const ProgramLayout layout = originalLayout(program);
    EXPECT_EQ(layout.totalInstrs, program.totalInstrs());
    EXPECT_EQ(layout.procs[0].jumpsInserted, 0u);
}

TEST(Unroll, FactorBelowTwoIsNoOp)
{
    Program program = selfLoopProgram();
    UnrollOptions options;
    options.factor = 1;
    EXPECT_EQ(unrollSelfLoops(program, options), 0u);
    EXPECT_EQ(program.proc(0).numBlocks(), 3u);
}

TEST(Unroll, RespectsSizeGuard)
{
    Program program = selfLoopProgram();
    UnrollOptions options;
    options.factor = 4;
    options.maxBlockInstrs = 8;  // loop block has 11 instructions
    EXPECT_EQ(unrollSelfLoops(program, options), 0u);
}

TEST(Unroll, RespectsMinWeight)
{
    Program program = selfLoopProgram();
    UnrollOptions options;
    options.factor = 4;
    options.minWeight = 100;  // weights are all zero (unprofiled)
    EXPECT_EQ(unrollSelfLoops(program.proc(0), options), 0u);

    // After profiling, the hot loop qualifies.
    WalkOptions walk_options;
    walk_options.instrBudget = 50'000;
    profileProgram(program, walk_options);
    EXPECT_EQ(unrollSelfLoops(program.proc(0), options), 1u);
}

TEST(Unroll, IterationCountPreserved)
{
    // Unrolling must not change how much loop work executes: compare the
    // executed loop-body instructions before and after.
    Program before = selfLoopProgram(0.95);
    Program after = selfLoopProgram(0.95);
    unrollSelfLoops(after, UnrollOptions{4});

    WalkOptions options;
    options.seed = 9;
    options.instrBudget = 400'000;
    profileProgram(before, options);
    profileProgram(after, options);

    // Loop-body activations: block weight of the single loop block vs the
    // sum over the four copies.
    const Weight w_before = before.proc(0).blockWeight(1);
    Weight w_after = 0;
    for (BlockId c = 1; c <= 4; ++c)
        w_after += after.proc(0).blockWeight(c);
    // entry edges add 1 activation per run; allow 5% tolerance for the
    // stochastic draw differences.
    EXPECT_NEAR(static_cast<double>(w_after),
                static_cast<double>(w_before),
                0.05 * static_cast<double>(w_before));
}

TEST(Unroll, ReducesTakenBranchFraction)
{
    Program plain = selfLoopProgram(0.95);
    Program unrolled = selfLoopProgram(0.95);
    unrollSelfLoops(unrolled, UnrollOptions{4});

    WalkOptions options;
    options.seed = 11;
    options.instrBudget = 300'000;

    auto eval = [&](Program &program) {
        program.clearWeights();
        return profileProgram(program, options);
    };
    const ProgramStats before = eval(plain);
    const ProgramStats after = eval(unrolled);
    // One taken back edge per ~4 iterations instead of per iteration.
    EXPECT_LT(after.pctTaken(), before.pctTaken() * 0.5);
}

TEST(Unroll, ImprovesFallthroughArchitecture)
{
    // Paper §3: unrolling ALVINN's input_hidden loop "could reduce the
    // misfetch penalty for all architectures and improve the branch
    // prediction for the FALLTHROUGH architecture".
    Program plain = figure2Alvinn();
    Program unrolled = figure2Alvinn();
    unrollSelfLoops(unrolled, UnrollOptions{4});

    WalkOptions options;
    options.seed = 21;
    options.instrBudget = 500'000;

    auto bep_of = [&](Program &program, Arch arch) {
        program.clearWeights();
        profileProgram(program, options);
        const CostModel model(arch);
        const ProgramLayout layout =
            alignProgram(program, AlignerKind::Try15, &model);
        const EvalResult result = batchReplay(
            program, layout, options, {EvalParams::forArch(arch)})[0];
        // Normalize per executed instruction (programs differ in size).
        return result.bep() / static_cast<double>(result.instrs);
    };

    EXPECT_LT(bep_of(unrolled, Arch::Fallthrough),
              bep_of(plain, Arch::Fallthrough));
    EXPECT_LT(bep_of(unrolled, Arch::BtFnt), bep_of(plain, Arch::BtFnt));
}
