/**
 * @file
 * Tests for profiling (profileProgram, sim/batch_replay.h): edge weights,
 * break-type counters and the Table-2 statistics record, checked against
 * hand-computable CFGs.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cfg/builder.h"
#include "event_log.h"
#include "sim/batch_replay.h"
#include "trace/walker.h"

using namespace balign;

namespace {

/// entry -> loop(cond, self x bias) -> tail(uncond) -> ret.
Program
mixedProgram()
{
    Program program("mixed");
    const ProcId main_id = program.addProc("main");
    const ProcId leaf_id = program.addProc("leaf");
    {
        Procedure &proc = program.proc(main_id);
        CfgBuilder b(proc);
        const BlockId entry = b.block(2, Terminator::FallThrough);
        const BlockId loop = b.block(4, Terminator::CondBranch);
        const BlockId tail = b.block(2, Terminator::UncondBranch);
        const BlockId ret = b.block(1, Terminator::Return);
        b.fallThrough(entry, loop, 0, 1.0);
        b.taken(loop, loop, 0, 0.8);
        b.fallThrough(loop, tail, 0, 0.2);
        b.taken(tail, ret, 0, 1.0);
        b.call(entry, leaf_id, 0);
    }
    {
        CfgBuilder b(program.proc(leaf_id));
        b.block(3, Terminator::Return);
    }
    return program;
}

}  // namespace

TEST(Profiler, WeightsAreFlowConserving)
{
    Program program = mixedProgram();
    WalkOptions options;
    options.instrBudget = 100'000;
    profileProgram(program, options);

    const Procedure &proc = program.proc(0);
    // Flow into the loop block equals flow out of it (self edge counted on
    // both sides), modulo the at-most-one truncated run at budget end.
    const Weight in = proc.blockWeight(1);
    Weight out = 0;
    for (auto index : proc.block(1).outEdges)
        out += proc.edge(index).weight;
    EXPECT_NEAR(static_cast<double>(in), static_cast<double>(out), 1.0);
}

TEST(Profiler, CountsBreakTypes)
{
    Program program = mixedProgram();
    WalkOptions options;
    options.instrBudget = 50'000;
    options.restartOnExit = true;
    const ProgramStats stats = profileProgram(program, options);

    EXPECT_GT(stats.condBranches, 0u);
    EXPECT_GT(stats.takenCondBranches, 0u);
    EXPECT_GT(stats.uncondBranches, 0u);
    EXPECT_GT(stats.calls, 0u);
    EXPECT_GT(stats.returns, 0u);
    EXPECT_EQ(stats.indirectJumps, 0u);

    // Each completed run: 1 uncond; cond branches >= uncond (loop).
    EXPECT_GE(stats.condBranches, stats.uncondBranches);
    // Every call returns (leaf always returns; main's returns end runs).
    EXPECT_GE(stats.returns, stats.calls);
}

TEST(Profiler, InstrsTracedMatchesWalkResult)
{
    Program program = mixedProgram();
    WalkOptions options;
    options.instrBudget = 30'000;
    WalkResult result;
    const ProgramStats stats =
        applyTraceProfile(program, walkBatchTrace(program, options, &result));
    EXPECT_EQ(stats.instrsTraced, result.instrs);
}

TEST(Profiler, TakenFractionMatchesBias)
{
    Program program = mixedProgram();
    WalkOptions options;
    options.instrBudget = 400'000;
    const ProgramStats stats = profileProgram(program, options);
    EXPECT_NEAR(stats.pctTaken(), 80.0, 2.0);
}

TEST(Profiler, StaticStatsFilled)
{
    Program program = mixedProgram();
    WalkOptions options;
    options.instrBudget = 50'000;
    const ProgramStats stats = profileProgram(program, options);

    EXPECT_EQ(stats.staticCondSites, 1u);
    EXPECT_EQ(stats.q50, 1u);
    EXPECT_EQ(stats.q100, 1u);
}

TEST(Profiler, PercentagesSumSensibly)
{
    Program program = mixedProgram();
    WalkOptions options;
    options.instrBudget = 50'000;
    const ProgramStats stats = profileProgram(program, options);

    const double total = stats.pctCondOfBreaks() +
                         stats.pctIndirectOfBreaks() +
                         stats.pctUncondOfBreaks() + stats.pctCallOfBreaks() +
                         stats.pctReturnOfBreaks();
    EXPECT_NEAR(total, 100.0, 1e-9);
    EXPECT_GT(stats.pctBreaks(), 0.0);
    EXPECT_LT(stats.pctBreaks(), 100.0);
}

TEST(Profiler, ReprofilingAfterClearMatches)
{
    Program program = mixedProgram();
    WalkOptions options;
    options.instrBudget = 20'000;

    profileProgram(program, options);
    std::vector<Weight> weights_a;
    for (const auto &edge : program.proc(0).edges())
        weights_a.push_back(edge.weight);

    program.clearWeights();
    profileProgram(program, options);
    std::vector<Weight> weights_b;
    for (const auto &edge : program.proc(0).edges())
        weights_b.push_back(edge.weight);

    EXPECT_EQ(weights_a, weights_b);
}

TEST(Profiler, ProfilesAddOntoExistingWeights)
{
    Program program = mixedProgram();
    WalkOptions options;
    options.instrBudget = 20'000;

    profileProgram(program, options);
    std::vector<Weight> once;
    for (const auto &edge : program.proc(0).edges())
        once.push_back(edge.weight);

    // The same walk again sums onto the first profile.
    profileProgram(program, options);
    std::vector<Weight> twice;
    for (const auto &edge : program.proc(0).edges())
        twice.push_back(edge.weight);

    ASSERT_EQ(once.size(), twice.size());
    for (std::size_t i = 0; i < once.size(); ++i)
        EXPECT_EQ(twice[i], 2 * once[i]) << i;
}

TEST(Profiler, IndirectEdgesTakeTheirOwnCounts)
{
    Program program("switch");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId sw = b.block(2, Terminator::IndirectJump);
    const BlockId c0 = b.block(1, Terminator::Return);
    const BlockId c1 = b.block(1, Terminator::Return);
    const BlockId c2 = b.block(1, Terminator::Return);
    b.other(sw, c0, 0, 3.0);
    b.other(sw, c1, 0, 1.0);
    b.other(sw, c2, 0, 0.0);

    WalkOptions options;
    options.instrBudget = 10'000;
    LogSink log;
    walk(program, options, log);
    std::vector<Weight> traversals(proc.numEdges(), 0);
    for (const auto &[op, p, index, offset] : log.log)
        if (op == 3)
            ++traversals[index];

    const ProgramStats stats = profileProgram(program, options);
    Weight total = 0;
    for (std::uint32_t e = 0; e < proc.numEdges(); ++e) {
        EXPECT_EQ(proc.edge(e).weight, traversals[e]) << e;
        total += proc.edge(e).weight;
    }
    const auto &targets = proc.block(sw).outEdges;
    EXPECT_GT(traversals[targets[0]], traversals[targets[1]]);
    EXPECT_GT(traversals[targets[1]], 0u);
    EXPECT_EQ(traversals[targets[2]], 0u);
    EXPECT_EQ(stats.indirectJumps, total);
}
