/**
 * @file
 * Tests for the deterministic trace walker: reproducibility, budgets,
 * bias-driven edge selection, call/return sequencing, depth caps,
 * restart-on-exit, deterministic outcome patterns and branch correlation.
 */

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cfg/builder.h"
#include "event_log.h"
#include "sim/batch_replay.h"
#include "trace/walker.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

/// Loop program: entry -> loop block (cond, self-taken) -> exit(return).
Program
loopProgram(double continue_bias)
{
    Program program("loop");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId entry = b.block(2, Terminator::FallThrough);
    const BlockId loop = b.block(4, Terminator::CondBranch);
    const BlockId exit = b.block(1, Terminator::Return);
    b.fallThrough(entry, loop, 0, 1.0);
    b.taken(loop, loop, 0, continue_bias);
    b.fallThrough(loop, exit, 0, 1.0 - continue_bias);
    return program;
}

/// Caller/callee pair: main calls "leaf" from its only block.
Program
callProgram()
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

TEST(Walker, DeterministicForSeed)
{
    const Program program = loopProgram(0.9);
    WalkOptions options;
    options.seed = 99;
    options.instrBudget = 10'000;

    const std::vector<LogSink::Entry> a = walkLog(program, options);
    const std::vector<LogSink::Entry> b = walkLog(program, options);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(a == b);
}

TEST(Walker, DifferentSeedsDiffer)
{
    const Program program = loopProgram(0.5);
    WalkOptions options;
    options.instrBudget = 10'000;
    options.seed = 1;
    const std::vector<LogSink::Entry> a = walkLog(program, options);
    options.seed = 2;
    const std::vector<LogSink::Entry> b = walkLog(program, options);
    ASSERT_FALSE(a.empty());
    EXPECT_FALSE(a == b);
}

TEST(Walker, RespectsInstrBudget)
{
    const Program program = loopProgram(0.95);
    WalkOptions options;
    options.instrBudget = 5'000;
    NullSink sink;
    const WalkResult result = walk(program, options, sink);
    EXPECT_GE(result.instrs, options.instrBudget);
    // Overshoot bounded by one block.
    EXPECT_LT(result.instrs, options.instrBudget + 10);
}

TEST(Walker, BiasControlsEdgeFrequencies)
{
    Program program = loopProgram(0.8);
    WalkOptions options;
    options.instrBudget = 400'000;
    profileProgram(program, options);

    const Procedure &proc = program.proc(0);
    const Weight taken =
        proc.edge(static_cast<std::uint32_t>(proc.takenEdge(1))).weight;
    const Weight fall =
        proc.edge(static_cast<std::uint32_t>(proc.fallThroughEdge(1)))
            .weight;
    const double frac =
        static_cast<double>(taken) / static_cast<double>(taken + fall);
    EXPECT_NEAR(frac, 0.8, 0.02);
}

TEST(Walker, RestartOnExitProducesMultipleRuns)
{
    const Program program = loopProgram(0.5);
    WalkOptions options;
    options.instrBudget = 20'000;
    NullSink sink;
    const WalkResult result = walk(program, options, sink);
    EXPECT_GT(result.runs, 1u);
}

TEST(Walker, NoRestartStopsAtFirstExit)
{
    const Program program = loopProgram(0.5);
    WalkOptions options;
    options.instrBudget = 1'000'000;
    options.restartOnExit = false;
    NullSink sink;
    const WalkResult result = walk(program, options, sink);
    EXPECT_EQ(result.runs, 1u);
    EXPECT_LT(result.instrs, options.instrBudget);
}

TEST(Walker, CallAndReturnSequencing)
{
    const Program program = callProgram();
    WalkOptions options;
    options.instrBudget = 8;  // exactly one run: 5 + 3 instructions
    options.restartOnExit = false;
    // Logs each event as its kind and procedure.
    struct KindSink : EventSink
    {
        std::vector<std::pair<char, ProcId>> events;
        void onBlock(ProcId proc, BlockId) override
        {
            events.emplace_back('B', proc);
        }
        void onCall(ProcId proc, BlockId, const CallSite &) override
        {
            events.emplace_back('C', proc);
        }
        void onReturn(ProcId proc, BlockId, const CallSite &) override
        {
            events.emplace_back('R', proc);
        }
        void onEdge(ProcId, std::uint32_t) override {}
        void onExit() override { events.emplace_back('X', kNoProc); }
    } sink;
    const WalkResult result = walk(program, options, sink);
    EXPECT_EQ(result.calls, 1u);
    EXPECT_EQ(result.instrs, 8u);

    // Expected event order: Block(main), Call, Block(leaf), Return, Exit.
    const std::vector<std::pair<char, ProcId>> expected = {
        {'B', 0}, {'C', 0}, {'B', 1}, {'R', 0}, {'X', kNoProc}};
    EXPECT_EQ(sink.events, expected);
}

TEST(Walker, DepthCapSkipsCalls)
{
    // Self-recursive procedure: main calls itself.
    Program program("recursive");
    const ProcId main_id = program.addProc("main");
    {
        CfgBuilder b(program.proc(main_id));
        const BlockId blk = b.block(4, Terminator::Return);
        b.call(blk, main_id, 1);
    }
    WalkOptions options;
    options.instrBudget = 10'000;
    NullSink sink;
    const WalkResult result = walk(program, options, sink);
    EXPECT_GT(result.skippedCalls, 0u);
    EXPECT_GT(result.calls, 0u);
}

TEST(Walker, PatternedBranchFollowsMask)
{
    Program program = loopProgram(0.5);
    // Fixed trip count of 4: taken, taken, taken, not-taken.
    BasicBlock &loop = program.proc(0).block(1);
    loop.patternLength = 4;
    loop.patternMask = 0b0111;

    WalkOptions options;
    options.instrBudget = 100'000;
    profileProgram(program, options);

    const Procedure &proc = program.proc(0);
    const Weight taken =
        proc.edge(static_cast<std::uint32_t>(proc.takenEdge(1))).weight;
    const Weight fall =
        proc.edge(static_cast<std::uint32_t>(proc.fallThroughEdge(1)))
            .weight;
    EXPECT_NEAR(static_cast<double>(taken) /
                    static_cast<double>(taken + fall),
                0.75, 0.01);
}

TEST(Walker, CorrelatedBranchTracksController)
{
    // Two conditionals in sequence; the second repeats the first outcome.
    Program program("corr");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId first = b.block(2, Terminator::CondBranch);
    const BlockId mid = b.block(2, Terminator::CondBranch);
    const BlockId t1 = b.block(1, Terminator::FallThrough);
    const BlockId exit = b.block(1, Terminator::Return);
    b.fallThrough(first, mid, 0, 0.5);
    b.taken(first, mid, 0, 0.5);  // both sides reach mid... (not allowed:
                                  // taken edge to same as fall is fine)
    b.fallThrough(mid, t1, 0, 0.5);
    b.taken(mid, exit, 0, 0.5);
    b.fallThrough(t1, exit, 0, 1.0);
    proc.block(mid).correlatedWith = first;
    proc.block(mid).correlatedInvert = false;

    // Count agreement between the two branches over a long walk.
    struct AgreeSink : NullSink
    {
        const Procedure &proc;
        BlockId first, mid;
        int firstTaken = -1;
        std::uint64_t agree = 0, total = 0;
        AgreeSink(const Procedure &p, BlockId f, BlockId m)
            : proc(p), first(f), mid(m)
        {
        }
        void
        onEdge(ProcId, std::uint32_t index) override
        {
            const Edge &edge = proc.edge(index);
            const bool taken = edge.kind == EdgeKind::Taken;
            if (edge.src == first) {
                firstTaken = taken;
            } else if (edge.src == mid && firstTaken >= 0) {
                ++total;
                agree += (firstTaken == 1) == taken;
            }
        }
    } sink(proc, first, mid);

    WalkOptions options;
    options.instrBudget = 50'000;
    walk(program, options, sink);
    ASSERT_GT(sink.total, 100u);
    EXPECT_EQ(sink.agree, sink.total);  // perfect correlation
}

// walk() is walkInto's EventSink instantiation; a concrete sink type gets
// an instantiation of its own, which must emit the same stream.
TEST(Walker, StaticDispatchEmitsTheSameStream)
{
    for (const char *name : {"gcc", "li", "espresso"}) {
        const ProgramSpec spec = suiteSpec(name);
        const Program program = generateProgram(spec);
        WalkOptions options;
        options.seed = traceSeed(spec);
        options.instrBudget = 50'000;
        LogSink direct;
        const WalkResult static_result = walkInto(program, options, direct);
        LogSink dynamic;
        const WalkResult dynamic_result =
            walk(program, options, static_cast<EventSink &>(dynamic));
        EXPECT_EQ(static_result, dynamic_result) << name;
        EXPECT_TRUE(direct.log == dynamic.log) << name;
    }
}

TEST(Walker, IndirectJumpFollowsBiases)
{
    Program program("switch");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId sw = b.block(2, Terminator::IndirectJump);
    const BlockId c0 = b.block(1, Terminator::Return);
    const BlockId c1 = b.block(1, Terminator::Return);
    b.other(sw, c0, 0, 3.0);
    b.other(sw, c1, 0, 1.0);

    WalkOptions options;
    options.instrBudget = 40'000;
    profileProgram(program, options);
    const Weight w0 = proc.edge(proc.block(sw).outEdges[0]).weight;
    const Weight w1 = proc.edge(proc.block(sw).outEdges[1]).weight;
    EXPECT_NEAR(static_cast<double>(w0) / static_cast<double>(w0 + w1),
                0.75, 0.02);
}

TEST(Walker, DeadEndFallThroughUnwinds)
{
    // A fall-through block with no successor behaves as a procedure exit.
    Program program("deadend");
    Procedure &proc = program.proc(program.addProc("main"));
    proc.addBlock(3, Terminator::FallThrough);  // no out-edge
    WalkOptions options;
    options.instrBudget = 100;
    NullSink sink;
    const WalkResult result = walk(program, options, sink);
    EXPECT_GT(result.runs, 1u);  // restarted repeatedly
    EXPECT_GE(result.instrs, 100u);
}
