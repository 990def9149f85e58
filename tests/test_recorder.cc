/**
 * @file
 * Golden-equivalence tests for the record-once trace engine: a recorded
 * trace must replay the exact event stream the walker produced, and every
 * evaluation driven from a replay must be bit-identical to one driven by
 * a direct walk.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "bpred/evaluator.h"
#include "core/align_program.h"
#include "layout/materialize.h"
#include "sim/cpi.h"
#include "trace/profiler.h"
#include "trace/recorder.h"
#include "trace/walker.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

struct Prepared
{
    Program program;
    WalkOptions walk;
};

Prepared
profiledProgram(const char *name, std::uint64_t instrs)
{
    ProgramSpec spec = suiteSpec(name);
    spec.traceInstrs = instrs;
    Prepared prepared{generateProgram(spec), WalkOptions{}};
    prepared.walk.seed = traceSeed(spec);
    prepared.walk.instrBudget = instrs;
    Profiler profiler(prepared.program);
    walk(prepared.program, prepared.walk, profiler);
    return prepared;
}

/// EventSink logging every event as a comparable tuple.
class LogSink : public EventSink
{
  public:
    // (opcode, proc, block-or-edge, call-site offset)
    using Entry = std::tuple<int, ProcId, std::uint32_t, std::uint32_t>;

    void
    onBlock(ProcId proc, BlockId block) override
    {
        log.emplace_back(0, proc, block, 0);
    }

    void
    onCall(ProcId proc, BlockId block, const CallSite &site) override
    {
        log.emplace_back(1, proc, block, site.offset);
    }

    void
    onReturn(ProcId proc, BlockId block, const CallSite &site) override
    {
        log.emplace_back(2, proc, block, site.offset);
    }

    void
    onEdge(ProcId proc, std::uint32_t edge_index) override
    {
        log.emplace_back(3, proc, edge_index, 0);
    }

    void
    onExit() override
    {
        log.emplace_back(4, 0, 0, 0);
    }

    std::vector<Entry> log;
};

void
expectEqualResults(const EvalResult &a, const EvalResult &b,
                   const char *label)
{
    EXPECT_EQ(a.instrs, b.instrs) << label;
    EXPECT_EQ(a.misfetches, b.misfetches) << label;
    EXPECT_EQ(a.mispredicts, b.mispredicts) << label;
    EXPECT_EQ(a.condExec, b.condExec) << label;
    EXPECT_EQ(a.condTaken, b.condTaken) << label;
    EXPECT_EQ(a.condMispredicts, b.condMispredicts) << label;
    EXPECT_EQ(a.uncondExec, b.uncondExec) << label;
    EXPECT_EQ(a.callExec, b.callExec) << label;
    EXPECT_EQ(a.returnExec, b.returnExec) << label;
    EXPECT_EQ(a.returnMispredicts, b.returnMispredicts) << label;
    EXPECT_EQ(a.indirectExec, b.indirectExec) << label;
    EXPECT_EQ(a.btbHits, b.btbHits) << label;
    EXPECT_EQ(a.btbLookups, b.btbLookups) << label;
}

}  // namespace

TEST(Recorder, ReplayReproducesExactEventStream)
{
    for (const char *name : {"compress", "li", "alvinn", "tex"}) {
        const Prepared prepared = profiledProgram(name, 60'000);

        LogSink direct;
        const WalkResult walked =
            walk(prepared.program, prepared.walk, direct);

        const RecordedTrace trace =
            recordTrace(prepared.program, prepared.walk);
        LogSink replayed;
        trace.replay(prepared.program, replayed);

        EXPECT_EQ(trace.numEvents(), direct.log.size()) << name;
        ASSERT_EQ(replayed.log.size(), direct.log.size()) << name;
        EXPECT_TRUE(replayed.log == direct.log) << name;

        EXPECT_EQ(trace.walkResult().instrs, walked.instrs) << name;
        EXPECT_EQ(trace.walkResult().blocks, walked.blocks) << name;
        EXPECT_EQ(trace.walkResult().calls, walked.calls) << name;
        EXPECT_EQ(trace.walkResult().runs, walked.runs) << name;
        EXPECT_GT(trace.sizeBytes(), 0u) << name;
    }
}

TEST(Recorder, ReplayEvaluationBitIdenticalToDirectWalk)
{
    for (const char *name : {"compress", "doduc"}) {
        const Prepared prepared = profiledProgram(name, 80'000);
        const RecordedTrace trace =
            recordTrace(prepared.program, prepared.walk);

        const CostModel model(Arch::BtFnt);
        const std::vector<ProgramLayout> layouts = {
            originalLayout(prepared.program),
            alignProgram(prepared.program, AlignerKind::Try15, &model),
        };
        const Arch archs[] = {Arch::Fallthrough, Arch::BtFnt,
                              Arch::PhtDirect, Arch::PhtCorrelated,
                              Arch::BtbSmall, Arch::BtbLarge};
        for (const ProgramLayout &layout : layouts) {
            for (Arch arch : archs) {
                ArchEvaluator walked(prepared.program, layout,
                                     EvalParams::forArch(arch));
                walk(prepared.program, prepared.walk, walked.sink());

                ArchEvaluator replayed(prepared.program, layout,
                                       EvalParams::forArch(arch));
                trace.replay(prepared.program, replayed.sink());

                expectEqualResults(walked.result(), replayed.result(),
                                   archName(arch));
            }
        }
    }
}

TEST(Recorder, PreparedProgramCarriesReplayableTrace)
{
    ProgramSpec spec = suiteSpec("eqntott");
    spec.traceInstrs = 60'000;
    const PreparedProgram prepared = prepareProgram(spec);
    ASSERT_NE(prepared.trace, nullptr);
    EXPECT_GT(prepared.trace->numEvents(), 0u);
    EXPECT_EQ(prepared.trace->walkResult().instrs,
              prepared.stats.instrsTraced);
}

TEST(Recorder, TraceSurvivesProgramMove)
{
    // Call sites are stored by index, not by pointer, so a recorded trace
    // must stay valid when the Program it came from is moved — exactly
    // what happens when a PreparedProgram travels by value.
    Prepared prepared = profiledProgram("espresso", 60'000);
    const RecordedTrace trace =
        recordTrace(prepared.program, prepared.walk);

    const ProgramLayout layout = originalLayout(prepared.program);
    ArchEvaluator before(prepared.program, layout,
                         EvalParams::forArch(Arch::BtbSmall));
    trace.replay(prepared.program, before.sink());

    const Program moved = std::move(prepared.program);

    LogSink replayed;
    trace.replay(moved, replayed);
    EXPECT_EQ(replayed.log.size(), trace.numEvents());

    ArchEvaluator after(moved, layout, EvalParams::forArch(Arch::BtbSmall));
    trace.replay(moved, after.sink());
    expectEqualResults(before.result(), after.result(), "after move");
}
