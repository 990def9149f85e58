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

#include "core/align_program.h"
#include "layout/materialize.h"
#include "replay_util.h"
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
        const BatchTrace batch(prepared.program, trace);

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
                const EvalParams params = EvalParams::forArch(arch);
                // The oracle consumes the walker directly and the
                // recorded trace alike; the batched engine consumes only
                // the recording.
                OracleEvaluator replayed(prepared.program, layout, params);
                trace.replay(prepared.program, replayed);
                const EvalResult walked = oracleReplay(
                    prepared.program, layout, prepared.walk, params);
                EXPECT_EQ(counters(walked), counters(replayed.result()))
                    << archName(arch);
                EXPECT_EQ(counters(walked),
                          counters(runBatchReplay(prepared.program, layout,
                                                  batch, {params})[0]))
                    << archName(arch);
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
    const EvalParams params = EvalParams::forArch(Arch::BtbSmall);
    const EvalResult before =
        runBatchReplay(prepared.program, layout,
                       BatchTrace(prepared.program, trace), {params})[0];

    const Program moved = std::move(prepared.program);

    LogSink replayed;
    trace.replay(moved, replayed);
    EXPECT_EQ(replayed.log.size(), trace.numEvents());

    const EvalResult after = runBatchReplay(
        moved, layout, BatchTrace(moved, trace), {params})[0];
    EXPECT_EQ(counters(before), counters(after)) << "after move";
}
