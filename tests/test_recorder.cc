/**
 * @file
 * Golden-equivalence tests for recorded walks: replaying the RecordedTrace
 * prepareProgram keeps must deliver the exact event stream the walker
 * produced, and every evaluation driven from a replay must be
 * bit-identical to one driven by a direct walk.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/align_program.h"
#include "event_log.h"
#include "layout/materialize.h"
#include "replay_util.h"
#include "sim/batch_replay.h"
#include "sim/cpi.h"
#include "trace/recorder.h"
#include "trace/walker.h"
#include "workload/suite.h"

using namespace balign;

namespace {

PreparedProgram
profiledProgram(const char *name, std::uint64_t instrs)
{
    ProgramSpec spec = suiteSpec(name);
    spec.traceInstrs = instrs;
    return prepareProgram(spec);
}

}  // namespace

TEST(Recorder, ReplayReproducesExactEventStream)
{
    for (const char *name : {"compress", "li", "alvinn", "tex"}) {
        const PreparedProgram prepared = profiledProgram(name, 60'000);

        LogSink direct;
        const WalkResult walked =
            walk(prepared.program, prepared.walk, direct);

        const RecordedTrace &trace = *prepared.trace;
        LogSink replayed;
        trace.replay(prepared.program, replayed);

        EXPECT_EQ(trace.numEvents(), direct.log.size()) << name;
        ASSERT_EQ(replayed.log.size(), direct.log.size()) << name;
        EXPECT_TRUE(replayed.log == direct.log) << name;

        EXPECT_EQ(trace.walkResult().instrs, walked.instrs) << name;
        EXPECT_EQ(trace.walkResult().blocks, walked.blocks) << name;
        EXPECT_EQ(trace.walkResult().calls, walked.calls) << name;
        EXPECT_EQ(trace.walkResult().runs, walked.runs) << name;
        EXPECT_TRUE(trace.walkResult() == walked) << name;
        EXPECT_FALSE(direct.log.empty()) << name;
    }
}

TEST(Recorder, ReplayReproducesRecording)
{
    // A replay is a re-walk: two replays, and a second recording of the
    // same walk, reproduce the first event for event.
    const PreparedProgram prepared = profiledProgram("compress", 20'000);
    const RecordedTrace &original = *prepared.trace;

    LogSink first, second;
    original.replay(prepared.program, first);
    original.replay(prepared.program, second);
    ASSERT_FALSE(first.log.empty());
    EXPECT_TRUE(first.log == second.log);
    EXPECT_EQ(first.log.size(), original.numEvents());

    const PreparedProgram again = profiledProgram("compress", 20'000);
    EXPECT_TRUE(again.trace->walkResult() == original.walkResult());
    LogSink rerecorded;
    again.trace->replay(prepared.program, rerecorded);
    EXPECT_TRUE(rerecorded.log == first.log);
}

TEST(Recorder, MultiSinkFansOutIdentically)
{
    const PreparedProgram prepared = profiledProgram("compress", 10'000);
    LogSink a, b;
    MultiSink fanout;
    fanout.add(&a);
    fanout.add(&b);
    walk(prepared.program, prepared.walk, fanout);
    ASSERT_FALSE(a.log.empty());
    EXPECT_TRUE(a.log == b.log);
    EXPECT_TRUE(a.log == walkLog(prepared.program, prepared.walk));
}

TEST(Recorder, ReplayEvaluationBitIdenticalToDirectWalk)
{
    for (const char *name : {"compress", "doduc"}) {
        const PreparedProgram prepared = profiledProgram(name, 80'000);
        const RecordedTrace &trace = *prepared.trace;
        const BatchTrace &batch = *prepared.batch;

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
                // recorded trace alike; the batched engine consumes the
                // trace the profiling walk built.
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

    // Replaying the profiled program delivers the profiling walk's
    // stream: the edge weights the profile added do not steer the walk.
    LogSink replayed;
    prepared.trace->replay(prepared.program, replayed);
    EXPECT_EQ(replayed.log.size(), prepared.trace->numEvents());
    Program unprofiled = prepared.program;
    unprofiled.clearWeights();
    EXPECT_TRUE(replayed.log == walkLog(unprofiled, prepared.walk));
}

TEST(RecorderDeathTest, ReplayOfAnotherProgramPanics)
{
    const PreparedProgram prepared = profiledProgram("compress", 10'000);
    const PreparedProgram other = profiledProgram("li", 10'000);
    NullSink sink;
    EXPECT_DEATH(prepared.trace->replay(other.program, sink),
                 "does not reproduce the recorded walk");
}

TEST(Recorder, TraceSurvivesProgramMove)
{
    // A recorded trace holds no pointers into the program, so it must
    // stay valid when the Program it came from is moved — exactly what
    // happens when a PreparedProgram travels by value.
    PreparedProgram prepared = profiledProgram("espresso", 60'000);
    const RecordedTrace &trace = *prepared.trace;

    const ProgramLayout layout = originalLayout(prepared.program);
    const EvalParams params = EvalParams::forArch(Arch::BtbSmall);
    const EvalResult before = runBatchReplay(prepared.program, layout,
                                             *prepared.batch, {params})[0];

    const Program moved = std::move(prepared.program);

    LogSink replayed;
    trace.replay(moved, replayed);
    EXPECT_EQ(replayed.log.size(), trace.numEvents());

    WalkResult rewalked;
    const EvalResult after =
        runBatchReplay(moved, layout,
                       walkBatchTrace(moved, prepared.walk, &rewalked),
                       {params})[0];
    EXPECT_TRUE(rewalked == trace.walkResult());
    EXPECT_EQ(counters(before), counters(after)) << "after move";
}
