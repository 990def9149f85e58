/**
 * @file
 * Golden-equivalence tests for recorded walks: replaying a RecordedTrace
 * must deliver the exact event stream the walker produced, and every
 * evaluation driven from a replay must be bit-identical to one driven by
 * a direct walk.
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
    profileProgram(prepared.program, prepared.walk);
    return prepared;
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
        EXPECT_TRUE(trace.walkResult() == walked) << name;
        EXPECT_FALSE(direct.log.empty()) << name;
    }
}

TEST(Recorder, ReplayReproducesRecording)
{
    // A replay is a re-walk: two replays, and a second recording of the
    // same walk, reproduce the first event for event.
    const Prepared prepared = profiledProgram("compress", 20'000);
    const RecordedTrace original =
        recordTrace(prepared.program, prepared.walk);

    LogSink first, second;
    original.replay(prepared.program, first);
    original.replay(prepared.program, second);
    ASSERT_FALSE(first.log.empty());
    EXPECT_TRUE(first.log == second.log);
    EXPECT_EQ(first.log.size(), original.numEvents());

    const RecordedTrace again =
        recordTrace(prepared.program, prepared.walk);
    EXPECT_TRUE(again.walkResult() == original.walkResult());
    LogSink rerecorded;
    again.replay(prepared.program, rerecorded);
    EXPECT_TRUE(rerecorded.log == first.log);
}

TEST(Recorder, ReplayedProfileEqualsLiveProfile)
{
    Prepared prepared = profiledProgram("compress", 20'000);
    Program &program = prepared.program;
    const RecordedTrace trace = recordTrace(program, prepared.walk);

    auto weights = [&] {
        std::vector<Weight> all;
        for (const auto &proc : program.procs())
            for (const auto &edge : proc.edges())
                all.push_back(edge.weight);
        return all;
    };

    // Live profile.
    program.clearWeights();
    const ProgramStats live_stats = profileProgram(program, prepared.walk);
    const std::vector<Weight> live_weights = weights();

    // Replayed profile.
    program.clearWeights();
    BatchTraceBuilder builder(program);
    trace.replay(program, builder);
    const ProgramStats replayed_stats =
        applyTraceProfile(program, builder.take());

    EXPECT_EQ(live_weights, weights());
    EXPECT_EQ(live_stats.instrsTraced, replayed_stats.instrsTraced);
    EXPECT_EQ(live_stats.condBranches, replayed_stats.condBranches);
    EXPECT_EQ(live_stats.returns, replayed_stats.returns);
}

TEST(Recorder, MultiSinkFansOutIdentically)
{
    const Prepared prepared = profiledProgram("compress", 10'000);
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
    const Prepared prepared = profiledProgram("compress", 10'000);
    const RecordedTrace trace = recordTrace(prepared.program, prepared.walk);
    const Prepared other = profiledProgram("li", 10'000);
    NullSink sink;
    EXPECT_DEATH(trace.replay(other.program, sink),
                 "does not reproduce the recorded walk");
}

TEST(Recorder, TraceSurvivesProgramMove)
{
    // A recorded trace holds no pointers into the program, so it must
    // stay valid when the Program it came from is moved — exactly what
    // happens when a PreparedProgram travels by value.
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
