/**
 * @file
 * Golden regression pins: exact metric values for a fixed program model,
 * seed and configuration. Every count in the pipeline is deterministic
 * (seeded xoshiro PRNG, no platform-dependent arithmetic), so any change
 * to these numbers means the simulation semantics changed — which must be
 * a conscious decision, not an accident.
 *
 * If a deliberate change (new generator knob, changed penalty rule, ...)
 * moves these values, re-pin them and note the reason in the commit.
 */

#include <gtest/gtest.h>

#include "core/align_program.h"
#include "sim/batch_replay.h"
#include "sim/cpi.h"
#include "trace/walker.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

ExperimentRun
goldenRun()
{
    ProgramSpec spec = suiteSpec("compress");
    spec.traceInstrs = 100'000;
    const std::vector<ExperimentConfig> configs = {
        {Arch::Fallthrough, AlignerKind::Original},
        {Arch::Fallthrough, AlignerKind::Try15},
        {Arch::BtFnt, AlignerKind::Greedy},
        {Arch::PhtDirect, AlignerKind::Original},
        {Arch::BtbLarge, AlignerKind::Original},
    };
    return runExperiment(spec, configs);
}

}  // namespace

TEST(Golden, ProfileStatistics)
{
    const ExperimentRun run = goldenRun();
    // Pinned from the initial release build.
    EXPECT_EQ(run.stats.instrsTraced, 100005u);
    EXPECT_EQ(run.stats.condBranches, 8345u);
    EXPECT_EQ(run.stats.takenCondBranches, 6590u);
    EXPECT_EQ(run.stats.staticCondSites, 41u);
    EXPECT_EQ(run.origInstrs, 100005u);
}

TEST(Golden, FallthroughOriginalCounts)
{
    const ExperimentRun run = goldenRun();
    const EvalResult &r =
        run.cell(Arch::Fallthrough, AlignerKind::Original).eval;
    EXPECT_EQ(r.instrs, 100005u);
    EXPECT_EQ(r.condExec, 8345u);
    EXPECT_EQ(r.condTaken, 6590u);
    // FALLTHROUGH mispredicts = taken conditionals + mispredicted returns
    // + indirect jumps.
    EXPECT_EQ(r.mispredicts,
              6590u + r.returnMispredicts + r.indirectExec);
    EXPECT_EQ(r.mispredicts, 6664u);
    EXPECT_EQ(r.misfetches, 1307u);
}

TEST(Golden, AlignmentMovesTheExpectedAmount)
{
    const ExperimentRun run = goldenRun();
    const double orig =
        run.cell(Arch::Fallthrough, AlignerKind::Original).relCpi;
    const double aligned =
        run.cell(Arch::Fallthrough, AlignerKind::Try15).relCpi;
    // Pin to a tight window rather than exact doubles.
    EXPECT_NEAR(orig, 1.2796, 0.002);
    EXPECT_NEAR(aligned, 1.1634, 0.002);
    EXPECT_GT(orig - aligned, 0.08);
}

TEST(Golden, RepeatedRunsIdentical)
{
    const ExperimentRun a = goldenRun();
    const ExperimentRun b = goldenRun();
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_EQ(a.cells[i].eval.instrs, b.cells[i].eval.instrs);
        EXPECT_EQ(a.cells[i].eval.misfetches, b.cells[i].eval.misfetches);
        EXPECT_EQ(a.cells[i].eval.mispredicts,
                  b.cells[i].eval.mispredicts);
    }
}

TEST(Golden, CombinedProfilesAreAdditive)
{
    // Paper §4: "If more profiles are used or combined for a program..."
    // Profiling twice without clearing accumulates edge weights — the
    // supported way to combine inputs.
    ProgramSpec spec = suiteSpec("compress");
    spec.traceInstrs = 20'000;
    Program program = generateProgram(spec);

    WalkOptions first;
    first.seed = 1;
    first.instrBudget = spec.traceInstrs;
    WalkOptions second = first;
    second.seed = 2;

    profileProgram(program, first);
    const Weight after_first = program.proc(0).totalEdgeWeight();
    profileProgram(program, second);
    const Weight after_both = program.proc(0).totalEdgeWeight();
    EXPECT_GT(after_first, 0u);
    EXPECT_GT(after_both, after_first);

    // The combined profile drives alignment like any other.
    const CostModel model(Arch::Fallthrough);
    const ProgramLayout layout =
        alignProgram(program, AlignerKind::Try15, &model);
    EXPECT_EQ(layout.procs.size(), program.numProcs());
}
