/**
 * @file
 * Cross-module invariant tests: properties that must hold for ANY layout
 * of ANY program, checked over generated workloads.
 *
 *  - Alignment preserves the executed work: for the same trace, the
 *    instruction counts of two layouts differ exactly by the inserted
 *    jumps executed minus the deleted jumps avoided.
 *  - The evaluator's BEP equals misfetches + 4 * mispredicts.
 *  - Results are independent of evaluation order and of how many lanes
 *    share one batched replay.
 *  - The materializer's static size equals original size + inserted -
 *    removed jumps.
 *  - Block addresses are disjoint, contiguous and cover the whole image.
 */

#include <gtest/gtest.h>

#include "core/align_program.h"
#include "layout/materialize.h"
#include "replay_util.h"
#include "sim/batch_replay.h"
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
prepareSuiteProgram(const char *name, std::uint64_t instrs)
{
    ProgramSpec spec = suiteSpec(name);
    spec.traceInstrs = instrs;
    Prepared prepared{generateProgram(spec), WalkOptions{}};
    prepared.walk.seed = traceSeed(spec);
    prepared.walk.instrBudget = instrs;
    // Profile in place.
    profileProgram(prepared.program, prepared.walk);
    return prepared;
}

}  // namespace

class LayoutInvariantSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(LayoutInvariantSweep, StaticSizeAccounting)
{
    const Prepared prepared = prepareSuiteProgram(GetParam(), 50'000);
    const CostModel model(Arch::Fallthrough);
    for (AlignerKind kind :
         {AlignerKind::Greedy, AlignerKind::Cost, AlignerKind::Try15}) {
        const ProgramLayout layout =
            alignProgram(prepared.program, kind, &model);
        std::uint64_t inserted = 0, removed = 0;
        for (const auto &pl : layout.procs) {
            inserted += pl.jumpsInserted;
            removed += pl.jumpsRemoved;
        }
        EXPECT_EQ(layout.totalInstrs,
                  prepared.program.totalInstrs() + inserted - removed)
            << alignerKindName(kind);
    }
}

TEST_P(LayoutInvariantSweep, AddressesAreContiguousAndDisjoint)
{
    const Prepared prepared = prepareSuiteProgram(GetParam(), 50'000);
    const CostModel model(Arch::BtFnt);
    const ProgramLayout layout =
        alignProgram(prepared.program, AlignerKind::Try15, &model);

    Addr expected = 0;
    for (ProcId p = 0; p < prepared.program.numProcs(); ++p) {
        const ProcLayout &pl = layout.procs[p];
        EXPECT_EQ(pl.base, expected);
        Addr cursor = pl.base;
        for (BlockId id : pl.order) {
            EXPECT_EQ(pl.blocks[id].addr, cursor);
            cursor += pl.blocks[id].finalInstrs;
        }
        EXPECT_EQ(cursor, pl.base + pl.totalInstrs);
        expected = cursor;
    }
    EXPECT_EQ(expected, layout.totalInstrs);
}

TEST_P(LayoutInvariantSweep, ExecutedInstructionAccounting)
{
    // instrs(layout) - instrs(original) == jumps executed - jumps removed
    // along the trace; verify via the uncondExec deltas instead of
    // re-deriving the path: original uncondExec counts real jumps; any
    // layout's executed instructions must equal original instrs
    // - (removed jump executions) + (inserted jump executions), i.e.
    // instrs_new - instrs_orig == uncondExec_new - uncondExec_orig
    // whenever conditional/indirect/call/return counts are identical.
    const Prepared prepared = prepareSuiteProgram(GetParam(), 80'000);
    const CostModel model(Arch::Fallthrough);

    const ProgramLayout orig = originalLayout(prepared.program);
    const ProgramLayout aligned =
        alignProgram(prepared.program, AlignerKind::Try15, &model);

    const std::vector<EvalParams> lanes = {
        EvalParams::forArch(Arch::Fallthrough)};
    const std::vector<std::vector<EvalResult>> results = runBatchReplay(
        prepared.program, {{&orig, lanes}, {&aligned, lanes}},
        walkBatchTrace(prepared.program, prepared.walk));

    const EvalResult &a = results[0][0];
    const EvalResult &b = results[1][0];
    // The same CFG path executes under both layouts.
    EXPECT_EQ(a.condExec, b.condExec);
    EXPECT_EQ(a.callExec, b.callExec);
    EXPECT_EQ(a.returnExec, b.returnExec);
    EXPECT_EQ(a.indirectExec, b.indirectExec);
    EXPECT_EQ(static_cast<std::int64_t>(b.instrs) -
                  static_cast<std::int64_t>(a.instrs),
              static_cast<std::int64_t>(b.uncondExec) -
                  static_cast<std::int64_t>(a.uncondExec));
}

TEST_P(LayoutInvariantSweep, BepDecomposition)
{
    const Prepared prepared = prepareSuiteProgram(GetParam(), 50'000);
    const ProgramLayout orig = originalLayout(prepared.program);
    std::vector<EvalParams> lanes;
    for (Arch arch : {Arch::Fallthrough, Arch::Likely, Arch::PhtDirect,
                      Arch::BtbSmall})
        lanes.push_back(EvalParams::forArch(arch));
    const std::vector<EvalResult> results =
        batchReplay(prepared.program, orig, prepared.walk, lanes);
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
        const EvalResult &r = results[lane];
        EXPECT_DOUBLE_EQ(r.bep(),
                         static_cast<double>(r.misfetches) * 1.0 +
                             static_cast<double>(r.mispredicts) * 4.0)
            << archName(lanes[lane].arch);
    }
}

TEST_P(LayoutInvariantSweep, FanoutMatchesSoloEvaluation)
{
    const Prepared prepared = prepareSuiteProgram(GetParam(), 40'000);
    const ProgramLayout orig = originalLayout(prepared.program);

    const BatchTrace trace = walkBatchTrace(prepared.program, prepared.walk);

    const EvalResult solo =
        runBatchReplay(prepared.program, orig, trace,
                       {EvalParams::forArch(Arch::PhtDirect)})[0];
    const std::vector<EvalResult> shared = runBatchReplay(
        prepared.program, orig, trace,
        {EvalParams::forArch(Arch::BtbLarge),
         EvalParams::forArch(Arch::PhtDirect)});
    const EvalResult &second = shared[1];

    EXPECT_EQ(solo.instrs, second.instrs);
    EXPECT_EQ(solo.misfetches, second.misfetches);
    EXPECT_EQ(solo.mispredicts, second.mispredicts);
    EXPECT_EQ(solo.condTaken, second.condTaken);
}

TEST_P(LayoutInvariantSweep, AlignedLayoutsAreValidPermutations)
{
    const Prepared prepared = prepareSuiteProgram(GetParam(), 30'000);
    for (Arch arch : {Arch::Fallthrough, Arch::BtFnt, Arch::BtbLarge}) {
        const CostModel model(arch);
        for (AlignerKind kind :
             {AlignerKind::Greedy, AlignerKind::Cost, AlignerKind::Try15}) {
            const ProgramLayout layout =
                alignProgram(prepared.program, kind, &model);
            for (ProcId p = 0; p < prepared.program.numProcs(); ++p) {
                const Procedure &proc = prepared.program.proc(p);
                const ProcLayout &pl = layout.procs[p];
                ASSERT_EQ(pl.order.size(), proc.numBlocks());
                EXPECT_EQ(pl.order.front(), proc.entry());
                std::vector<bool> seen(proc.numBlocks(), false);
                for (BlockId id : pl.order) {
                    ASSERT_LT(id, proc.numBlocks());
                    EXPECT_FALSE(seen[id]);
                    seen[id] = true;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Programs, LayoutInvariantSweep,
                         ::testing::Values("compress", "li", "doduc",
                                           "idl", "alvinn"));
