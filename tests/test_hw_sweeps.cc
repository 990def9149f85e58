/**
 * @file
 * Parameterized hardware sweeps: predictor behaviour must vary sensibly
 * with table size, associativity and history length. These guard the
 * size/geometry plumbing that the paper's small-vs-large BTB comparison
 * rests on.
 */

#include <gtest/gtest.h>

#include <memory>

#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "trace/profiler.h"
#include "trace/walker.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

struct Prepared
{
    Program program;
    WalkOptions walk;
    std::unique_ptr<BatchTrace> trace;
};

const Prepared &
gccModel()
{
    static const Prepared prepared = [] {
        ProgramSpec spec = suiteSpec("gcc");
        spec.traceInstrs = 200'000;
        Prepared p{generateProgram(spec), WalkOptions{}, nullptr};
        p.walk.seed = traceSeed(spec);
        p.walk.instrBudget = spec.traceInstrs;
        Profiler profiler(p.program);
        walk(p.program, p.walk, profiler);
        p.trace = std::make_unique<BatchTrace>(
            p.program, recordTrace(p.program, p.walk));
        return p;
    }();
    return prepared;
}

EvalResult
evalWith(const EvalParams &params)
{
    const Prepared &prepared = gccModel();
    const ProgramLayout layout = originalLayout(prepared.program);
    return runBatchReplay(prepared.program, layout, *prepared.trace,
                          {params})[0];
}

}  // namespace

class PhtSizeSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PhtSizeSweep, RunsAndStaysSane)
{
    EvalParams params = EvalParams::forArch(Arch::PhtDirect);
    params.phtEntries = GetParam();
    const EvalResult result = evalWith(params);
    EXPECT_GT(result.condExec, 0u);
    EXPECT_LE(result.condMispredicts, result.condExec);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PhtSizeSweep,
                         ::testing::Values(64, 256, 1024, 4096, 16384));

TEST(PhtSizeSweepOrder, BiggerTablesNeverMuchWorse)
{
    EvalParams small = EvalParams::forArch(Arch::PhtDirect);
    small.phtEntries = 64;
    EvalParams large = EvalParams::forArch(Arch::PhtDirect);
    large.phtEntries = 16384;
    const EvalResult small_result = evalWith(small);
    const EvalResult large_result = evalWith(large);
    // Aliasing in a 64-entry table must not beat a 16K table by more than
    // noise, and typically loses clearly on the gcc model.
    EXPECT_LE(large_result.condMispredicts,
              small_result.condMispredicts * 101 / 100);
    EXPECT_LT(large_result.condMispredicts, small_result.condMispredicts);
}

class BtbGeometrySweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(BtbGeometrySweep, RunsAndCountsLookups)
{
    EvalParams params = EvalParams::forArch(Arch::BtbLarge);
    params.btbEntries = GetParam().first;
    params.btbWays = GetParam().second;
    const EvalResult result = evalWith(params);
    EXPECT_GT(result.btbLookups, 0u);
    EXPECT_LE(result.btbHits, result.btbLookups);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BtbGeometrySweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{16, 1},
                      std::pair<std::size_t, std::size_t>{64, 2},
                      std::pair<std::size_t, std::size_t>{256, 4},
                      std::pair<std::size_t, std::size_t>{1024, 8}));

TEST(BtbGeometryOrder, LargerBtbHitsMore)
{
    EvalParams small = EvalParams::forArch(Arch::BtbSmall);
    EvalParams large = EvalParams::forArch(Arch::BtbLarge);
    large.btbEntries = 2048;
    large.btbWays = 8;
    const EvalResult small_result = evalWith(small);
    const EvalResult large_result = evalWith(large);
    const double small_rate = static_cast<double>(small_result.btbHits) /
                              static_cast<double>(small_result.btbLookups);
    const double large_rate = static_cast<double>(large_result.btbHits) /
                              static_cast<double>(large_result.btbLookups);
    EXPECT_GT(large_rate, small_rate);
}

class HistoryLengthSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(HistoryLengthSweep, RunsAndStaysSane)
{
    EvalParams params = EvalParams::forArch(Arch::PhtCorrelated);
    params.historyBits = GetParam();
    const EvalResult result = evalWith(params);
    EXPECT_GT(result.condExec, 0u);
    EXPECT_LE(result.condMispredicts, result.condExec);
}

INSTANTIATE_TEST_SUITE_P(Lengths, HistoryLengthSweep,
                         ::testing::Values(1, 4, 8, 12, 16));

class RasDepthSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(RasDepthSweep, DeeperStacksNeverHurtReturns)
{
    EvalParams shallow = EvalParams::forArch(Arch::BtFnt);
    shallow.rasEntries = GetParam();
    EvalParams deep = EvalParams::forArch(Arch::BtFnt);
    deep.rasEntries = 64;
    const EvalResult shallow_result = evalWith(shallow);
    const EvalResult deep_result = evalWith(deep);
    EXPECT_LE(deep_result.returnMispredicts,
              shallow_result.returnMispredicts);
}

INSTANTIATE_TEST_SUITE_P(Depths, RasDepthSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

TEST(PenaltySweep, BepScalesLinearlyWithPenalties)
{
    EvalParams base = EvalParams::forArch(Arch::Fallthrough);
    const EvalResult r1 = evalWith(base);
    EvalParams doubled = base;
    doubled.penalties.misfetch = 2.0;
    doubled.penalties.mispredict = 8.0;
    const EvalResult r2 = evalWith(doubled);
    // Counts identical; BEP exactly doubles.
    EXPECT_EQ(r1.misfetches, r2.misfetches);
    EXPECT_EQ(r1.mispredicts, r2.mispredicts);
    EXPECT_DOUBLE_EQ(r2.bep(), 2.0 * r1.bep());
}
