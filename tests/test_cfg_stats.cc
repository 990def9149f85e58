/**
 * @file
 * Direct tests for the Table-2 statistics record (cfg/cfg_stats.h).
 */

#include <gtest/gtest.h>

#include "cfg/builder.h"
#include "cfg/cfg_stats.h"

using namespace balign;

TEST(ProgramStats, PercentagesFromKnownCounts)
{
    ProgramStats stats;
    stats.instrsTraced = 1000;
    stats.condBranches = 60;
    stats.takenCondBranches = 40;
    stats.uncondBranches = 20;
    stats.indirectJumps = 5;
    stats.calls = 10;
    stats.returns = 5;

    EXPECT_EQ(stats.totalBreaks(), 100u);
    EXPECT_DOUBLE_EQ(stats.pctBreaks(), 10.0);
    EXPECT_NEAR(stats.pctTaken(), 100.0 * 40 / 60, 1e-9);
    EXPECT_DOUBLE_EQ(stats.pctCondOfBreaks(), 60.0);
    EXPECT_DOUBLE_EQ(stats.pctUncondOfBreaks(), 20.0);
    EXPECT_DOUBLE_EQ(stats.pctIndirectOfBreaks(), 5.0);
    EXPECT_DOUBLE_EQ(stats.pctCallOfBreaks(), 10.0);
    EXPECT_DOUBLE_EQ(stats.pctReturnOfBreaks(), 5.0);
}

TEST(ProgramStats, EmptyStatsAreZeroNotNan)
{
    const ProgramStats stats;
    EXPECT_EQ(stats.totalBreaks(), 0u);
    EXPECT_EQ(stats.pctBreaks(), 0.0);
    EXPECT_EQ(stats.pctTaken(), 0.0);
    EXPECT_EQ(stats.pctCondOfBreaks(), 0.0);
}

TEST(FillStaticStats, CountsConditionalSitesAndCoverage)
{
    Program program("p");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    // Three conditional sites with executed weights 90, 9, 1.
    const BlockId c1 = b.block(2, Terminator::CondBranch);
    const BlockId c2 = b.block(2, Terminator::CondBranch);
    const BlockId c3 = b.block(2, Terminator::CondBranch);
    const BlockId sink1 = b.block(1, Terminator::Return);
    const BlockId sink2 = b.block(1, Terminator::Return);
    b.fallThrough(c1, c2, 45);
    b.taken(c1, sink1, 45);
    b.fallThrough(c2, c3, 5);
    b.taken(c2, sink2, 4);
    b.fallThrough(c3, sink1, 1);
    b.taken(c3, sink2, 0);

    ProgramStats stats;
    fillStaticStats(program, stats);
    EXPECT_EQ(stats.staticCondSites, 3u);
    EXPECT_EQ(stats.q50, 1u);   // the 90-weight site covers 50%
    EXPECT_EQ(stats.q90, 1u);   // and exactly 90%
    EXPECT_EQ(stats.q99, 2u);   // plus the 9-weight site
    EXPECT_EQ(stats.q100, 3u);
}

TEST(FillStaticStats, IgnoresUnexecutedSitesInQ100)
{
    Program program("p");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId hot = b.block(2, Terminator::CondBranch);
    const BlockId cold = b.block(2, Terminator::CondBranch);
    const BlockId s1 = b.block(1, Terminator::Return);
    const BlockId s2 = b.block(1, Terminator::Return);
    b.fallThrough(hot, cold, 50);
    b.taken(hot, s1, 50);
    b.fallThrough(cold, s1, 0);
    b.taken(cold, s2, 0);

    ProgramStats stats;
    fillStaticStats(program, stats);
    EXPECT_EQ(stats.staticCondSites, 2u);  // static count includes cold
    EXPECT_EQ(stats.q100, 1u);             // coverage counts only executed
}

TEST(FillStaticStats, SpansProcedures)
{
    Program program("p");
    for (int i = 0; i < 2; ++i) {
        std::string name = "p";
        name += std::to_string(i);
        Procedure &proc = program.proc(program.addProc(name));
        CfgBuilder b(proc);
        const BlockId c = b.block(2, Terminator::CondBranch);
        const BlockId s1 = b.block(1, Terminator::Return);
        const BlockId s2 = b.block(1, Terminator::Return);
        b.fallThrough(c, s1, 10);
        b.taken(c, s2, 10);
    }
    ProgramStats stats;
    fillStaticStats(program, stats);
    EXPECT_EQ(stats.staticCondSites, 2u);
    EXPECT_EQ(stats.q50, 1u);
    EXPECT_EQ(stats.q100, 2u);
}
