/**
 * @file
 * Tests for the synthetic workload generator: structural validity across
 * many seeds, the fall-through adjacency invariant that makes the identity
 * layout exact, call-graph reachability, and parameter effects.
 */

#include <gtest/gtest.h>

#include <set>

#include "cfg/validate.h"
#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "trace/walker.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

ProgramSpec
smallSpec(std::uint64_t seed)
{
    ProgramSpec spec;
    spec.name = "gen";
    spec.seed = seed;
    spec.numProcs = 6;
    spec.minBlocksPerProc = 5;
    spec.maxBlocksPerProc = 24;
    return spec;
}

}  // namespace

class GeneratorSeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GeneratorSeedSweep, ProducesValidProgram)
{
    const Program program = generateProgram(smallSpec(GetParam()));
    EXPECT_TRUE(validate(program).empty());
    EXPECT_EQ(program.numProcs(), 6u);
}

TEST_P(GeneratorSeedSweep, FallThroughEdgesTargetNextBlock)
{
    const Program program = generateProgram(smallSpec(GetParam()));
    for (const auto &proc : program.procs()) {
        for (const auto &edge : proc.edges()) {
            if (edge.kind == EdgeKind::FallThrough) {
                EXPECT_EQ(edge.dst, edge.src + 1)
                    << proc.name() << " edge " << edge.src << "->"
                    << edge.dst;
            }
        }
    }
}

TEST_P(GeneratorSeedSweep, NoRedundantUnconditionalBranches)
{
    // An unconditional branch to the textually next block would be
    // deleted by the materializer, making the identity layout inexact.
    const Program program = generateProgram(smallSpec(GetParam()));
    for (const auto &proc : program.procs()) {
        for (const auto &edge : proc.edges()) {
            if (proc.block(edge.src).term == Terminator::UncondBranch) {
                EXPECT_NE(edge.dst, edge.src + 1) << proc.name();
            }
        }
    }
}

TEST_P(GeneratorSeedSweep, IdentityLayoutIsExact)
{
    const Program program = generateProgram(smallSpec(GetParam()));
    const ProgramLayout layout = originalLayout(program);
    EXPECT_EQ(layout.totalInstrs, program.totalInstrs());
    for (const auto &pl : layout.procs) {
        EXPECT_EQ(pl.jumpsInserted, 0u);
        EXPECT_EQ(pl.jumpsRemoved, 0u);
        EXPECT_EQ(pl.sensesInverted, 0u);
    }
}

TEST_P(GeneratorSeedSweep, EveryProcedureReachable)
{
    const Program program = generateProgram(smallSpec(GetParam()));
    std::set<ProcId> called{program.mainProc()};
    for (const auto &proc : program.procs())
        for (const auto &block : proc.blocks())
            for (const auto &site : block.calls)
                called.insert(site.callee);
    EXPECT_EQ(called.size(), program.numProcs());
}

TEST_P(GeneratorSeedSweep, CallGraphIsAcyclic)
{
    const Program program = generateProgram(smallSpec(GetParam()));
    for (const auto &proc : program.procs())
        for (const auto &block : proc.blocks())
            for (const auto &site : block.calls)
                EXPECT_GT(site.callee, proc.id());
}

TEST_P(GeneratorSeedSweep, CallSitesSortedByOffset)
{
    const Program program = generateProgram(smallSpec(GetParam()));
    for (const auto &proc : program.procs()) {
        for (const auto &block : proc.blocks()) {
            for (std::size_t i = 1; i < block.calls.size(); ++i) {
                EXPECT_LE(block.calls[i - 1].offset,
                          block.calls[i].offset);
            }
        }
    }
}

TEST_P(GeneratorSeedSweep, PatternsAreWellFormed)
{
    const Program program = generateProgram(smallSpec(GetParam()));
    for (const auto &proc : program.procs()) {
        for (const auto &block : proc.blocks()) {
            if (block.patternLength == 0)
                continue;
            EXPECT_EQ(block.term, Terminator::CondBranch);
            EXPECT_LE(block.patternLength, 32);
            // Mask confined to the pattern.
            if (block.patternLength < 32) {
                EXPECT_EQ(block.patternMask >> block.patternLength, 0u)
                    << proc.name();
            }
        }
    }
}

TEST_P(GeneratorSeedSweep, DeterministicForSeed)
{
    const Program a = generateProgram(smallSpec(GetParam()));
    const Program b = generateProgram(smallSpec(GetParam()));
    ASSERT_EQ(a.numProcs(), b.numProcs());
    for (ProcId p = 0; p < a.numProcs(); ++p) {
        ASSERT_EQ(a.proc(p).numBlocks(), b.proc(p).numBlocks());
        ASSERT_EQ(a.proc(p).numEdges(), b.proc(p).numEdges());
        for (std::size_t e = 0; e < a.proc(p).numEdges(); ++e) {
            EXPECT_EQ(a.proc(p).edge(e).src, b.proc(p).edge(e).src);
            EXPECT_EQ(a.proc(p).edge(e).dst, b.proc(p).edge(e).dst);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42, 99,
                                           12345));

TEST(Generator, BlockSizeTracksAvgParameter)
{
    ProgramSpec small = smallSpec(7);
    small.avgBlockInstrs = 4;
    ProgramSpec large = smallSpec(7);
    large.avgBlockInstrs = 16;

    const Program a = generateProgram(small);
    const Program b = generateProgram(large);
    const double mean_a = static_cast<double>(a.totalInstrs()) /
                          static_cast<double>([&] {
                              std::size_t n = 0;
                              for (const auto &proc : a.procs())
                                  n += proc.numBlocks();
                              return n;
                          }());
    const double mean_b = static_cast<double>(b.totalInstrs()) /
                          static_cast<double>([&] {
                              std::size_t n = 0;
                              for (const auto &proc : b.procs())
                                  n += proc.numBlocks();
                              return n;
                          }());
    EXPECT_LT(mean_a * 2.0, mean_b);
}

TEST(Generator, TraceSeedDiffersFromGenSeed)
{
    const ProgramSpec spec = smallSpec(1234);
    EXPECT_NE(traceSeed(spec), spec.seed);
}

TEST(Generator, SingleProcedureProgramHasNoCalls)
{
    ProgramSpec spec = smallSpec(3);
    spec.numProcs = 1;
    const Program program = generateProgram(spec);
    for (const auto &block : program.proc(0).blocks())
        EXPECT_TRUE(block.calls.empty());
}

// ---- suite ------------------------------------------------------------------

TEST(Suite, TwentyFourPrograms)
{
    const auto suite = benchmarkSuite();
    EXPECT_EQ(suite.size(), 24u);
    std::size_t fp = 0, intg = 0, other = 0;
    std::set<std::string> names;
    for (const auto &spec : suite) {
        names.insert(spec.name);
        if (spec.group == "SPECfp92")
            ++fp;
        else if (spec.group == "SPECint92")
            ++intg;
        else if (spec.group == "Other")
            ++other;
    }
    EXPECT_EQ(fp, 13u);
    EXPECT_EQ(intg, 6u);
    EXPECT_EQ(other, 5u);
    EXPECT_EQ(names.size(), 24u);  // unique names
}

TEST(Suite, Figure4SubsetIsTheSpecCPrograms)
{
    const auto subset = figure4Suite();
    ASSERT_EQ(subset.size(), 8u);
    EXPECT_EQ(subset[0].name, "alvinn");
    EXPECT_EQ(subset[5].name, "gcc");
}

TEST(Suite, EveryProgramGeneratesAndValidates)
{
    for (const auto &spec : benchmarkSuite()) {
        const Program program = generateProgram(spec);
        EXPECT_TRUE(validate(program).empty()) << spec.name;
        EXPECT_EQ(program.name(), spec.name);
    }
}

TEST(SuiteDeath, UnknownNameIsFatal)
{
    EXPECT_DEATH(suiteSpec("does-not-exist"), "unknown suite program");
}

TEST(Suite, FpProgramsAreLessBranchyThanInt)
{
    // The headline Table-2 distinction: FP programs break control flow
    // far less often than integer programs.
    auto measure = [](const char *name) {
        ProgramSpec spec = suiteSpec(name);
        spec.traceInstrs = 200'000;
        Program program = generateProgram(spec);
        WalkOptions options;
        options.seed = traceSeed(spec);
        options.instrBudget = spec.traceInstrs;
        return profileProgram(program, options).pctBreaks();
    };
    EXPECT_LT(measure("swm256"), measure("gcc"));
    EXPECT_LT(measure("fpppp"), measure("li"));
}
