/**
 * @file
 * Fuzzer tests: degenerate shapes are valid and diff clean, campaigns are
 * deterministic, repro files round-trip with their walk parameters, and
 * the shrinker minimizes to the smallest program a predicate pins.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>

#include "cfg/builder.h"
#include "cfg/serialize.h"
#include "cfg/validate.h"
#include "check/differ.h"
#include "check/fuzz.h"

using namespace balign;

namespace {

/// Main diamond (cond head, two arms, join) calling two leaf procedures —
/// plenty of material for the shrinker to throw away.
Program
shrinkableProgram()
{
    Program program("shrinkable");
    const ProcId main = program.addProc("main");
    const ProcId leaf_a = program.addProc("leaf_a");
    const ProcId leaf_b = program.addProc("leaf_b");
    {
        CfgBuilder b(program.proc(main));
        const BlockId head = b.block(4, Terminator::CondBranch);
        const BlockId arm_a = b.block(3, Terminator::UncondBranch);
        const BlockId arm_b = b.block(5, Terminator::FallThrough);
        const BlockId join = b.block(2, Terminator::Return);
        b.taken(head, arm_a, 0, 0.5);
        b.fallThrough(head, arm_b, 0, 0.5);
        b.taken(arm_a, join, 0);
        b.fallThrough(arm_b, join, 0);
        b.call(head, leaf_a, 0);
        b.call(arm_b, leaf_b, 1);
    }
    {
        CfgBuilder b(program.proc(leaf_a));
        b.block(2, Terminator::Return);
    }
    {
        CfgBuilder b(program.proc(leaf_b));
        b.block(3, Terminator::Return);
    }
    validateOrDie(program);
    return program;
}

bool
mainHasCondBlock(const Repro &repro)
{
    const auto &main = repro.program.proc(repro.program.mainProc());
    for (const auto &block : main.blocks()) {
        if (block.term == Terminator::CondBranch)
            return true;
    }
    return false;
}

}  // namespace

TEST(Fuzz, DegenerateShapesAreValidAndDiffClean)
{
    DiffOptions first_only;
    first_only.maxDivergences = 1;
    ASSERT_GE(numDegenerateKinds(), 10u);
    for (std::size_t kind = 0; kind < numDegenerateKinds(); ++kind) {
        for (const std::uint64_t seed : {0u, 5u}) {
            Program program = degenerateProgram(kind, seed);
            EXPECT_TRUE(validate(program).empty())
                << degenerateKindName(kind) << " seed " << seed;
            const WalkOptions walk =
                walkForSeed(kind * 97 + seed + 1, 3'000);
            const auto divergences =
                diffProgram(std::move(program), walk, first_only);
            for (const auto &divergence : divergences)
                ADD_FAILURE() << degenerateKindName(kind) << " seed "
                              << seed << "\n"
                              << formatDivergence(divergence);
        }
    }
}

TEST(Fuzz, ProgramForSeedIsDeterministic)
{
    for (const std::uint64_t seed : {1u, 3u, 7u, 12u}) {
        const std::string once = programToString(programForSeed(seed));
        const std::string again = programToString(programForSeed(seed));
        EXPECT_EQ(once, again) << "seed " << seed;
        EXPECT_EQ(walkForSeed(seed, 5'000).seed,
                  walkForSeed(seed, 5'000).seed);
    }
    // Different seeds produce different walks (programs may rarely
    // collide; the walk seed never should).
    EXPECT_NE(walkForSeed(1, 5'000).seed, walkForSeed(2, 5'000).seed);
}

TEST(Fuzz, SmokeCampaignFindsNoDivergences)
{
    FuzzOptions options;
    options.seeds = 15;
    options.walkInstrs = 4'000;
    const FuzzReport report = runFuzz(options);
    EXPECT_EQ(report.programsRun, 15u);
    // 8 architectures x 5 aligners (incl. ExtTsp) x 3 objectives.
    EXPECT_EQ(report.configsChecked, 15u * 8u * 5u * 3u);
    for (const auto &divergence : report.divergences)
        ADD_FAILURE() << formatDivergence(divergence);
}

TEST(Fuzz, CampaignIsDeterministicAcrossRuns)
{
    FuzzOptions options;
    options.seeds = 6;
    options.walkInstrs = 2'000;
    const FuzzReport a = runFuzz(options);
    const FuzzReport b = runFuzz(options);
    EXPECT_EQ(a.programsRun, b.programsRun);
    EXPECT_EQ(a.configsChecked, b.configsChecked);
    EXPECT_EQ(a.divergences.size(), b.divergences.size());
}

TEST(Fuzz, ShrinkerMinimizesToThePredicate)
{
    Repro repro;
    repro.program = shrinkableProgram();
    repro.walk.seed = 99;
    repro.walk.instrBudget = 4'000;
    ASSERT_TRUE(mainHasCondBlock(repro));

    const Repro shrunk = shrinkRepro(repro, mainHasCondBlock);

    // The predicate survives, the program is valid, and everything the
    // predicate does not need is gone: both leaf procedures, the join
    // block (unreachable once the arms return), every spare instruction
    // and most of the trace budget.
    EXPECT_TRUE(mainHasCondBlock(shrunk));
    EXPECT_TRUE(validate(shrunk.program).empty());
    EXPECT_EQ(shrunk.program.numProcs(), 1u);
    const auto &main = shrunk.program.proc(shrunk.program.mainProc());
    EXPECT_LE(main.numBlocks(), 3u);
    for (const auto &block : main.blocks())
        EXPECT_EQ(block.numInstrs, 1u) << "block " << block.id;
    EXPECT_LE(shrunk.walk.instrBudget, 64u);
}

TEST(Fuzz, ShrinkerKeepsOriginalWhenNothingCanGo)
{
    // A minimal repro (single return block, floor budget) is a fixpoint.
    Repro repro;
    Program program("minimal");
    const ProcId main = program.addProc("main");
    CfgBuilder(program.proc(main)).block(1, Terminator::Return);
    validateOrDie(program);
    repro.program = std::move(program);
    repro.walk.instrBudget = 64;

    const Repro shrunk =
        shrinkRepro(repro, [](const Repro &) { return true; });
    EXPECT_EQ(shrunk.program.numProcs(), 1u);
    EXPECT_EQ(shrunk.program.proc(0).numBlocks(), 1u);
    EXPECT_EQ(shrunk.program.proc(0).block(0).numInstrs, 1u);
    EXPECT_EQ(shrunk.walk.instrBudget, 64u);
}

TEST(Fuzz, ReproFilesRoundTripWalkAndProgram)
{
    Repro repro;
    repro.program = shrinkableProgram();
    repro.walk.seed = 123456789;
    repro.walk.instrBudget = 77'000;

    const std::string path = testing::TempDir() + "balign-repro-rt.balign";
    saveRepro(repro, path);
    const auto loaded = loadRepro(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->walk.seed, repro.walk.seed);
    EXPECT_EQ(loaded->walk.instrBudget, repro.walk.instrBudget);
    EXPECT_EQ(programToString(loaded->program),
              programToString(repro.program));
}

TEST(Fuzz, ReproHeaderAfterOtherCommentLinesIsFound)
{
    // The first matching line wins: after other comment lines and a
    // near miss, and before a second header further down.
    const std::string path = testing::TempDir() + "balign-late-walk.balign";
    {
        std::ofstream file(path);
        file << "# a corpus note\n"
             << "#\n"
             << "# balign-fuzz-walk seed=oops budget=1\n"
             << "# balign-fuzz-walk seed=42 budget=9000\n"
             << programToString(shrinkableProgram())
             << "# balign-fuzz-walk seed=7 budget=8\n";
    }
    const auto loaded = loadRepro(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->walk.seed, 42u);
    EXPECT_EQ(loaded->walk.instrBudget, 9000u);
    EXPECT_EQ(programToString(loaded->program),
              programToString(shrinkableProgram()));
}

TEST(Fuzz, PlainProgramFilesLoadWithDefaultWalk)
{
    // A corpus file without the magic comment is still a repro; it gets
    // default walk options.
    const std::string path = testing::TempDir() + "balign-plain.balign";
    saveProgram(shrinkableProgram(), path);
    const auto loaded = loadRepro(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->walk.seed, WalkOptions{}.seed);
}
