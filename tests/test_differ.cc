/**
 * @file
 * Differential-harness tests. A differ that never fires is worthless, so
 * besides checking that clean configurations diff clean, these tests
 * corrupt materializer bookkeeping on purpose and require the harness to
 * detect each corruption as a Structural divergence, corrupt the batched
 * trace and require a Batch divergence, and they exercise the
 * sample-stream comparator on hand-built streams.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cfg/builder.h"
#include "cfg/validate.h"
#include "check/differ.h"
#include "check/oracle.h"
#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "sim/cpi.h"
#include "workload/suite.h"

using namespace balign;

namespace {

Program
smallProgram()
{
    Program program("differ-small");
    const ProcId main = program.addProc("main");
    CfgBuilder b(program.proc(main));
    const BlockId head = b.block(3, Terminator::CondBranch);
    const BlockId body = b.block(4, Terminator::UncondBranch);
    const BlockId exit = b.block(1, Terminator::Return);
    b.taken(head, body, 0, 0.8);
    b.fallThrough(head, exit, 0, 0.2);
    b.taken(body, head, 0);
    validateOrDie(program);
    return program;
}

PreparedProgram
preparedSmall()
{
    WalkOptions walk;
    walk.seed = 42;
    walk.instrBudget = 5'000;
    return prepareProgram(smallProgram(), walk, "differ-small");
}

/// Diffs one corrupted layout and requires a Structural report whose
/// detail mentions @p expect_substring.
void
expectStructural(const PreparedProgram &prepared, ProgramLayout layout,
                 const std::string &expect_substring)
{
    const auto divergence =
        diffLayout(prepared, layout, Arch::PhtDirect, AlignerKind::Original);
    ASSERT_TRUE(divergence.has_value())
        << "corruption (" << expect_substring << ") went undetected";
    EXPECT_EQ(divergence->kind, DivergenceKind::Structural)
        << formatDivergence(*divergence);
    EXPECT_NE(divergence->detail.find(expect_substring), std::string::npos)
        << "report does not mention '" << expect_substring << "':\n"
        << divergence->detail;
}

}  // namespace

TEST(Differ, CleanLayoutHasNoDivergence)
{
    const PreparedProgram prepared = preparedSmall();
    const ProgramLayout layout = originalLayout(prepared.program);
    const auto divergence =
        diffLayout(prepared, layout, Arch::BtbLarge, AlignerKind::Original);
    EXPECT_FALSE(divergence.has_value())
        << formatDivergence(*divergence);
}

TEST(Differ, CleanProgramDiffsCleanEverywhere)
{
    const auto divergences = diffPrepared(preparedSmall());
    for (const auto &divergence : divergences)
        ADD_FAILURE() << formatDivergence(divergence);
}

TEST(Differ, DetectsCorruptedBlockAddress)
{
    const PreparedProgram prepared = preparedSmall();
    ProgramLayout layout = originalLayout(prepared.program);
    layout.procs[0].blocks[1].addr += 1;
    expectStructural(prepared, layout, "addr");
}

TEST(Differ, DetectsCorruptedBaseInstrs)
{
    const PreparedProgram prepared = preparedSmall();
    ProgramLayout layout = originalLayout(prepared.program);
    layout.procs[0].blocks[0].baseInstrs += 1;
    expectStructural(prepared, layout, "baseInstrs");
}

TEST(Differ, DetectsBogusJumpRemoval)
{
    // Claiming block 1's back jump was removed is a lie: its target
    // (block 0) is not layout-adjacent in the identity order.
    const PreparedProgram prepared = preparedSmall();
    ProgramLayout layout = originalLayout(prepared.program);
    layout.procs[0].blocks[1].jumpRemoved = true;
    const auto divergence =
        diffLayout(prepared, layout, Arch::PhtDirect, AlignerKind::Original);
    ASSERT_TRUE(divergence.has_value());
    EXPECT_EQ(divergence->kind, DivergenceKind::Structural)
        << formatDivergence(*divergence);
}

TEST(Differ, DetectsCorruptedTotalInstrs)
{
    const PreparedProgram prepared = preparedSmall();
    ProgramLayout layout = originalLayout(prepared.program);
    layout.procs[0].totalInstrs += 2;
    expectStructural(prepared, layout, "totalInstrs");
}

TEST(Differ, DetectsCorruptedBranchAddr)
{
    const PreparedProgram prepared = preparedSmall();
    ProgramLayout layout = originalLayout(prepared.program);
    layout.procs[0].blocks[0].branchAddr += 1;
    expectStructural(prepared, layout, "branchAddr");
}

TEST(Differ, DetectsCorruptedBatchTrace)
{
    // Stage 4: flip one conditional outcome in a copy of the batched
    // trace. The streaming evaluator and the oracle still replay the
    // intact recording, so stages 1-3 stay clean and only the batched
    // PHT lane sees the wrong direction.
    PreparedProgram prepared = preparedSmall();
    const ProgramLayout layout = originalLayout(prepared.program);
    ASSERT_FALSE(diffLayout(prepared, layout, Arch::PhtDirect,
                            AlignerKind::Original)
                     .has_value());

    auto corrupted = std::make_shared<BatchTrace>(*prepared.batch);
    ASSERT_FALSE(corrupted->condViaTaken.empty());
    corrupted->condViaTaken[0] ^= 1;
    prepared.batch = corrupted;

    const auto divergence =
        diffLayout(prepared, layout, Arch::PhtDirect, AlignerKind::Original);
    ASSERT_TRUE(divergence.has_value()) << "corrupted batch went undetected";
    EXPECT_EQ(divergence->kind, DivergenceKind::Batch)
        << formatDivergence(*divergence);
    EXPECT_NE(divergence->detail.find("batched engine vs oracle"),
              std::string::npos)
        << divergence->detail;
}

TEST(Differ, CompareSamplesAcceptsIdenticalStreams)
{
    std::vector<BranchSample> stream(3);
    stream[0].site = 10;
    stream[1].site = 20;
    stream[1].taken = true;
    stream[2].site = 30;
    EXPECT_EQ(compareSamples(stream, stream), "");
}

TEST(Differ, CompareSamplesPinsFirstMismatch)
{
    std::vector<BranchSample> oracle(4);
    for (std::size_t i = 0; i < oracle.size(); ++i)
        oracle[i].site = static_cast<Addr>(100 + i);
    std::vector<BranchSample> production = oracle;
    production[2].taken = true;

    const std::string report = compareSamples(oracle, production);
    ASSERT_FALSE(report.empty());
    // The report names the diverging index and shows both renderings.
    EXPECT_NE(report.find("2"), std::string::npos) << report;
    EXPECT_NE(report.find(formatSample(oracle[2])), std::string::npos)
        << report;
    EXPECT_NE(report.find(formatSample(production[2])), std::string::npos)
        << report;
}

TEST(Differ, CompareSamplesReportsLengthMismatch)
{
    std::vector<BranchSample> oracle(3);
    std::vector<BranchSample> production(2);
    const std::string report = compareSamples(oracle, production);
    ASSERT_FALSE(report.empty());
    // A prefix relationship is reported as a length problem, not a
    // field mismatch.
    EXPECT_NE(report.find("3"), std::string::npos) << report;
    EXPECT_NE(report.find("2"), std::string::npos) << report;
}

TEST(Differ, AllArchsAndKindsCoverTheMatrix)
{
    EXPECT_EQ(allArchs().size(), 8u);
    EXPECT_EQ(allAlignerKinds().size(), 4u);
    // The extended sweep appends ExtTsp without renumbering the paper's
    // four (suite goldens pin those).
    ASSERT_EQ(allAlignerKindsExtended().size(), 5u);
    for (std::size_t i = 0; i < allAlignerKinds().size(); ++i)
        EXPECT_EQ(allAlignerKindsExtended()[i], allAlignerKinds()[i]);
    EXPECT_EQ(allAlignerKindsExtended().back(), AlignerKind::ExtTsp);
}

TEST(Differ, DivergenceRecordsObjective)
{
    Divergence divergence;
    divergence.kind = DivergenceKind::Event;
    divergence.objective = ObjectiveKind::ExtTsp;
    divergence.detail = "detail";
    const std::string text = formatDivergence(divergence);
    EXPECT_NE(text.find("objective=exttsp"), std::string::npos) << text;
}
