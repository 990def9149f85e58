/**
 * @file
 * Integration tests for the experiment driver plus parameterized
 * paper-shape property tests across the benchmark suite: alignment must
 * reduce (or at worst match) branch cost on every program and static
 * architecture, Try15 must not lose to Greedy under its own cost model,
 * and the qualitative claims of paper §6 must hold on the suite averages.
 */

#include <bit>
#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "sim/cpi.h"
#include "sim/exec_time.h"
#include "support/log.h"
#include "workload/suite.h"

using namespace balign;

namespace {

ProgramSpec
shortSpec(const std::string &name, std::uint64_t instrs = 150'000)
{
    ProgramSpec spec = suiteSpec(name);
    spec.traceInstrs = instrs;
    return spec;
}

}  // namespace

TEST(Experiments, RunProducesAllCells)
{
    const std::vector<ExperimentConfig> configs = {
        {Arch::Fallthrough, AlignerKind::Original},
        {Arch::Fallthrough, AlignerKind::Try15},
        {Arch::BtbLarge, AlignerKind::Greedy},
    };
    const ExperimentRun run = runExperiment(shortSpec("compress"), configs);
    EXPECT_EQ(run.cells.size(), 3u);
    EXPECT_EQ(run.name, "compress");
    EXPECT_EQ(run.group, "SPECint92");
    EXPECT_GT(run.origInstrs, 0u);
    // Original relative CPI is at least 1 (penalties are non-negative).
    EXPECT_GE(run.cell(Arch::Fallthrough, AlignerKind::Original).relCpi,
              1.0);
}

TEST(Experiments, OriginalInstrsMatchProfiledInstrs)
{
    const std::vector<ExperimentConfig> configs = {
        {Arch::BtFnt, AlignerKind::Original},
    };
    const ExperimentRun run = runExperiment(shortSpec("li"), configs);
    // The identity layout executes exactly the traced instructions.
    EXPECT_EQ(run.origInstrs, run.stats.instrsTraced);
    EXPECT_EQ(run.cell(Arch::BtFnt, AlignerKind::Original).eval.instrs,
              run.stats.instrsTraced);
}

TEST(Experiments, DeterministicAcrossRuns)
{
    const std::vector<ExperimentConfig> configs = {
        {Arch::PhtDirect, AlignerKind::Try15},
    };
    const ExperimentRun a = runExperiment(shortSpec("sc"), configs);
    const ExperimentRun b = runExperiment(shortSpec("sc"), configs);
    EXPECT_EQ(a.cells[0].eval.instrs, b.cells[0].eval.instrs);
    EXPECT_EQ(a.cells[0].eval.misfetches, b.cells[0].eval.misfetches);
    EXPECT_EQ(a.cells[0].eval.mispredicts, b.cells[0].eval.mispredicts);
}

TEST(ExperimentsDeath, MissingCellIsFatal)
{
    const std::vector<ExperimentConfig> configs = {
        {Arch::BtFnt, AlignerKind::Original},
    };
    const ExperimentRun run = runExperiment(shortSpec("ora"), configs);
    EXPECT_DEATH(run.cell(Arch::Likely, AlignerKind::Try15), "no cell");
}

// ---- paper-shape properties, parameterized over the suite -------------------

class SuiteShapeSweep : public ::testing::TestWithParam<const char *>
{
  protected:
    static constexpr double kTolerance = 1.005;  // 0.5% simulation noise
};

TEST_P(SuiteShapeSweep, AlignmentImprovesEveryStaticArchitecture)
{
    const std::vector<ExperimentConfig> configs = {
        {Arch::Fallthrough, AlignerKind::Original},
        {Arch::Fallthrough, AlignerKind::Greedy},
        {Arch::Fallthrough, AlignerKind::Try15},
        {Arch::BtFnt, AlignerKind::Original},
        {Arch::BtFnt, AlignerKind::Try15},
        {Arch::Likely, AlignerKind::Original},
        {Arch::Likely, AlignerKind::Try15},
    };
    const ExperimentRun run =
        runExperiment(shortSpec(GetParam()), configs);
    for (Arch arch : {Arch::Fallthrough, Arch::BtFnt, Arch::Likely}) {
        const double orig = run.cell(arch, AlignerKind::Original).relCpi;
        const double aligned = run.cell(arch, AlignerKind::Try15).relCpi;
        EXPECT_LE(aligned, orig * kTolerance)
            << GetParam() << " on " << archName(arch);
    }
    // Try15 should not lose to Greedy under its own cost model
    // (FALLTHROUGH is where the gap is widest).
    EXPECT_LE(run.cell(Arch::Fallthrough, AlignerKind::Try15).relCpi,
              run.cell(Arch::Fallthrough, AlignerKind::Greedy).relCpi *
                  kTolerance)
        << GetParam();
}

TEST_P(SuiteShapeSweep, Try15RaisesFallThroughPercentage)
{
    const std::vector<ExperimentConfig> configs = {
        {Arch::Fallthrough, AlignerKind::Original},
        {Arch::Fallthrough, AlignerKind::Try15},
    };
    const ExperimentRun run =
        runExperiment(shortSpec(GetParam()), configs);
    const double before =
        run.cell(Arch::Fallthrough, AlignerKind::Original)
            .eval.pctFallThrough();
    const double after =
        run.cell(Arch::Fallthrough, AlignerKind::Try15)
            .eval.pctFallThrough();
    EXPECT_GE(after, before - 0.5) << GetParam();
    // The paper reports up to 99% fall-through under FALLTHROUGH; demand a
    // strong conversion everywhere.
    EXPECT_GE(after, 70.0) << GetParam();
}

TEST_P(SuiteShapeSweep, DynamicArchitecturesSeeSmallerGains)
{
    const std::vector<ExperimentConfig> configs = {
        {Arch::Fallthrough, AlignerKind::Original},
        {Arch::Fallthrough, AlignerKind::Try15},
        {Arch::BtbLarge, AlignerKind::Original},
        {Arch::BtbLarge, AlignerKind::Try15},
    };
    const ExperimentRun run =
        runExperiment(shortSpec(GetParam()), configs);
    const double ft_gain =
        run.cell(Arch::Fallthrough, AlignerKind::Original).relCpi -
        run.cell(Arch::Fallthrough, AlignerKind::Try15).relCpi;
    const double btb_gain =
        run.cell(Arch::BtbLarge, AlignerKind::Original).relCpi -
        run.cell(Arch::BtbLarge, AlignerKind::Try15).relCpi;
    // The BTB architecture starts far more efficient, so alignment buys
    // less there (paper §6).
    EXPECT_LE(btb_gain, ft_gain + 0.01) << GetParam();
    EXPECT_GE(btb_gain, -0.01) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Programs, SuiteShapeSweep,
                         ::testing::Values("alvinn", "swm256", "doduc",
                                           "compress", "eqntott",
                                           "espresso", "li", "sc", "groff",
                                           "idl"));

// ---- averaged paper claims ---------------------------------------------------

TEST(PaperClaims, AlignmentNarrowsFallthroughVsBtFnt)
{
    // Paper §6: "the aligned FALLTHROUGH and BT/FNT architectures have
    // almost identical performance" — the gap must shrink markedly.
    double gap_before = 0.0, gap_after = 0.0;
    const char *programs[] = {"compress", "eqntott", "li", "sc"};
    for (const char *name : programs) {
        const std::vector<ExperimentConfig> configs = {
            {Arch::Fallthrough, AlignerKind::Original},
            {Arch::Fallthrough, AlignerKind::Try15},
            {Arch::BtFnt, AlignerKind::Original},
            {Arch::BtFnt, AlignerKind::Try15},
        };
        const ExperimentRun run = runExperiment(shortSpec(name), configs);
        gap_before +=
            run.cell(Arch::Fallthrough, AlignerKind::Original).relCpi -
            run.cell(Arch::BtFnt, AlignerKind::Original).relCpi;
        gap_after +=
            run.cell(Arch::Fallthrough, AlignerKind::Try15).relCpi -
            run.cell(Arch::BtFnt, AlignerKind::Try15).relCpi;
    }
    EXPECT_LT(gap_after, gap_before * 0.5);
}

TEST(PaperClaims, SmallBtbGainsMoreThanLargeBtb)
{
    // Paper §6: "The small BTB architecture can benefit more from branch
    // alignment than the larger BTB."
    double small_gain = 0.0, large_gain = 0.0;
    const char *programs[] = {"eqntott", "espresso", "li", "sc", "groff"};
    for (const char *name : programs) {
        const std::vector<ExperimentConfig> configs = {
            {Arch::BtbSmall, AlignerKind::Original},
            {Arch::BtbSmall, AlignerKind::Try15},
            {Arch::BtbLarge, AlignerKind::Original},
            {Arch::BtbLarge, AlignerKind::Try15},
        };
        const ExperimentRun run = runExperiment(shortSpec(name), configs);
        small_gain +=
            run.cell(Arch::BtbSmall, AlignerKind::Original).relCpi -
            run.cell(Arch::BtbSmall, AlignerKind::Try15).relCpi;
        large_gain +=
            run.cell(Arch::BtbLarge, AlignerKind::Original).relCpi -
            run.cell(Arch::BtbLarge, AlignerKind::Try15).relCpi;
    }
    EXPECT_GT(small_gain, large_gain);
}

TEST(PaperClaims, IntegerProgramsGainMoreThanFp)
{
    // Paper §6: SPECint92 and Other programs benefit more than SPECfp92.
    auto gain = [](const char *name) {
        const std::vector<ExperimentConfig> configs = {
            {Arch::Fallthrough, AlignerKind::Original},
            {Arch::Fallthrough, AlignerKind::Try15},
        };
        const ExperimentRun run = runExperiment(shortSpec(name), configs);
        return run.cell(Arch::Fallthrough, AlignerKind::Original).relCpi -
               run.cell(Arch::Fallthrough, AlignerKind::Try15).relCpi;
    };
    const double fp = gain("swm256") + gain("tomcatv") + gain("nasa7");
    const double integer = gain("eqntott") + gain("li") + gain("sc");
    EXPECT_GT(integer, fp);
}

// ---- Figure 4 driver -----------------------------------------------------------

TEST(ExecTime, FpProgramsSeeNoBenefitIntProgramsDo)
{
    ProgramSpec alvinn = shortSpec("alvinn", 300'000);
    ProgramSpec li = shortSpec("li", 300'000);
    const ExecTimeResult fp = runExecTime(alvinn);
    const ExecTimeResult integer = runExecTime(li);
    EXPECT_NEAR(fp.try15Relative, 1.0, 0.01);
    EXPECT_LT(integer.try15Relative, 0.99);
    EXPECT_GT(integer.try15Relative, 0.5);
    EXPECT_GT(fp.originalCycles, 0.0);
}

namespace {

std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xFF;
        hash *= 1099511628211ull;
    }
    return hash;
}

/// FNV-1a 64 over every field of @p r; doubles by their bit pattern.
std::uint64_t
hashExecTime(const ExecTimeResult &r)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (const char c : r.name)
        hash = fnv1a(hash, static_cast<unsigned char>(c));
    for (const double d : {r.originalCycles, r.greedyRelative,
                           r.try15Relative, r.origCyclesTotal})
        hash = fnv1a(hash, std::bit_cast<std::uint64_t>(d));
    for (const std::uint64_t n :
         {r.origMispredicts, r.greedyMispredicts, r.try15Mispredicts,
          r.origICacheMisses, r.try15ICacheMisses, r.origMisfetches,
          r.try15Misfetches, r.origInstrs})
        hash = fnv1a(hash, n);
    return hash;
}

}  // namespace

// Pins Figure 4 exactly: the pipeline model's penalties, I-cache geometry
// and return stack are constants, so any change to them (or to the
// layouts it times) moves these digests.
TEST(ExecTime, MatchesPinnedDigest)
{
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"compress", 0xa72b860d3ce67932ull},
        {"li", 0x875c3933361312afull},
        {"alvinn", 0x5c461173444a3ba0ull},
        {"ear", 0x57f280926e7c4bc6ull},
    };
    for (const auto &[name, digest] : pinned) {
        const ExecTimeResult r = runExecTime(shortSpec(name, 200'000));
        EXPECT_EQ(hashExecTime(r), digest)
            << name << ": 0x" << std::hex << hashExecTime(r);
    }
}

TEST(ExecTime, AlignedNeverMeaningfullySlower)
{
    for (const char *name : {"compress", "espresso", "sc"}) {
        const ExecTimeResult r = runExecTime(shortSpec(name, 200'000));
        EXPECT_LE(r.try15Relative, 1.005) << name;
        EXPECT_LE(r.greedyRelative, 1.01) << name;
    }
}
