/**
 * @file
 * Unit tests for support utilities: saturating counters, statistics
 * accumulators, coverage counting, the table writer and the JSON string
 * writer (with the report writers that use it).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "cfg/serialize.h"
#include "disasm/checkobj.h"
#include "estimate/estimate.h"
#include "lint/lint.h"
#include "support/json.h"
#include "support/saturating_counter.h"
#include "support/stats.h"
#include "support/table.h"
#include "verify/driver.h"

using namespace balign;

// ---- Saturating counters --------------------------------------------------

TEST(SaturatingUpdate, TwoBitHysteresis)
{
    std::uint8_t c = 1;  // weakly not-taken
    c = saturatingUpdate(c, 3, true);  // 1 -> 2
    EXPECT_TRUE(saturatingTaken(c, 3));
    c = saturatingUpdate(c, 3, false);  // 2 -> 1
    EXPECT_FALSE(saturatingTaken(c, 3));
}

TEST(SaturatingUpdate, SaturatesAtBounds)
{
    std::uint8_t c = 1;
    for (int i = 0; i < 10; ++i)
        c = saturatingUpdate(c, 3, true);
    EXPECT_EQ(c, 3u);
    for (int i = 0; i < 10; ++i)
        c = saturatingUpdate(c, 3, false);
    EXPECT_EQ(c, 0u);
}

TEST(SaturatingUpdate, OneBitFlipsImmediately)
{
    std::uint8_t c = 0;
    EXPECT_FALSE(saturatingTaken(c, 1));
    c = saturatingUpdate(c, 1, true);
    EXPECT_TRUE(saturatingTaken(c, 1));
    c = saturatingUpdate(c, 1, false);
    EXPECT_FALSE(saturatingTaken(c, 1));
}

class CounterWidthSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CounterWidthSweep, TakenThresholdIsUpperHalf)
{
    const unsigned bits = GetParam();
    const auto max = static_cast<std::uint8_t>((1u << bits) - 1);
    for (unsigned v = 0; v <= max; ++v) {
        EXPECT_EQ(saturatingTaken(static_cast<std::uint8_t>(v), max),
                  v >= (max + 1u) / 2)
            << "bits=" << bits << " v=" << v;
    }
}

TEST_P(CounterWidthSweep, MonotoneUpdates)
{
    const unsigned bits = GetParam();
    const auto max = static_cast<std::uint8_t>((1u << bits) - 1);
    std::uint8_t c = 0;
    for (unsigned i = 0; i < (2u << bits); ++i) {
        const std::uint8_t next = saturatingUpdate(c, max, true);
        EXPECT_GE(next, c);
        c = next;
    }
    EXPECT_EQ(c, max);
}

INSTANTIATE_TEST_SUITE_P(Widths, CounterWidthSweep,
                         ::testing::Values(1, 2, 3, 4, 8));

// ---- Accumulator ----------------------------------------------------------

TEST(Accumulator, EmptyIsZero)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, SingleSample)
{
    Accumulator acc;
    acc.add(5.0);
    EXPECT_EQ(acc.count(), 1u);
    EXPECT_EQ(acc.mean(), 5.0);
    EXPECT_EQ(acc.min(), 5.0);
    EXPECT_EQ(acc.max(), 5.0);
    EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, KnownMoments)
{
    Accumulator acc;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(x);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_EQ(acc.min(), 2.0);
    EXPECT_EQ(acc.max(), 9.0);
    EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);  // sample variance
    EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, NegativeValues)
{
    Accumulator acc;
    acc.add(-3.0);
    acc.add(3.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.min(), -3.0);
    EXPECT_EQ(acc.max(), 3.0);
}

// ---- coverageCount ----------------------------------------------------------

TEST(CoverageCount, EmptyIsZero)
{
    EXPECT_EQ(coverageCount({}, 0.5), 0u);
}

TEST(CoverageCount, AllZeroWeights)
{
    EXPECT_EQ(coverageCount({0, 0, 0}, 0.5), 0u);
}

TEST(CoverageCount, SingleDominantItem)
{
    // 90 of 100 total in one item: Q-50 and Q-90 need only it.
    const std::vector<std::uint64_t> w = {90, 5, 3, 2};
    EXPECT_EQ(coverageCount(w, 0.50), 1u);
    EXPECT_EQ(coverageCount(w, 0.90), 1u);
    EXPECT_EQ(coverageCount(w, 0.95), 2u);
    EXPECT_EQ(coverageCount(w, 1.00), 4u);
}

TEST(CoverageCount, UniformWeights)
{
    const std::vector<std::uint64_t> w(10, 7);
    EXPECT_EQ(coverageCount(w, 0.50), 5u);
    EXPECT_EQ(coverageCount(w, 0.90), 9u);
    EXPECT_EQ(coverageCount(w, 1.00), 10u);
}

TEST(CoverageCount, Q100IgnoresZeroItems)
{
    const std::vector<std::uint64_t> w = {10, 0, 5, 0};
    EXPECT_EQ(coverageCount(w, 1.00), 2u);
}

TEST(SafeRatio, DivisionByZero)
{
    EXPECT_EQ(safeRatio(5.0, 0.0), 0.0);
    EXPECT_EQ(pct(5.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(pct(1.0, 4.0), 25.0);
}

// ---- Table ------------------------------------------------------------------

TEST(Table, WithCommas)
{
    EXPECT_EQ(withCommas(0), "0");
    EXPECT_EQ(withCommas(7), "7");
    EXPECT_EQ(withCommas(999), "999");
    EXPECT_EQ(withCommas(1000), "1,000");
    EXPECT_EQ(withCommas(5240969), "5,240,969");
    EXPECT_EQ(withCommas(1234567890123ull), "1,234,567,890,123");
}

TEST(Table, Fixed)
{
    EXPECT_EQ(fixed(1.2345, 3), "1.234");
    EXPECT_EQ(fixed(1.5, 0), "2");
    EXPECT_EQ(fixed(-0.125, 2), "-0.12");
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"Name", "Value"});
    t.row().cell("alpha").cell(std::uint64_t{1});
    t.row().cell("bb").cell(std::uint64_t{22});
    const std::string out = t.str();
    EXPECT_NE(out.find("Name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, SeparatorRows)
{
    Table t({"A"});
    t.row().cell("x");
    t.separator();
    t.row().cell("y");
    const std::string out = t.str();
    // Two rule lines: one under the header, one mid-table.
    std::size_t rules = 0, pos = 0;
    while ((pos = out.find("\n-", pos)) != std::string::npos) {
        ++rules;
        pos += 2;
    }
    EXPECT_EQ(rules, 2u);
    EXPECT_EQ(t.numRows(), 3u);  // separator counts as a row slot
}

TEST(Table, NumericFormattingInCells)
{
    Table t({"A", "B", "C"});
    t.row().cell("r").cell(3.14159, 2).cell(std::uint64_t{1234567}, true);
    const std::string out = t.str();
    EXPECT_NE(out.find("3.14"), std::string::npos);
    EXPECT_NE(out.find("1,234,567"), std::string::npos);
}

// ---- JSON strings ----------------------------------------------------------

TEST(JsonString, EscapesQuotesBackslashesAndControlCharacters)
{
    std::ostringstream out;
    writeJsonString("a\"b\\c\td\ne\x01" "f\x1f", out);
    EXPECT_EQ(out.str(), R"("a\"b\\c\td\ne\u0001f\u001f")");

    std::ostringstream plain;
    writeJsonString("caf\xc3\xa9 /x", plain);
    EXPECT_EQ(plain.str(), "\"caf\xc3\xa9 /x\"");
}

TEST(JsonString, ReportWritersEscapeProgramNamesAndPaths)
{
    // A program and a procedure named q"x\y, reported under a path
    // holding a tab: every writer must print the escaped forms.
    const ParseResult parsed = programFromString("balign-program v1\n"
                                                 "program q\"x\\y\n"
                                                 "main 0\n"
                                                 "proc 0 q\"x\\y entry 0\n"
                                                 "block 0 1 return\n"
                                                 "endproc\n");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    Program program = *parsed.program;
    const std::string path = "dir\tq\"x\\y.balign";
    const std::string escapedName = R"("q\"x\\y")";
    const std::string escapedPath = R"("dir\tq\"x\\y.balign")";

    std::ostringstream lint;
    writeLintReportJson(LintReport{}, path, lint);
    EXPECT_NE(lint.str().find("\"program\":" + escapedPath),
              std::string::npos) << lint.str();

    std::ostringstream verify;
    writeVerifyReportJson(VerifyRunReport{}, path, verify);
    EXPECT_NE(verify.str().find("\"program\":" + escapedPath),
              std::string::npos) << verify.str();

    std::ostringstream estimate;
    writeEstimateReportJson(estimateProfile(program), program, estimate);
    EXPECT_NE(estimate.str().find("\"program\":" + escapedName),
              std::string::npos) << estimate.str();
    EXPECT_NE(estimate.str().find("\"name\":" + escapedName),
              std::string::npos) << estimate.str();

    ObjCertificate certificate;
    certificate.program = program.name();
    certificate.object = path;
    certificate.result.disasm.procs.emplace_back();
    certificate.result.disasm.procs.back().name = program.proc(0).name();
    std::ostringstream checkobj;
    writeObjCertificateJson(certificate, checkobj);
    EXPECT_NE(checkobj.str().find("\"program\":" + escapedName),
              std::string::npos) << checkobj.str();
    EXPECT_NE(checkobj.str().find("\"object\":" + escapedPath),
              std::string::npos) << checkobj.str();
    EXPECT_NE(checkobj.str().find("{\"name\":" + escapedName),
              std::string::npos) << checkobj.str();
}
