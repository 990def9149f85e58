/**
 * @file
 * Bench-harness environment-knob tests: a typo in BALIGN_PROGRAMS must be
 * a fatal error (never a silent fall-back to the full suite), with both
 * the comma and whitespace separators the parser accepts, and so must a
 * BALIGN_TRACE_INSTRS that is not a positive decimal count.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "bench/bench_util.h"
#include "workload/suite.h"

using namespace balign;

namespace {

/// Restores BALIGN_PROGRAMS on scope exit so tests cannot leak state.
class ScopedPrograms
{
  public:
    explicit ScopedPrograms(const char *value)
    {
        const char *old = std::getenv("BALIGN_PROGRAMS");
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        setenv("BALIGN_PROGRAMS", value, 1);
    }

    ~ScopedPrograms()
    {
        if (had_)
            setenv("BALIGN_PROGRAMS", old_.c_str(), 1);
        else
            unsetenv("BALIGN_PROGRAMS");
    }

  private:
    bool had_ = false;
    std::string old_;
};

}  // namespace

TEST(BenchEnvDeathTest, UnknownNameInCommaListIsFatal)
{
    EXPECT_EXIT(
        {
            setenv("BALIGN_PROGRAMS", "compress,not-a-program", 1);
            bench::tunedSuite(benchmarkSuite());
        },
        testing::ExitedWithCode(1), "not a suite program");
}

TEST(BenchEnvDeathTest, UnknownNameInSpaceListIsFatal)
{
    EXPECT_EXIT(
        {
            setenv("BALIGN_PROGRAMS", "compress li typo-name", 1);
            bench::tunedSuite(benchmarkSuite());
        },
        testing::ExitedWithCode(1), "not a suite program");
}

TEST(BenchEnv, CommaAndSpaceSeparatorsSelectTheSameSubset)
{
    std::vector<ProgramSpec> by_comma;
    {
        ScopedPrograms env("compress,li");
        by_comma = bench::tunedSuite(benchmarkSuite());
    }
    std::vector<ProgramSpec> by_space;
    {
        ScopedPrograms env("compress li");
        by_space = bench::tunedSuite(benchmarkSuite());
    }
    ASSERT_EQ(by_comma.size(), 2u);
    ASSERT_EQ(by_space.size(), 2u);
    for (std::size_t i = 0; i < by_comma.size(); ++i)
        EXPECT_EQ(by_comma[i].name, by_space[i].name);
}

TEST(BenchEnv, TraceInstrsOverrideApplies)
{
    const char *old = std::getenv("BALIGN_TRACE_INSTRS");
    setenv("BALIGN_TRACE_INSTRS", "12345", 1);
    const auto suite = bench::tunedSuite(benchmarkSuite());
    if (old != nullptr)
        setenv("BALIGN_TRACE_INSTRS", old, 1);
    else
        unsetenv("BALIGN_TRACE_INSTRS");
    ASSERT_FALSE(suite.empty());
    for (const auto &spec : suite)
        EXPECT_EQ(spec.traceInstrs, 12345u);
}

TEST(BenchEnvDeathTest, TraceInstrsRejectsExponent)
{
    EXPECT_EXIT(
        {
            setenv("BALIGN_TRACE_INSTRS", "2e5", 1);
            bench::tunedSuite(benchmarkSuite());
        },
        testing::ExitedWithCode(1), "'2e5' is not a positive instruction");
}

TEST(BenchEnvDeathTest, TraceInstrsRejectsSuffix)
{
    EXPECT_EXIT(
        {
            setenv("BALIGN_TRACE_INSTRS", "200k", 1);
            bench::tunedSuite(benchmarkSuite());
        },
        testing::ExitedWithCode(1), "'200k' is not a positive instruction");
}

TEST(BenchEnvDeathTest, TraceInstrsRejectsNonNumber)
{
    EXPECT_EXIT(
        {
            setenv("BALIGN_TRACE_INSTRS", "abc", 1);
            bench::tunedSuite(benchmarkSuite());
        },
        testing::ExitedWithCode(1), "'abc' is not a positive instruction");
}

TEST(BenchEnvDeathTest, TraceInstrsRejectsZero)
{
    EXPECT_EXIT(
        {
            setenv("BALIGN_TRACE_INSTRS", "0", 1);
            bench::tunedSuite(benchmarkSuite());
        },
        testing::ExitedWithCode(1), "'0' is not a positive instruction");
}

TEST(BenchEnv, TraceInstrsAcceptsPlainCounts)
{
    const char *old = std::getenv("BALIGN_TRACE_INSTRS");
    const std::string saved = old != nullptr ? old : "";
    for (const char *value : {"200000", "100000"}) {
        setenv("BALIGN_TRACE_INSTRS", value, 1);
        EXPECT_EQ(bench::traceInstrs(7), std::strtoull(value, nullptr, 10));
    }
    if (old != nullptr)
        setenv("BALIGN_TRACE_INSTRS", saved.c_str(), 1);
    else
        unsetenv("BALIGN_TRACE_INSTRS");
}
