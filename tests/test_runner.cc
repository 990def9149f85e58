/**
 * @file
 * Tests for the thread pool and the parallel experiment runner: full
 * index coverage, nested parallelism, exception propagation, the
 * BALIGN_THREADS knob, and — the load-bearing guarantee — byte-identical
 * results across thread counts and against the serial driver.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/runner.h"
#include "support/thread_pool.h"
#include "workload/suite.h"

using namespace balign;

namespace {

ProgramSpec
shortSpec(const std::string &name, std::uint64_t instrs = 60'000)
{
    ProgramSpec spec = suiteSpec(name);
    spec.traceInstrs = instrs;
    return spec;
}

void
expectEqualRuns(const ExperimentRun &a, const ExperimentRun &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.origInstrs, b.origInstrs);
    EXPECT_EQ(a.stats.instrsTraced, b.stats.instrsTraced);
    EXPECT_EQ(a.stats.condBranches, b.stats.condBranches);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        const ExperimentCell &x = a.cells[i];
        const ExperimentCell &y = b.cells[i];
        EXPECT_EQ(x.config.arch, y.config.arch);
        EXPECT_EQ(x.config.kind, y.config.kind);
        EXPECT_EQ(x.eval.instrs, y.eval.instrs);
        EXPECT_EQ(x.eval.misfetches, y.eval.misfetches);
        EXPECT_EQ(x.eval.mispredicts, y.eval.mispredicts);
        EXPECT_EQ(x.eval.condExec, y.eval.condExec);
        EXPECT_EQ(x.eval.condTaken, y.eval.condTaken);
        EXPECT_EQ(x.eval.btbHits, y.eval.btbHits);
        // Exact double equality: both sides must run the identical
        // computation, not merely a close one.
        EXPECT_EQ(x.relCpi, y.relCpi);
    }
}

/// RAII guard saving/restoring one environment variable.
class EnvGuard
{
  public:
    explicit EnvGuard(const char *name) : name_(name)
    {
        const char *value = std::getenv(name);
        had_ = value != nullptr;
        if (had_)
            saved_ = value;
    }

    ~EnvGuard()
    {
        if (had_)
            setenv(name_, saved_.c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_ = false;
    std::string saved_;
};

}  // namespace

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> counts(n);
    pool.parallelFor(n, [&](std::size_t i) { counts[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ThreadPool, SerialPoolSpawnsNoWorkers)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    std::size_t ran = 0;
    pool.parallelFor(64, [&](std::size_t) { ++ran; });  // no data race
    EXPECT_EQ(ran, 64u);
}

TEST(ThreadPool, NestedParallelForCompletes)
{
    ThreadPool pool(4);
    std::atomic<int> total{0};
    pool.parallelFor(8, [&](std::size_t) {
        pool.parallelFor(16, [&](std::size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(3);
    EXPECT_THROW(pool.parallelFor(
                     100,
                     [&](std::size_t i) {
                         if (i == 41)
                             throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<int> total{0};
    pool.parallelFor(10, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPool, IdleThreadsCountsWaitingWorkers)
{
    ThreadPool serial(1);
    EXPECT_EQ(serial.idleThreads(), 0u);

    ThreadPool pool(3);
    auto settle = [&](unsigned expected) {
        for (int i = 0; i < 5000 && pool.idleThreads() != expected; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return pool.idleThreads();
    };
    EXPECT_EQ(settle(2), 2u);

    // The caller blocks in item 0, so a worker must claim item 1; while
    // it runs, only one worker is idle.
    std::atomic<int> started{0};
    std::atomic<bool> release{false};
    std::thread caller([&] {
        pool.parallelFor(2, [&](std::size_t) {
            started.fetch_add(1);
            while (!release.load())
                std::this_thread::yield();
        });
    });
    while (started.load() < 2)
        std::this_thread::yield();
    EXPECT_EQ(settle(1), 1u);
    release.store(true);
    caller.join();
    EXPECT_EQ(settle(2), 2u);
}

TEST(Runner, DefaultThreadsHonorsEnvKnob)
{
    EnvGuard guard("BALIGN_THREADS");
    setenv("BALIGN_THREADS", "3", 1);
    EXPECT_EQ(defaultThreads(), 3u);
    setenv("BALIGN_THREADS", "1", 1);
    EXPECT_EQ(defaultThreads(), 1u);

    unsetenv("BALIGN_THREADS");
    const unsigned hw = defaultThreads();
    EXPECT_GE(hw, 1u);
    // Garbage and non-positive values fall back to the hardware default.
    setenv("BALIGN_THREADS", "zero", 1);
    EXPECT_EQ(defaultThreads(), hw);
    setenv("BALIGN_THREADS", "0", 1);
    EXPECT_EQ(defaultThreads(), hw);
    setenv("BALIGN_THREADS", "-4", 1);
    EXPECT_EQ(defaultThreads(), hw);
}

TEST(Runner, SuiteMatchesSerialDriver)
{
    const std::vector<ProgramSpec> suite = {shortSpec("compress"),
                                            shortSpec("alvinn"),
                                            shortSpec("li")};
    const std::vector<ExperimentConfig> configs = {
        {Arch::Fallthrough, AlignerKind::Original},
        {Arch::BtFnt, AlignerKind::Greedy},
        {Arch::PhtDirect, AlignerKind::Try15},
        {Arch::BtbSmall, AlignerKind::Try15},
    };

    RunnerOptions options;
    options.threads = 4;
    const std::vector<ExperimentRun> runs = runSuite(suite, configs, options);
    ASSERT_EQ(runs.size(), suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const ExperimentRun serial = runExperiment(suite[i], configs);
        expectEqualRuns(runs[i], serial);
    }
}

TEST(Runner, DeterministicAcrossThreadCounts)
{
    const std::vector<ProgramSpec> suite = {shortSpec("eqntott"),
                                            shortSpec("ora"),
                                            shortSpec("sc")};
    const std::vector<ExperimentConfig> configs = {
        {Arch::PhtDirect, AlignerKind::Original},
        {Arch::PhtDirect, AlignerKind::Greedy},
        {Arch::PhtDirect, AlignerKind::Try15},
        {Arch::BtbLarge, AlignerKind::Try15},
    };

    // BALIGN_THREADS must drive the runner when options.threads is 0, and
    // every thread count must produce identical output.
    EnvGuard guard("BALIGN_THREADS");
    std::vector<std::vector<ExperimentRun>> all;
    for (const char *threads : {"1", "2", "8"}) {
        setenv("BALIGN_THREADS", threads, 1);
        PhaseTimes times;
        RunnerOptions options;
        options.times = &times;
        all.push_back(runSuite(suite, configs, options));
        EXPECT_GT(times.seconds("replay"), 0.0);
        EXPECT_GT(times.seconds("align"), 0.0);
    }
    for (std::size_t v = 1; v < all.size(); ++v) {
        ASSERT_EQ(all[v].size(), all[0].size());
        for (std::size_t i = 0; i < all[0].size(); ++i)
            expectEqualRuns(all[v][i], all[0][i]);
    }
}

TEST(Runner, ExecTimeSuiteMatchesSerial)
{
    const std::vector<ProgramSpec> suite = {shortSpec("compress"),
                                            shortSpec("gcc")};
    RunnerOptions options;
    options.threads = 4;
    const std::vector<ExecTimeResult> parallel =
        runExecTimeSuite(suite, options);
    ASSERT_EQ(parallel.size(), suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const ExecTimeResult serial = runExecTime(suite[i]);
        EXPECT_EQ(parallel[i].name, serial.name);
        EXPECT_EQ(parallel[i].originalCycles, serial.originalCycles);
        EXPECT_EQ(parallel[i].greedyRelative, serial.greedyRelative);
        EXPECT_EQ(parallel[i].try15Relative, serial.try15Relative);
        EXPECT_EQ(parallel[i].origMispredicts, serial.origMispredicts);
        EXPECT_EQ(parallel[i].try15ICacheMisses, serial.try15ICacheMisses);
    }
}
