/**
 * @file
 * Shared helpers for the table/figure bench harnesses.
 *
 * Environment knobs:
 *   BALIGN_TRACE_INSTRS  override the per-program trace length
 *   BALIGN_PROGRAMS      comma-separated subset of suite program names
 */

#ifndef BALIGN_BENCH_BENCH_UTIL_H
#define BALIGN_BENCH_BENCH_UTIL_H

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <vector>

#include "support/log.h"
#include "support/stats.h"
#include "workload/spec.h"
#include "workload/suite.h"

namespace balign::bench {

/// BALIGN_TRACE_INSTRS as a trace length, or @p fallback when it is
/// unset. Anything but a positive decimal integer is a fatal error: `2e5`
/// or `200k` must not silently become a 2- or 200-instruction run.
inline std::uint64_t
traceInstrs(std::uint64_t fallback)
{
    const char *env = std::getenv("BALIGN_TRACE_INSTRS");
    if (env == nullptr)
        return fallback;
    const char *end = env + std::strlen(env);
    std::uint64_t budget = 0;
    const auto [ptr, error] = std::from_chars(env, end, budget);
    if (error != std::errc() || ptr != end || budget == 0)
        fatal("BALIGN_TRACE_INSTRS: '%s' is not a positive instruction "
              "count", env);
    return budget;
}

/// Applies BALIGN_TRACE_INSTRS / BALIGN_PROGRAMS to the suite. Unknown
/// names in BALIGN_PROGRAMS are a fatal error — a typo must not silently
/// fall back to running the full suite.
inline std::vector<ProgramSpec>
tunedSuite(std::vector<ProgramSpec> suite)
{
    for (auto &spec : suite)
        spec.traceInstrs = traceInstrs(spec.traceInstrs);
    if (const char *env = std::getenv("BALIGN_PROGRAMS")) {
        const std::string list = env;
        const char *separators = ", \t";
        std::vector<std::string> names;
        std::size_t pos = 0;
        while (pos <= list.size()) {
            const std::size_t sep = list.find_first_of(separators, pos);
            const std::size_t end =
                sep == std::string::npos ? list.size() : sep;
            if (end > pos)
                names.push_back(list.substr(pos, end - pos));
            pos = end + 1;
        }
        for (const auto &name : names) {
            bool known = false;
            for (const auto &spec : suite)
                known = known || spec.name == name;
            if (!known)
                fatal("BALIGN_PROGRAMS: '%s' is not a suite program",
                      name.c_str());
        }
        std::vector<ProgramSpec> filtered;
        for (const auto &spec : suite) {
            for (const auto &name : names) {
                if (spec.name == name) {
                    filtered.push_back(spec);
                    break;
                }
            }
        }
        if (filtered.empty())
            fatal("BALIGN_PROGRAMS='%s' selected no suite programs", env);
        return filtered;
    }
    return suite;
}

/**
 * One-line machine-readable timing record for the perf trajectory:
 *   {"bench":NAME,"threads":N,"programs":M,"wall_s":W,"phases":{...}}
 * wall_s is elapsed time; the phase values are summed across threads.
 */
inline std::string
timingJson(const char *bench, unsigned threads, std::size_t programs,
           double wall_seconds, const PhaseTimes &times)
{
    char head[160];
    std::snprintf(head, sizeof(head),
                  "{\"bench\":\"%s\",\"threads\":%u,\"programs\":%zu,"
                  "\"wall_s\":%.6f,\"phases\":",
                  bench, threads, programs, wall_seconds);
    return std::string(head) + times.json() + "}";
}

/// Elapsed-seconds stopwatch for the wall_s field.
class WallClock
{
  public:
    WallClock() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start_;
        return elapsed.count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/// Group-average tracker preserving the paper's grouping rows.
struct GroupAverages
{
    std::string current;
    std::vector<double> sums;
    std::size_t count = 0;

    /// Returns true when a group boundary was crossed (caller prints the
    /// previous group's average first).
    bool
    enter(const std::string &group, std::size_t columns)
    {
        if (group == current)
            return false;
        const bool had = count > 0;
        current = group;
        if (!had) {
            sums.assign(columns, 0.0);
            count = 0;
        }
        return had;
    }

    void
    add(const std::vector<double> &values)
    {
        if (sums.size() < values.size())
            sums.resize(values.size(), 0.0);
        for (std::size_t i = 0; i < values.size(); ++i)
            sums[i] += values[i];
        ++count;
    }

    std::vector<double>
    averages() const
    {
        std::vector<double> result(sums.size(), 0.0);
        if (count == 0)
            return result;
        for (std::size_t i = 0; i < sums.size(); ++i)
            result[i] = sums[i] / static_cast<double>(count);
        return result;
    }

    void
    reset(std::size_t columns)
    {
        sums.assign(columns, 0.0);
        count = 0;
    }
};

}  // namespace balign::bench

#endif  // BALIGN_BENCH_BENCH_UTIL_H
