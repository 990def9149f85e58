/**
 * @file
 * Deterministic stochastic CFG walker — the reproduction's stand-in for
 * ATOM-instrumented execution of real binaries.
 *
 * The walker executes the program model: starting at the main procedure's
 * entry block, it executes blocks, descends into calls (with a bounded call
 * stack), and chooses successors at conditional and indirect terminators
 * pseudo-randomly according to the edges' static `bias` fields. The RNG is
 * seeded, so the identical event stream can be regenerated at will; the
 * paper's methodology of using the same input for profiling and for
 * measurement falls out naturally.
 *
 * Termination: the walk runs until `instrBudget` instructions have executed.
 * When the root procedure returns and budget remains, the program restarts
 * from main (modelling a driver loop / multiple inputs), unless
 * `restartOnExit` is false.
 */

#ifndef BALIGN_TRACE_WALKER_H
#define BALIGN_TRACE_WALKER_H

#include <cstdint>

#include "cfg/program.h"
#include "trace/event.h"

namespace balign {

/// Maximum call depth; calls at the cap are skipped entirely.
inline constexpr unsigned kMaxCallDepth = 64;

struct WalkOptions
{
    /// RNG seed; identical seeds yield identical event streams.
    std::uint64_t seed = 1;

    /// Stop once this many instructions have executed.
    std::uint64_t instrBudget = 1'000'000;

    /// Restart from main when the root procedure returns.
    bool restartOnExit = true;
};

/// Summary of one walk.
struct WalkResult
{
    std::uint64_t instrs = 0;    ///< instructions executed
    std::uint64_t blocks = 0;    ///< block activations
    std::uint64_t calls = 0;     ///< calls taken (not skipped)
    std::uint64_t skippedCalls = 0;  ///< calls skipped at kMaxCallDepth
    std::uint64_t runs = 0;      ///< completed root activations
    std::uint64_t events = 0;    ///< events emitted to the sink

    bool operator==(const WalkResult &other) const = default;
};

/**
 * Walks @p program, emitting events to @p sink.
 *
 * Requirements: the program must validate (cfg/validate.h); call sites
 * within a block must be sorted by offset.
 */
WalkResult walk(const Program &program, const WalkOptions &options,
                EventSink &sink);

}  // namespace balign

#endif  // BALIGN_TRACE_WALKER_H
