/**
 * @file
 * Test helpers that evaluate a walk with both engines that produce an
 * EvalResult: the batched production engine (sim/batch_replay.h) and the
 * naive reference oracle (check/oracle.h).
 */

#ifndef BALIGN_TESTS_REPLAY_UTIL_H
#define BALIGN_TESTS_REPLAY_UTIL_H

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/oracle.h"
#include "sim/batch_replay.h"
#include "sim/cpi.h"
#include "trace/walker.h"

namespace balign {

/// Every EvalResult counter, for whole-record comparisons.
inline std::vector<std::uint64_t>
counters(const EvalResult &r)
{
    return {r.instrs,     r.misfetches, r.mispredicts,
            r.condExec,   r.condTaken,  r.condMispredicts,
            r.uncondExec, r.callExec,   r.returnExec,
            r.returnMispredicts, r.indirectExec,
            r.btbHits,    r.btbLookups};
}

/// The batched engine's lanes for the walk @p walk_options of @p program.
inline std::vector<EvalResult>
batchReplay(const Program &program, const ProgramLayout &layout,
            const WalkOptions &walk_options,
            const std::vector<EvalParams> &lanes)
{
    return runBatchReplay(program, layout,
                          walkBatchTrace(program, walk_options), lanes);
}

/// The oracle's result for the same walk, driven straight by the walker.
inline EvalResult
oracleReplay(const Program &program, const ProgramLayout &layout,
             const WalkOptions &walk_options, const EvalParams &params)
{
    OracleEvaluator oracle(program, layout, params);
    walk(program, walk_options, oracle);
    return oracle.result();
}

/// The oracle's result for @p prepared's recorded trace.
inline EvalResult
oracleReplay(const PreparedProgram &prepared, const ProgramLayout &layout,
             const EvalParams &params)
{
    OracleEvaluator oracle(prepared.program, layout, params);
    prepared.trace->replay(prepared.program, oracle);
    return oracle.result();
}

/**
 * Evaluates one lane with both engines, expects every counter to agree,
 * and returns the batched result, so a test's expected counts pin both
 * implementations to the paper's rules.
 */
inline EvalResult
replayBoth(const Program &program, const ProgramLayout &layout,
           const WalkOptions &walk_options, const EvalParams &params)
{
    const EvalResult batched =
        batchReplay(program, layout, walk_options, {params})[0];
    EXPECT_EQ(counters(batched),
              counters(oracleReplay(program, layout, walk_options, params)))
        << "batched engine vs oracle, " << archName(params.arch);
    return batched;
}

}  // namespace balign

#endif  // BALIGN_TESTS_REPLAY_UTIL_H
