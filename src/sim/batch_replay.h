/**
 * @file
 * Batched multi-architecture replay engine: the one production
 * implementation of the paper's predictors (direct-mapped PHT, gshare,
 * local two-level, BTB) and of the return stack's use in penalty
 * accounting.
 *
 * Replaying the recorded trace once per (architecture, aligner,
 * objective) cell would cost one virtual EventSink call per event per
 * cell, plus a full BranchEventAdapter state machine and
 * Program/ProgramLayout pointer chasing inside every replay. This engine
 * restructures that work so one sweep drives every predictor:
 *
 *  1. BatchTrace — built once per prepared program — canonicalizes the
 *     RecordedTrace into flat branch-op arrays. Block activations
 *     collapse into per-block counts, call-site indices and the
 *     pending-return state machine are resolved once, and every operand
 *     is a dense program-global block index. What remains per layout is
 *     pure integer dispatch: no virtual calls, no CFG lookups.
 *
 *  2. runBatchReplay() evaluates every lane of every layout it is given
 *     in ONE pass over the op stream. Per-block layout facts are
 *     flattened into one row per block, one table per layout; the
 *     architecture-independent counters (instruction counts,
 *     executed-branch mix, BTB lookup count, and the complete penalty
 *     totals of the three static architectures) are computed in
 *     O(blocks) from activation and edge-traversal counts. The pass then
 *     reads each op once and steps every dynamic lane against it: BTB
 *     lanes on every op (a BTB observes every break type in order),
 *     PHT-family lanes on Cond ops only, with branchless
 *     saturating-counter updates (support/saturating_counter.h). Site and
 *     direction come from the layout's tables, so the lanes are K
 *     independent dependence chains over one shared stream.
 *
 *  3. runConfigs (sim/cpi.h) splits a program's lanes into as many lane
 *     blocks as its pool has threads (at most one per layout with
 *     dynamic lanes) and runs one pass per block. Lanes never interact,
 *     so any partition gives byte-identical counters.
 *
 * Contract: each lane's EvalResult is byte-identical to what the naive
 * OracleEvaluator (check/oracle.h) accumulates from RecordedTrace::replay
 * for the same (layout, EvalParams). Every EvalResult outside the oracle
 * comes from this engine. The `ctest -L replay` suite pins every
 * runConfigs cell to an oracle replay across the whole benchmark suite
 * and the fuzz corpus; hand-built programs in the unit tests pin both
 * engines to hand-computed counts; and check/differ.cc re-checks one
 * lane against the oracle on every differential run so the fuzzer
 * shrinks batched-engine divergences like any other finding.
 *
 * A hand-built program is replayed with
 * `BatchTrace(program, recordTrace(program, walk))`. The engine panics on
 * predictor geometry it cannot simulate (a table or BTB set count that is
 * not a power of two, a history length of 0 bits or more than 63 for
 * gshare and 24 for the local predictor).
 */

#ifndef BALIGN_SIM_BATCH_REPLAY_H
#define BALIGN_SIM_BATCH_REPLAY_H

#include <cstdint>
#include <vector>

#include "bpred/evaluator.h"
#include "cfg/program.h"
#include "layout/layout_result.h"
#include "trace/recorder.h"

namespace balign {

/**
 * The canonical, layout-independent form of a recorded walk: flat
 * branch-op arrays plus the activation / edge-traversal histograms the
 * O(blocks) per-layout accounting needs. Blocks are identified by a
 * program-global index (proc-major, block-id-minor); a BatchTrace holds
 * no pointers and stays valid across Program moves.
 */
struct BatchTrace
{
    /// Branch-op kinds of the canonical stream (operands in opA/opB/opC).
    enum class Op : std::uint8_t {
        Cond,      ///< a=src block, b=traversed-edge dst, c=1 if Taken edge
        Uncond,    ///< a=src block, b=dst; no event if the jump was removed
        FallJump,  ///< a=src block, b=dst; event only if a jump was inserted
        Indirect,  ///< a=src block, b=dst
        Call,      ///< a=caller block, b=callee proc, c=call-site offset
        Ret,       ///< a=returning block, b=resume block, c=site offset
        RetExit,   ///< a=returning block; program exit (RAS pops, no event)
    };

    /// Builds the canonical form by replaying @p trace once.
    BatchTrace(const Program &program, const RecordedTrace &trace);

    // --- flattened program indexing -------------------------------------
    std::vector<std::uint32_t> blockBase;  ///< per proc: first global index
    std::uint32_t totalBlocks = 0;

    // --- per-global-block program facts ---------------------------------
    std::vector<std::uint8_t> term;        ///< Terminator
    std::vector<std::uint32_t> takenDst;   ///< global dst of the Taken edge
    std::vector<std::uint32_t> fallDst;    ///< global dst of the Fall edge

    // --- canonical full branch-op stream (every dynamic lane) -----------
    std::vector<std::uint8_t> ops;
    std::vector<std::uint32_t> opA, opB, opC;

    // --- dense sub-stream -----------------------------------------------
    /// Call/return executions only (return-stack accounting).
    /// op: 0=push (Call), 1=pop+compare (Ret), 2=pop only (RetExit).
    std::vector<std::uint8_t> rasOps;
    std::vector<std::uint32_t> rasBlock;   ///< Call: caller; Ret: resume
    std::vector<std::uint32_t> rasOffset;  ///< call-site offset

    // --- layout-independent aggregates ----------------------------------
    std::vector<std::uint64_t> activations;  ///< block entries
    std::vector<std::uint64_t> takenCount;   ///< Taken-edge traversals
    std::vector<std::uint64_t> fallCount;    ///< FallThrough traversals
    std::uint64_t condExec = 0;
    std::uint64_t callExec = 0;
    std::uint64_t returnExec = 0;  ///< includes exit returns
    std::uint64_t exitReturns = 0;
    std::uint64_t indirectExec = 0;

    /// Approximate heap footprint of the buffers, in bytes.
    std::size_t sizeBytes() const;
};

/// One layout and the architecture lanes to evaluate against it.
struct LayoutLanes
{
    const ProgramLayout *layout = nullptr;
    std::vector<EvalParams> lanes;
};

/**
 * Replays the canonical trace once for every lane of every layout in
 * @p layouts. Returns, per entry of @p layouts, one EvalResult per lane,
 * byte-identical to an OracleEvaluator replay with the same parameters.
 * How lanes are grouped into calls never changes a counter.
 *
 * @param program the CFG (profile weights used only for LIKELY bits)
 * @param layouts layouts materialized for @p program, with their lanes
 * @param trace the canonical trace built from the same program
 */
std::vector<std::vector<EvalResult>>
runBatchReplay(const Program &program,
               const std::vector<LayoutLanes> &layouts,
               const BatchTrace &trace);

/// Single-layout form: the lanes of @p layout, one EvalResult each.
std::vector<EvalResult> runBatchReplay(const Program &program,
                                       const ProgramLayout &layout,
                                       const BatchTrace &trace,
                                       const std::vector<EvalParams> &lanes);

/**
 * Instructions the recorded run executes under @p layout — exactly the
 * EvalResult::instrs a replay accumulates — computed in O(blocks) from
 * the activation histogram, with no trace sweep. Equals the recorded
 * WalkResult's count whenever the layout neither inserts nor deletes
 * jumps on executed paths (e.g. most identity layouts).
 */
std::uint64_t batchLayoutInstrs(const BatchTrace &trace,
                                const ProgramLayout &layout);

}  // namespace balign

#endif  // BALIGN_SIM_BATCH_REPLAY_H
