/**
 * @file
 * Batched multi-architecture replay engine.
 *
 * The experiment matrix used to replay the recorded trace once per
 * (architecture, aligner, objective) cell: one virtual EventSink call per
 * event per cell, plus a full BranchEventAdapter state machine and
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
 *  2. runBatchReplay() evaluates N architecture lanes against ONE layout
 *     in one pass. Per-block layout facts are flattened into
 *     structure-of-arrays tables; the architecture-independent counters
 *     (instruction counts, executed-branch mix, BTB lookup count, and the
 *     complete penalty totals of the three static architectures) are
 *     computed in O(blocks) from activation and edge-traversal counts;
 *     PHT-family lanes scan a dense conditional-branch stream with
 *     branchless saturating-counter updates (support/saturating_counter.h);
 *     only BTB lanes walk the full branch stream, because a BTB observes
 *     every break type in order.
 *
 * Contract: each lane's EvalResult is byte-identical to what the naive
 * OracleEvaluator (check/oracle.h) — and the streaming ArchEvaluator —
 * accumulate from RecordedTrace::replay for the same (layout,
 * EvalParams). This engine is the only evaluator behind runConfigs; the
 * `ctest -L replay` suite pins every runConfigs cell to an oracle replay
 * across the whole benchmark suite and the fuzz corpus, and
 * check/differ.cc re-checks one lane against the oracle on every
 * differential run so the fuzzer shrinks batched-engine divergences like
 * any other finding.
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

    // --- canonical full branch-op stream (BTB lanes) --------------------
    std::vector<std::uint8_t> ops;
    std::vector<std::uint32_t> opA, opB, opC;

    // --- dense sub-streams ----------------------------------------------
    /// Conditional executions only (PHT-family lanes).
    std::vector<std::uint32_t> condSrc;      ///< src global block
    std::vector<std::uint8_t> condViaTaken;  ///< traversed the Taken edge
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

/**
 * Replays the canonical trace against @p layout once, evaluating every
 * lane simultaneously. Returns one EvalResult per entry of @p lanes,
 * byte-identical to an ArchEvaluator replay with the same parameters.
 *
 * @param program the CFG (profile weights used only for LIKELY bits)
 * @param layout a layout materialized for @p program
 * @param trace the canonical trace built from the same program
 * @param lanes architecture parameters, one per requested evaluation
 */
std::vector<EvalResult> runBatchReplay(const Program &program,
                                       const ProgramLayout &layout,
                                       const BatchTrace &trace,
                                       const std::vector<EvalParams> &lanes);

/**
 * Instructions the recorded run executes under @p layout — exactly what
 * an ArchEvaluator accumulates via onInstrs — computed in O(blocks) from
 * the activation histogram, with no trace sweep. Equals the recorded
 * WalkResult's count whenever the layout neither inserts nor deletes
 * jumps on executed paths (e.g. most identity layouts).
 */
std::uint64_t batchLayoutInstrs(const BatchTrace &trace,
                                const ProgramLayout &layout);

}  // namespace balign

#endif  // BALIGN_SIM_BATCH_REPLAY_H
