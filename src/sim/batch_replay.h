/**
 * @file
 * Batched multi-architecture replay engine: the one production
 * implementation of the paper's predictors (direct-mapped PHT, gshare,
 * local two-level, BTB) and of the return stack's use in penalty
 * accounting.
 *
 * Replaying the profiling walk once per (architecture, aligner,
 * objective) cell would cost one virtual EventSink call per event per
 * cell, plus a full BranchEventAdapter state machine and
 * Program/ProgramLayout pointer chasing inside every replay. This engine
 * restructures that work so one sweep drives every predictor:
 *
 *  1. BatchTrace — built once per prepared program by walkBatchTrace,
 *     during the profiling walk itself — canonicalizes the walk into one
 *     op stream of one 32-bit word per op: a 3-bit tag and one 29-bit
 *     index. No event buffer is kept in between. Block activations
 *     collapse into per-block counts, the pending-return state machine
 *     is resolved once, and every index is dense: a program-global
 *     block, a call site of the trace's flat call-site table, an
 *     indirect-jump edge, or a row of the small table of distinct
 *     (returning block, call site) pairs. Both streams are allocated
 *     once, at their exact size. What remains per layout is pure integer
 *     dispatch: no virtual calls, no CFG lookups.
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
 *     independent dependence chains over one shared stream. A BTB lookup
 *     also carries a site id, a dense index that stands for one branch
 *     address of the layout (block g's branch is g, its inserted jump
 *     totalBlocks + g, each distinct call site one id after those, read
 *     from one array indexed by call site), so a per-lane byte map finds
 *     the site's way in O(1) with no tag compare.
 *
 *  3. runConfigs (sim/cpi.h) splits a program's lanes into as many lane
 *     blocks as its pool has threads (at most one per layout with
 *     dynamic lanes) and runs one pass per block. Lanes never interact,
 *     so any partition gives byte-identical counters.
 *
 * Contract: each lane's EvalResult is byte-identical to what the naive
 * OracleEvaluator (check/oracle.h) accumulates from the same walk for the
 * same (layout, EvalParams). Every EvalResult outside the oracle
 * comes from this engine. The `ctest -L replay` suite pins every
 * runConfigs cell to an oracle replay across the whole benchmark suite
 * and the fuzz corpus; hand-built programs in the unit tests pin both
 * engines to hand-computed counts; and check/differ.cc re-checks one
 * lane against the oracle on every differential run so the fuzzer
 * shrinks batched-engine divergences like any other finding.
 *
 * walkBatchTrace is the only way to build a BatchTrace: prepareProgram
 * calls it for its one profiling walk, and a hand-built program is
 * replayed with `runBatchReplay(program, layout, walkBatchTrace(program,
 * walk), lanes)`. The engine panics on
 * predictor geometry it cannot simulate (a table or BTB set count that is
 * not a power of two, more than 255 BTB ways, a history length of 0 bits
 * or more than 63 for gshare and 24 for the local predictor). A program
 * with more blocks, call sites or indirect-jump edges than kTraceIndexCap,
 * or a walk with more distinct returns, is a fatal() error.
 */

#ifndef BALIGN_SIM_BATCH_REPLAY_H
#define BALIGN_SIM_BATCH_REPLAY_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bpred/evaluator.h"
#include "cfg/cfg_stats.h"
#include "cfg/program.h"
#include "layout/layout_result.h"
#include "trace/walker.h"

namespace balign {

/// Row counts a BatchTrace can index: an op word keeps a block,
/// call-site, indirect-edge or return-row index in the 29 bits above its
/// tag.
inline constexpr std::uint32_t kTraceIndexCap = 1u << 29;

/**
 * fatal() unless @p count, the number of @p what (blocks, call sites,
 * indirect edges, return rows) of a program or its walk, fits
 * kTraceIndexCap. walkBatchTrace checks all four counts, so a program too
 * large for the op stream ends in an error naming the cap instead of in
 * silently truncated indices.
 */
void checkTraceIndexCount(std::size_t count, const char *what);

/**
 * The canonical, layout-independent form of a recorded walk: one op
 * stream of 32-bit words plus the activation / edge-traversal histograms the
 * O(blocks) per-layout accounting needs. Blocks are identified by a
 * program-global index (proc-major, block-id-minor); a BatchTrace holds
 * no pointers and stays valid across Program moves. Every stream is
 * allocated once at its exact size, so sizeBytes() is what it holds.
 */
struct BatchTrace
{
    /// Branch-op kinds of the canonical stream, in the meaning decode()
    /// gives them (a, b, c). Op words store less: see Tag.
    enum class Op : std::uint8_t {
        Cond,      ///< a=src block, b=traversed-edge dst, c=1 if Taken edge
        Uncond,    ///< a=src block, b=dst; no event if the jump was removed
        FallJump,  ///< a=src block, b=dst; event only if a jump was inserted
        Indirect,  ///< a=src block, b=dst
        Call,      ///< a=caller block, b=callee proc, c=call-site offset
        Ret,       ///< a=returning block, b=resume block, c=site offset
        RetExit,   ///< a=returning block; program exit (RAS pops, no event)
    };

    /**
     * Tag of an op word, its low kTagBits; the 29 bits above it are one
     * index, named per tag below. A Cond op is one of two tags by the
     * edge it traversed, so the tag alone tells a lane the direction.
     * The destinations decode() reports for Cond, Uncond and FallJump
     * are the block's takenDst/fallDst. A replay never needs them per
     * op: such a break has one target per layout, so a BTB lane compares
     * none, and BT/FNT reads the conditional's target once per block.
     */
    enum Tag : std::uint32_t {
        kCondFall,   ///< Cond over the FallThrough edge; index: the block
        kCondTaken,  ///< Cond over the Taken edge; index: the block
        kUncond,     ///< index: the block
        kFallJump,   ///< index: the block
        kIndirect,   ///< index: the edge's row of indirectEdges
        kCall,       ///< index: the call site (callSites)
        kRet,        ///< index: the row of returnRows
        kRetExit,    ///< index: the returning block
    };
    static constexpr unsigned kTagBits = 3;
    static constexpr std::uint32_t kTagMask = (1u << kTagBits) - 1;

    /// One call site of the program: the calling block (global), the
    /// call's offset in it and the callee procedure.
    struct CallSiteRow
    {
        std::uint32_t block;
        std::uint32_t offset;
        std::uint32_t callee;
    };

    // --- flattened program indexing -------------------------------------
    std::vector<std::uint32_t> blockBase;  ///< per proc: first global index
    std::uint32_t totalBlocks = 0;

    // --- per-global-block program facts ---------------------------------
    std::vector<std::uint8_t> term;        ///< Terminator
    /// Global dst of the block's Taken edge, or none. Only CondBranch
    /// and UncondBranch blocks have one (cfg.terminator-arity).
    std::vector<std::uint32_t> takenDst;
    /// Global dst of the block's FallThrough edge, or none. Only
    /// CondBranch and FallThrough blocks have one.
    std::vector<std::uint32_t> fallDst;
    /// Every call site of the program, in proc, block and offset order;
    /// Call ops, return rows and return-stack entries index it.
    std::vector<CallSiteRow> callSites;

    /// One out-edge of an IndirectJump block, global source and
    /// destination.
    struct IndirectRow
    {
        std::uint32_t src;
        std::uint32_t dst;
    };
    /// Every out-edge of every IndirectJump block, indexed like
    /// indirectCount; Indirect ops index it.
    std::vector<IndirectRow> indirectEdges;

    /// One distinct return of the walk: the returning block and the call
    /// site (callSites) it returns to.
    struct ReturnRow
    {
        std::uint32_t block;
        std::uint32_t site;
    };
    /// Every distinct (returning block, call site) pair of the walk, in
    /// first-return order; Ret ops index it. A return leaves a Return
    /// block of the callee of the site it resumes, so the table is
    /// bounded by the program, not by the walk's length.
    std::vector<ReturnRow> returnRows;

    // --- canonical full branch-op stream (every dynamic lane) -----------
    /// One word per op: its Tag plus, above it, the Tag's index.
    std::vector<std::uint32_t> ops;

    // --- dense sub-stream -----------------------------------------------
    /// Call/return executions only (return-stack accounting), one word
    /// each: the low 2 bits are 0=push (Call), 1=pop+compare (Ret),
    /// 2=pop only (RetExit); the bits above are the call-site index
    /// (0 for a pop only).
    std::vector<std::uint32_t> rasOps;

    // --- layout-independent aggregates ----------------------------------
    std::vector<std::uint64_t> activations;  ///< block entries
    std::vector<std::uint64_t> takenCount;   ///< Taken-edge traversals
    std::vector<std::uint64_t> fallCount;    ///< FallThrough traversals
    /// Traversals of each out-edge of each IndirectJump block, in global
    /// block order and then the block's outEdges order.
    std::vector<std::uint64_t> indirectCount;
    std::uint64_t condExec = 0;
    std::uint64_t callExec = 0;
    std::uint64_t returnExec = 0;  ///< includes exit returns
    std::uint64_t exitReturns = 0;
    std::uint64_t indirectExec = 0;

    /// One op in its decoded meaning: the kind and the operands Op names.
    struct DecodedOp
    {
        Op op;
        std::uint32_t a = 0;
        std::uint32_t b = 0;
        std::uint32_t c = 0;
    };

    /// One return-stack entry in its decoded meaning: @c op as in
    /// rasOps, @c block the caller (push) or resume block (pop+compare),
    /// @c offset the call-site offset; both 0 for a pop only.
    struct DecodedRas
    {
        std::uint8_t op = 0;
        std::uint32_t block = 0;
        std::uint32_t offset = 0;
    };

    /// Op @p i of the stream (i < ops.size()), decoded.
    DecodedOp decode(std::size_t i) const;

    /// Entry @p i of the return-stack sub-stream (i < rasOps.size()).
    DecodedRas decodeRas(std::size_t i) const;

    /// Flips the traversed edge of op @p i, which must be a Cond: a
    /// corruption for tests that prove the differ catches a bad trace.
    void flipCondEdge(std::size_t i);

    /// Heap bytes the trace holds: every stream and table.
    std::size_t sizeBytes() const;

  private:
    friend BatchTrace walkBatchTrace(const Program &program,
                                     const WalkOptions &options,
                                     WalkResult *result);
    BatchTrace() = default;
};

/**
 * Walks @p program once with @p options and returns the walk in
 * canonical form, built as the walk runs: walkInto (trace/walker.h)
 * drives the builder with every event call statically dispatched.
 * @p result, when given, receives the walk's summary.
 */
BatchTrace walkBatchTrace(const Program &program, const WalkOptions &options,
                          WalkResult *result = nullptr);

/**
 * The one profile derivation: adds the traversal counts of @p trace, a
 * walk of @p program, onto its edge weights, tags the profile Measured
 * and returns the walk's ProgramStats (its dynamic counters, plus the
 * static fields of fillStaticStats over the resulting weights).
 * Conditional, unconditional and fall-through edges take the Taken and
 * FallThrough histograms; indirect-jump edges take indirectCount.
 * Weights are added, not assigned, so profiles of several walks sum:
 * clearWeights() first for a fresh profile.
 */
ProgramStats applyTraceProfile(Program &program, const BatchTrace &trace);

/**
 * Profiles @p program with one walk: walkBatchTrace() then
 * applyTraceProfile(). Adds onto the existing weights like
 * applyTraceProfile(); clearWeights() first for a fresh profile.
 */
ProgramStats profileProgram(Program &program, const WalkOptions &options);

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
