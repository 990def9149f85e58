/**
 * @file
 * Basic block and edge definitions for the control-flow graph IR.
 *
 * Following the paper (§4), blocks end in one of: nothing (pure
 * fall-through), a conditional branch (taken + fall-through successors), an
 * unconditional branch (one taken successor), an indirect jump (several
 * "other" successors with zero alignment weight), or a return. Procedure
 * calls do NOT end a block: control returns to the next instruction, so the
 * continuation cannot be moved independently — calls are recorded as
 * intra-block events instead.
 */

#ifndef BALIGN_CFG_BASIC_BLOCK_H
#define BALIGN_CFG_BASIC_BLOCK_H

#include <vector>

#include "support/types.h"

namespace balign {

/// The control transfer terminating a basic block.
enum class Terminator : std::uint8_t {
    FallThrough,   ///< no branch; execution continues at the successor
    CondBranch,    ///< conditional: taken target + fall-through successor
    UncondBranch,  ///< unconditional direct branch
    IndirectJump,  ///< computed jump (switch tables, virtual dispatch)
    Return,        ///< procedure return
};

/// Printable name of a terminator kind.
const char *terminatorName(Terminator term);

/// How an edge leaves its source block.
enum class EdgeKind : std::uint8_t {
    FallThrough,  ///< the not-taken / sequential successor
    Taken,        ///< the branch-taken successor
    Other,        ///< indirect-jump target; weight ignored by alignment
};

/**
 * A directed control-flow edge with its profile weight (dynamic traversal
 * count). Edges are stored in the owning Procedure, which also threads
 * them into per-block out- and in-edge lists.
 */
struct Edge
{
    BlockId src = kNoBlock;
    BlockId dst = kNoBlock;
    EdgeKind kind = EdgeKind::FallThrough;
    Weight weight = 0;

    /**
     * Static likelihood of traversing this edge out of its source block,
     * used only by the trace walker (ground truth of the modelled program).
     * Profile weights are then *measured* from the walk, as the paper
     * measures them with ATOM.
     */
    double bias = 0.0;
};

/// A call site embedded within a block.
struct CallSite
{
    ProcId callee = kNoProc;
    /// Instruction offset of the call within the block (0-based).
    std::uint32_t offset = 0;
};

/**
 * A basic block: straight-line code of @c numInstrs instructions (including
 * the terminating branch instruction, when the terminator is a branch,
 * indirect jump or return) plus any embedded call sites. Its edges are
 * listed by the owning Procedure (Procedure::outEdges, inEdges). Fields
 * run largest first, so only the tail pads.
 */
struct BasicBlock
{
    std::vector<CallSite> calls;
    BlockId id = kNoBlock;
    std::uint32_t numInstrs = 1;

    /**
     * Deterministic outcome pattern for conditional branches (0 = none,
     * outcomes drawn stochastically from the edge biases). When nonzero,
     * successive executions of this branch cycle through the pattern:
     * execution k is taken iff bit (k mod patternLength) of patternMask is
     * set. This models fixed trip-count loops and periodic data patterns —
     * the behaviour that makes correlated (two-level) predictors beat
     * per-site counters on real programs.
     */
    std::uint32_t patternMask = 0;

    /**
     * Outcome correlation for conditional branches: when set, this
     * branch's outcome equals (or, with correlatedInvert, negates) the
     * most recent outcome of the referenced block in the same procedure —
     * the classic two-level-predictor-friendly behaviour of Pan et al.
     * Falls back to the pattern/stochastic rule until the referenced
     * branch has executed.
     */
    BlockId correlatedWith = kNoBlock;

    Terminator term = Terminator::FallThrough;
    std::uint8_t patternLength = 0;  ///< see patternMask
    bool correlatedInvert = false;   ///< see correlatedWith

    /// True if the terminator occupies an instruction slot.
    bool
    hasBranchInstr() const
    {
        return term != Terminator::FallThrough;
    }
};

}  // namespace balign

#endif  // BALIGN_CFG_BASIC_BLOCK_H
