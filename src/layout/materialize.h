/**
 * @file
 * Materializer: turns a block order into a concrete binary layout,
 * performing the OM-style transformations the paper applies — inverting
 * branch senses, inserting unconditional jumps where a needed fall-through
 * path is not layout-adjacent, and deleting unconditional branches whose
 * targets become adjacent.
 *
 * When given an architecture cost model, the materializer picks the
 * cheapest legal realization per conditional block, which implements the
 * paper's "align neither edge" loop transformation (a hot taken branch is
 * replaced by a correctly predicted not-taken branch plus a jump). Without
 * a cost model it behaves classically (keep sense, jump to the fall-through
 * successor), matching the Pettis–Hansen Greedy baseline.
 */

#ifndef BALIGN_LAYOUT_MATERIALIZE_H
#define BALIGN_LAYOUT_MATERIALIZE_H

#include <vector>

#include "bpred/cost_model.h"
#include "layout/layout_result.h"

namespace balign {

/**
 * Materializes one procedure.
 *
 * @param proc the procedure
 * @param order permutation of all block ids; order[0] must be the entry
 * @param base program-global address of the procedure's first instruction
 * @param costModel architecture cost model; null selects classic
 *        (cost-blind) behavior
 */
ProcLayout materializeProc(const Procedure &proc,
                           std::vector<BlockId> order, Addr base,
                           const CostModel *costModel = nullptr);

/**
 * Materializes a whole program; procedures are placed contiguously in id
 * order (the paper does not reorder procedures).
 *
 * @param orders one block order per procedure
 * @param costModel as for materializeProc
 */
ProgramLayout materializeProgram(const Program &program,
                                 const std::vector<std::vector<BlockId>> &orders,
                                 const CostModel *costModel = nullptr);

/**
 * The identity layout: blocks in id order, exactly reproducing the original
 * binary (requires the CFG invariant that fall-through edges target the
 * next block id; see cfg/validate.h).
 */
ProgramLayout originalLayout(const Program &program);

/// Outcome of traversing a given CFG edge kind out of a conditional block.
struct CondOutcome
{
    bool branchTaken;   ///< the realized conditional branch was taken
    bool jumpExecuted;  ///< the inserted trailing jump also executed
};

/// Maps a CFG edge kind through a realization.
CondOutcome condOutcome(CondRealization realization, EdgeKind kind);

/// Which CFG edge kind the realized conditional branch *targets* (the
/// other kind is reached by falling through, possibly via the inserted
/// jump).
EdgeKind branchTargetKind(CondRealization realization);

/// Destination of @p id's first out-edge of @p kind (Procedure::
/// findOutEdge), kNoBlock when it has none.
inline BlockId
outEdgeDst(const Procedure &proc, BlockId id, EdgeKind kind)
{
    const std::int64_t edge = proc.findOutEdge(id, kind);
    return edge < 0 ? kNoBlock
                    : proc.edge(static_cast<std::uint32_t>(edge)).dst;
}

/**
 * Appends every instruction slot of @p layout to @p instrs in address
 * order: body and call slots first, the realized terminator (if it
 * occupies a slot), then the inserted trailing jump (if any). The result
 * covers exactly BlockLayout::finalInstrs slots per block, with
 * targetBlock resolved through the realization (branchTargetKind for
 * conditional branches, the displaced successor for inserted jumps).
 * This is the ground truth the verifier's relaxed obligations check the
 * emit backend's relaxation against; a caller walking one procedure at
 * a time can reuse one buffer.
 */
void appendProcInstrs(const Procedure &proc, const ProcLayout &layout,
                      std::vector<LayoutInstr> &instrs);

/// A block's realized terminator slot: its class and, for a conditional
/// branch or jump, its destination block (kNoBlock otherwise).
struct TerminatorSlot
{
    InstrClass cls = InstrClass::Body;
    BlockId target = kNoBlock;
};

/**
 * The enumeration behind appendProcInstrs, written through @p sink so
 * that a pass keeping its own per-slot record (relaxation) fills it
 * directly. Branch destinations come from outEdgeDst. Per block in
 * layout order, @p sink receives:
 *  - bodies(wordAddr, count, block) for the block's baseInstrs slots,
 *    at word addresses wordAddr, wordAddr + 1, ...;
 *  - call(slot, callee) for each call slot, the last call at an offset
 *    winning, and terminator(slot, TerminatorSlot) for a realized
 *    terminator slot, which takes precedence over a call at its offset;
 *    slot indexes the sink, whose size() is read before the bodies;
 *  - jump(wordAddr, block, target) for an inserted trailing jump, which
 *    reaches the successor the realization displaced.
 */
template <typename Sink>
void
forEachProcSlot(const Procedure &proc, const ProcLayout &layout, Sink &sink)
{
    for (const BlockId id : layout.order) {
        const BasicBlock &block = proc.block(id);
        const BlockLayout &bl = layout.blocks[id];
        const std::size_t first = sink.size();
        sink.bodies(bl.addr, bl.baseInstrs, id);
        const bool has_term_slot =
            bl.baseInstrs > 0 && block.hasBranchInstr() && !bl.jumpRemoved;
        const std::uint32_t term_slot =
            has_term_slot ? bl.baseInstrs - 1 : bl.baseInstrs;
        for (const CallSite &call : block.calls)
            if (call.offset < bl.baseInstrs && call.offset != term_slot)
                sink.call(first + call.offset, call.callee);
        if (has_term_slot) {
            TerminatorSlot term;
            switch (block.term) {
              case Terminator::CondBranch:
                term = {InstrClass::CondBranch,
                        outEdgeDst(proc, id, branchTargetKind(bl.cond))};
                break;
              case Terminator::UncondBranch:
                term = {InstrClass::Jump,
                        outEdgeDst(proc, id, EdgeKind::Taken)};
                break;
              case Terminator::IndirectJump:
                term.cls = InstrClass::IndirectJump;
                break;
              case Terminator::Return:
                term.cls = InstrClass::Return;
                break;
              case Terminator::FallThrough:
                break;  // no branch instruction, so no terminator slot
            }
            sink.terminator(first + term_slot, term);
        }
        if (bl.jumpInserted) {
            // The fall-through edge for FallThrough blocks and
            // NeitherJumpToFall, the taken edge for NeitherJumpToTaken.
            const bool to_taken =
                block.term == Terminator::CondBranch &&
                bl.cond == CondRealization::NeitherJumpToTaken;
            sink.jump(bl.jumpAddr, id,
                      outEdgeDst(proc, id,
                                 to_taken ? EdgeKind::Taken
                                          : EdgeKind::FallThrough));
        }
    }
}

}  // namespace balign

#endif  // BALIGN_LAYOUT_MATERIALIZE_H
