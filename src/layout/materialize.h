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

/**
 * Enumerates every instruction slot of @p layout in address order: body
 * and call slots first, the realized terminator (if it occupies a slot),
 * then the inserted trailing jump (if any). The result covers exactly
 * BlockLayout::finalInstrs slots per block, with targetBlock resolved
 * through the realization (branchTargetKind for conditional branches,
 * the displaced successor for inserted jumps). This is the ground truth
 * the emit backend's relaxation pass sizes and the verifier's relaxed
 * obligations check against.
 */
std::vector<LayoutInstr> enumerateProcInstrs(const Procedure &proc,
                                             const ProcLayout &layout);

/// enumerateProcInstrs, appended to @p instrs so that a caller walking
/// one procedure at a time can reuse one buffer.
void appendProcInstrs(const Procedure &proc, const ProcLayout &layout,
                      std::vector<LayoutInstr> &instrs);

}  // namespace balign

#endif  // BALIGN_LAYOUT_MATERIALIZE_H
