/**
 * @file
 * Architectural branch cost model (paper Table 1 and §6).
 *
 * Costs are cycles per branch execution and INCLUDE the branch instruction
 * itself, so that inserting or deleting unconditional jumps is priced
 * correctly:
 *
 *   unconditional branch            2  (instruction + misfetch)
 *   correctly predicted fall-through 1  (instruction)
 *   correctly predicted taken        2  (instruction + misfetch)
 *   mispredicted                     5  (instruction + mispredict)
 *
 * For the dynamic architectures the model uses the paper's §6 assumptions:
 * PHT conditionals mispredict 10% of the time; BTBs additionally miss 10%
 * of the time, so taken branches pay the misfetch penalty only on the 10%
 * of executions that miss.
 */

#ifndef BALIGN_BPRED_COST_MODEL_H
#define BALIGN_BPRED_COST_MODEL_H

#include "bpred/arch.h"
#include "layout/realization.h"
#include "support/types.h"

namespace balign {

class CostModel
{
  public:
    struct Params
    {
        Penalties penalties{};
        /// Assumed conditional mispredict rate for PHT/BTB architectures.
        double dynMispredictRate = 0.10;
        /// Assumed BTB miss rate (taken branches pay misfetch on a miss).
        double btbMissRate = 0.10;
    };

    explicit CostModel(Arch arch) : CostModel(arch, Params{}) {}
    CostModel(Arch arch, const Params &params);

    Arch arch() const { return arch_; }
    const Params &params() const { return params_; }

    /// Expected cost, in cycles, of one unconditional branch execution.
    double uncondCost() const;

    /**
     * Expected total cost of a conditional branch site whose realized-taken
     * outcome executes @p w_taken times and whose realized fall-through
     * outcome executes @p w_fall times. @p taken_dir is the (estimated)
     * direction of the branch target, used by BT/FNT.
     *
     * For the LIKELY architecture the likely bit is assumed set to the
     * majority realized outcome (profile-based, as in the paper).
     */
    double condCost(double w_taken, double w_fall, DirHint taken_dir) const;

    /**
     * Expected total branch cost of a conditional block under a given
     * realization.
     *
     * @param w_taken_edge weight of the block's CFG Taken edge
     * @param w_fall_edge weight of the block's CFG FallThrough edge
     * @param realization how the layout realizes the block
     * @param dir_taken direction hint for the CFG taken target
     * @param dir_fall direction hint for the CFG fall-through target
     */
    double condRealizationCost(Weight w_taken_edge, Weight w_fall_edge,
                               CondRealization realization, DirHint dir_taken,
                               DirHint dir_fall) const;

    /**
     * The cheapest realization for a conditional block when neither or
     * either successor could be made adjacent; used by the materializer to
     * pick between NeitherJumpToFall and NeitherJumpToTaken.
     */
    CondRealization bestNeitherRealization(Weight w_taken_edge,
                                           Weight w_fall_edge,
                                           DirHint dir_taken,
                                           DirHint dir_fall) const;

    /// Cost of a single-exit block (unconditional or fall-through
    /// terminator) whose successor IS layout-adjacent: the jump is deleted
    /// or never needed.
    double singleExitAdjacentCost() const { return 0.0; }

    /// Cost of a single-exit block whose successor is NOT adjacent: an
    /// unconditional jump executes @p weight times.
    double
    singleExitJumpCost(Weight weight) const
    {
        return static_cast<double>(weight) * uncondCost();
    }

  private:
    /// Per-execution cost of a realized-taken conditional under a static
    /// prediction of @p predicted_taken.
    double staticCondCost(bool realized_taken, bool predicted_taken) const;

    Arch arch_;
    Params params_;
};

/**
 * The architecture that names @p arch's Table-1 cost class: CostModel
 * prices PHT-direct, PHT-correlated and PHT-local alike, and BTB-64x2 and
 * BTB-256x4 alike, since the paper's §6 assumptions are per class. So a
 * layout aligned for one member of a class is the layout of every member.
 * Each static architecture is a class of its own; BT/FNT also orders
 * chains by its own precedence (§6.1).
 */
Arch costClass(Arch arch);

}  // namespace balign

#endif  // BALIGN_BPRED_COST_MODEL_H
