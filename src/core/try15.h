/**
 * @file
 * The TryN ("Try15") alignment algorithm (paper §4).
 *
 * Exhaustive search balanced against time: the N most frequently executed
 * alignable edges are taken as a group and every consistent combination of
 * "realize this edge as a fall-through link" decisions is evaluated under
 * the active alignment objective (the paper's Table-1 architecture cost
 * model by default); the minimum-cost combination is committed, then the
 * next N edges are processed, and so on. Per-node possibilities match the
 * paper: a single-exit block's edge may become a fall-through or stay a
 * taken jump; a conditional block may align either out-edge or neither
 * (branch plus inserted jump — the loop transformation).
 *
 * Edges executed fewer than twice are ignored (paper §4). A final greedy
 * tidy pass links the remaining cold edges when doing so cannot increase
 * the modelled cost.
 *
 * The search backtracks over an undoable ChainSet with an incrementally
 * maintained cost sum, so each search node costs O(1) beyond the link
 * itself, and it skips every subtree whose lower bound (built from
 * AlignmentObjective::blockCostFloor) already exceeds the best subset
 * found, which returns the exhaustive search's choice (DESIGN.md §9.5).
 */

#ifndef BALIGN_CORE_TRY15_H
#define BALIGN_CORE_TRY15_H

#include "core/aligner.h"

namespace balign {

class Try15Aligner : public Aligner
{
  public:
    /// Aligns under the paper's Table-1 objective for @p model (which must
    /// outlive the aligner).
    Try15Aligner(const CostModel &model, const AlignOptions &options);

    /// Aligns under an arbitrary objective, taking ownership.
    Try15Aligner(std::unique_ptr<AlignmentObjective> objective,
                 const AlignOptions &options);

    std::string
    name() const override
    {
        return "try" + std::to_string(options_.groupSize);
    }

    using Aligner::alignProc;
    ChainSet alignProc(const Procedure &proc, const DirOracle &oracle,
                       const std::vector<std::uint32_t> &by_weight)
        const override;
    bool
    wantsCostModelMaterialization() const override
    {
        return objective_->materializationModel() != nullptr;
    }
    bool objectiveGuided() const override { return true; }

    const AlignmentObjective &objective() const { return *objective_; }

  private:
    std::unique_ptr<AlignmentObjective> objective_;
    AlignOptions options_;
};

}  // namespace balign

#endif  // BALIGN_CORE_TRY15_H
