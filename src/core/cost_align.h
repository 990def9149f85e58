/**
 * @file
 * The Cost alignment algorithm (paper §4).
 *
 * Like the Greedy algorithm, edges are visited in decreasing weight order,
 * but before linking S -> D the active alignment objective is consulted
 * (the paper's Table-1 architecture cost model by default):
 *
 *  - the three possible realizations of a conditional source block are
 *    compared (link this edge, link the sibling edge, or link neither and
 *    let the materializer insert a jump — the loop transformation);
 *  - every other predecessor of D is examined to see whether connecting D
 *    to it instead would save more cycles, in which case the link is left
 *    for that predecessor's edge;
 *  - the link is made only when it is locally profitable.
 */

#ifndef BALIGN_CORE_COST_ALIGN_H
#define BALIGN_CORE_COST_ALIGN_H

#include "core/aligner.h"

namespace balign {

class CostAligner : public Aligner
{
  public:
    /// Aligns under the paper's Table-1 objective for @p model (which must
    /// outlive the aligner).
    explicit CostAligner(const CostModel &model);

    /// Aligns under an arbitrary objective, taking ownership.
    explicit CostAligner(std::unique_ptr<AlignmentObjective> objective);

    std::string name() const override { return "cost"; }
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
};

}  // namespace balign

#endif  // BALIGN_CORE_COST_ALIGN_H
