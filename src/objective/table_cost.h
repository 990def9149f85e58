/**
 * @file
 * The paper's Table-1 objective behind the AlignmentObjective interface.
 *
 * Edge-decision prices are the architecture cost model's realization costs
 * (the body formerly inlined into core/aligner.cc's blockAlignCost, moved
 * here unchanged so the refactor is byte-for-byte behaviour-preserving);
 * layout prices delegate to bpred/static_cost.h, the independent
 * recomputation from final addresses that lint's cost.monotone rule and
 * the fallback splice always used.
 */

#ifndef BALIGN_OBJECTIVE_TABLE_COST_H
#define BALIGN_OBJECTIVE_TABLE_COST_H

#include "bpred/cost_model.h"
#include "objective/objective.h"

namespace balign {

class TableCostObjective : public AlignmentObjective
{
  public:
    explicit TableCostObjective(const CostModel &model) : model_(model) {}

    std::string name() const override { return "table-cost"; }
    ObjectiveKind kind() const override { return ObjectiveKind::TableCost; }
    bool archDependent() const override { return true; }
    const CostModel *materializationModel() const override
    {
        return &model_;
    }

    double blockCost(const Procedure &proc, BlockId id, BlockId next,
                     const DirOracle &oracle = DirOracle(),
                     BlockId prev = kNoBlock) const override;
    double blockCostFloor(const Procedure &proc,
                          BlockId id) const override;
    double layoutCost(const Procedure &proc,
                      const ProcLayout &layout) const override;
    using AlignmentObjective::layoutCost;

    const CostModel &model() const { return model_; }

  private:
    const CostModel &model_;
};

}  // namespace balign

#endif  // BALIGN_OBJECTIVE_TABLE_COST_H
