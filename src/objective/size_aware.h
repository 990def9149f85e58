/**
 * @file
 * Size-aware objective: Table-1 branch cost plus encoded-size pressure.
 *
 * The paper prices only dynamic branch cycles; on a machine with
 * variable-length encodings (emit/encoding.h) a layout decision also
 * changes static code size — an adjacent successor needs no jump bytes,
 * and a branch whose target lands within the short-displacement range
 * encodes smaller, packing denser icache lines (the intuition behind
 * ExtTSP's distance decay, arXiv:1809.04676 §2).
 *
 * SizeAwareObjective wraps TableCostObjective and adds the encoded
 * bytes, one cycle per byte, to both prices:
 *
 *  - blockCost adds the bytes the decision commits under the Variable
 *    model, branches optimistically priced at their short form (the
 *    relaxation pass, not the chain search, settles final forms);
 *  - layoutCost adds the procedure's relaxed byte size — the true
 *    fixpoint of emit/relax.h — which stays purely intra-procedural
 *    (relaxation never crosses procedures), preserving the
 *    rebase-invariance the greedy-fallback splice needs.
 *
 * Cycle terms (profile-weighted, typically 1e3..1e8) dominate, so bytes
 * break ties toward denser code.
 */

#ifndef BALIGN_OBJECTIVE_SIZE_AWARE_H
#define BALIGN_OBJECTIVE_SIZE_AWARE_H

#include "objective/table_cost.h"

namespace balign {

class SizeAwareObjective : public AlignmentObjective
{
  public:
    explicit SizeAwareObjective(const CostModel &model) : table_(model) {}

    std::string name() const override { return "size-aware"; }
    ObjectiveKind kind() const override { return ObjectiveKind::SizeAware; }
    bool archDependent() const override { return true; }
    const CostModel *materializationModel() const override
    {
        return table_.materializationModel();
    }

    double blockCost(const Procedure &proc, BlockId id, BlockId next,
                     const DirOracle &oracle = DirOracle(),
                     BlockId prev = kNoBlock) const override;
    double blockCostFloor(const Procedure &proc,
                          BlockId id) const override;
    double layoutCost(const Procedure &proc,
                      const ProcLayout &layout) const override;
    using AlignmentObjective::layoutCost;

  private:
    TableCostObjective table_;
};

}  // namespace balign

#endif  // BALIGN_OBJECTIVE_SIZE_AWARE_H
