#include "core/aligner.h"

#include "core/cost_align.h"
#include "core/greedy.h"
#include "core/try15.h"
#include "objective/table_cost.h"
#include "support/log.h"

namespace balign {

const char *
alignerKindName(AlignerKind kind)
{
    switch (kind) {
      case AlignerKind::Original: return "original";
      case AlignerKind::Greedy: return "greedy";
      case AlignerKind::Cost: return "cost";
      case AlignerKind::Try15: return "try15";
      case AlignerKind::ExtTsp: return "exttsp";
    }
    return "?";
}

std::optional<AlignerKind>
parseAlignerKind(std::string_view name)
{
    if (name == "greedy")
        return AlignerKind::Greedy;
    if (name == "cost")
        return AlignerKind::Cost;
    if (name == "try15" || name == "tryn")
        return AlignerKind::Try15;
    if (name == "exttsp" || name == "ext-tsp")
        return AlignerKind::ExtTsp;
    if (name == "original")
        return AlignerKind::Original;
    return std::nullopt;
}

const std::vector<AlignerKind> &
allAlignerKinds()
{
    static const std::vector<AlignerKind> kinds = {
        AlignerKind::Original,
        AlignerKind::Greedy,
        AlignerKind::Cost,
        AlignerKind::Try15,
    };
    return kinds;
}

double
blockAlignCost(const Procedure &proc, const CostModel &model, BlockId id,
               BlockId next, const DirOracle &oracle, BlockId prev)
{
    return TableCostObjective(model).blockCost(proc, id, next, oracle, prev);
}

std::unique_ptr<Aligner>
makeAligner(AlignerKind kind, const CostModel *model,
            const AlignOptions &options)
{
    switch (kind) {
      case AlignerKind::Original:
        return nullptr;  // handled by the driver (identity layout)
      case AlignerKind::Greedy:
      case AlignerKind::ExtTsp:
        // ExtTsp lays out Greedy's chains: a merge loop ranked by ExtTSP
        // gain tied them (DESIGN.md §9.2).
        return std::make_unique<GreedyAligner>();
      case AlignerKind::Cost:
        if (objectiveArchDependent(options.objective) && model == nullptr)
            panic("makeAligner: Cost aligner needs a cost model");
        return std::make_unique<CostAligner>(
            makeObjective(options.objective, model));
      case AlignerKind::Try15:
        if (objectiveArchDependent(options.objective) && model == nullptr)
            panic("makeAligner: Try15 aligner needs a cost model");
        return std::make_unique<Try15Aligner>(
            makeObjective(options.objective, model), options);
    }
    panic("makeAligner: bad kind");
}

}  // namespace balign
