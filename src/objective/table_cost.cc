#include "objective/table_cost.h"

#include <algorithm>
#include <limits>

#include "bpred/static_cost.h"
#include "support/log.h"

namespace balign {

double
TableCostObjective::blockCost(const Procedure &proc, BlockId id,
                              BlockId next, const DirOracle &oracle,
                              BlockId prev) const
{
    auto idDir = [&](BlockId target, BlockId src) {
        if (target == prev && prev != kNoBlock)
            return DirHint::Backward;  // chain predecessor: placed before
        return oracle.dir(target, src);
    };
    const BasicBlock &block = proc.block(id);
    switch (block.term) {
      case Terminator::CondBranch: {
        const Edge &taken =
            proc.edge(static_cast<std::uint32_t>(proc.takenEdge(id)));
        const Edge &fall =
            proc.edge(static_cast<std::uint32_t>(proc.fallThroughEdge(id)));
        const DirHint dir_taken = idDir(taken.dst, id);
        const DirHint dir_fall = idDir(fall.dst, id);
        if (next == fall.dst) {
            return model_.condRealizationCost(taken.weight, fall.weight,
                                              CondRealization::FallAdjacent,
                                              dir_taken, dir_fall);
        }
        if (next == taken.dst) {
            return model_.condRealizationCost(taken.weight, fall.weight,
                                              CondRealization::TakenAdjacent,
                                              dir_taken, dir_fall);
        }
        // Unlinked (or linked to a non-successor, which chains never do):
        // the materializer will pick the cheaper branch-plus-jump form.
        const double to_fall = model_.condRealizationCost(
            taken.weight, fall.weight, CondRealization::NeitherJumpToFall,
            dir_taken, dir_fall);
        const double to_taken = model_.condRealizationCost(
            taken.weight, fall.weight, CondRealization::NeitherJumpToTaken,
            dir_taken, dir_fall);
        return std::min(to_fall, to_taken);
      }
      case Terminator::UncondBranch: {
        const Edge &taken =
            proc.edge(static_cast<std::uint32_t>(proc.takenEdge(id)));
        if (next == taken.dst)
            return model_.singleExitAdjacentCost();
        return model_.singleExitJumpCost(taken.weight);
      }
      case Terminator::FallThrough: {
        const std::int64_t fall_index = proc.fallThroughEdge(id);
        if (fall_index < 0)
            return 0.0;
        const Edge &fall = proc.edge(static_cast<std::uint32_t>(fall_index));
        if (next == fall.dst)
            return model_.singleExitAdjacentCost();
        return model_.singleExitJumpCost(fall.weight);
      }
      case Terminator::IndirectJump:
      case Terminator::Return:
        return 0.0;  // alignment cannot change these
    }
    panic("TableCostObjective::blockCost: bad terminator");
}

double
TableCostObjective::blockCostFloor(const Procedure &proc, BlockId id) const
{
    if (proc.block(id).term != Terminator::CondBranch)
        return 0.0;  // adjacent single exits are free, jumps cost >= 0
    // blockCost always prices one of the four realizations under one of
    // the four hint pairs the oracle can return.
    const Edge &taken =
        proc.edge(static_cast<std::uint32_t>(proc.takenEdge(id)));
    const Edge &fall =
        proc.edge(static_cast<std::uint32_t>(proc.fallThroughEdge(id)));
    double floor = std::numeric_limits<double>::infinity();
    for (const CondRealization realization :
         {CondRealization::FallAdjacent, CondRealization::TakenAdjacent,
          CondRealization::NeitherJumpToFall,
          CondRealization::NeitherJumpToTaken}) {
        for (const DirHint dir_taken : {DirHint::Forward, DirHint::Backward}) {
            for (const DirHint dir_fall :
                 {DirHint::Forward, DirHint::Backward}) {
                floor = std::min(
                    floor, model_.condRealizationCost(taken.weight,
                                                      fall.weight, realization,
                                                      dir_taken, dir_fall));
            }
        }
    }
    return floor;
}

double
TableCostObjective::layoutCost(const Procedure &proc,
                               const ProcLayout &layout) const
{
    return modeledBranchCost(proc, layout, model_);
}

}  // namespace balign
