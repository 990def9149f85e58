#include "bpred/static_cost.h"

#include <algorithm>
#include <limits>

#include "layout/materialize.h"
#include "support/log.h"

namespace balign {

double
modeledBranchCost(const Procedure &proc, const ProcLayout &layout,
                  const CostModel &model)
{
    double total = 0.0;
    for (const auto &block : proc.blocks()) {
        const BlockLayout &bl = layout.blocks[block.id];
        switch (block.term) {
          case Terminator::CondBranch: {
            const Edge &taken = proc.edge(
                static_cast<std::uint32_t>(proc.takenEdge(block.id)));
            const Edge &fall = proc.edge(static_cast<std::uint32_t>(
                proc.fallThroughEdge(block.id)));
            const EdgeKind branch_kind = branchTargetKind(bl.cond);
            const Edge &branch_edge =
                branch_kind == EdgeKind::Taken ? taken : fall;
            const Edge &through_edge =
                branch_kind == EdgeKind::Taken ? fall : taken;
            const Addr target = layout.blocks[branch_edge.dst].addr;
            const DirHint dir = target <= bl.branchAddr
                                    ? DirHint::Backward
                                    : DirHint::Forward;
            total += model.condCost(
                static_cast<double>(branch_edge.weight),
                static_cast<double>(through_edge.weight), dir);
            if (bl.cond == CondRealization::NeitherJumpToFall ||
                bl.cond == CondRealization::NeitherJumpToTaken) {
                total += static_cast<double>(through_edge.weight) *
                         model.uncondCost();
            }
            break;
          }
          case Terminator::UncondBranch:
            if (!bl.jumpRemoved) {
                total += model.singleExitJumpCost(
                    proc.edge(static_cast<std::uint32_t>(
                                  proc.takenEdge(block.id)))
                        .weight);
            }
            break;
          case Terminator::FallThrough:
            if (bl.jumpInserted) {
                total += model.singleExitJumpCost(
                    proc.edge(static_cast<std::uint32_t>(
                                  proc.fallThroughEdge(block.id)))
                        .weight);
            }
            break;
          case Terminator::IndirectJump:
          case Terminator::Return:
            break;
        }
    }
    return total;
}

double
modeledBranchCost(const Program &program, const ProgramLayout &layout,
                  const CostModel &model)
{
    double total = 0.0;
    for (const auto &proc : program.procs())
        total += modeledBranchCost(proc, layout.procs[proc.id()], model);
    return total;
}

double
optimalBranchCost(const Procedure &proc, const CostModel &model,
                  std::size_t max_blocks)
{
    const std::size_t n = proc.numBlocks();
    if (n > max_blocks)
        panic("optimalBranchCost: %zu blocks exceeds the brute-force cap",
              n);

    // Permute the non-entry blocks; the entry stays first.
    std::vector<BlockId> rest;
    for (BlockId b = 0; b < n; ++b) {
        if (b != proc.entry())
            rest.push_back(b);
    }
    std::sort(rest.begin(), rest.end());

    double best = std::numeric_limits<double>::infinity();
    do {
        std::vector<BlockId> order{proc.entry()};
        order.insert(order.end(), rest.begin(), rest.end());
        const ProcLayout layout =
            materializeProc(proc, std::move(order), 0, &model);
        best = std::min(best, modeledBranchCost(proc, layout, model));
    } while (std::next_permutation(rest.begin(), rest.end()));
    return best;
}

}  // namespace balign
