#include "core/cost_align.h"

#include <limits>
#include <utility>

#include "core/greedy.h"
#include "objective/table_cost.h"
#include "support/log.h"

namespace balign {

CostAligner::CostAligner(const CostModel &model)
    : objective_(std::make_unique<TableCostObjective>(model))
{
}

CostAligner::CostAligner(std::unique_ptr<AlignmentObjective> objective)
    : objective_(std::move(objective))
{
    if (objective_ == nullptr)
        panic("CostAligner: null objective");
}

ChainSet
CostAligner::alignProc(const Procedure &proc, const DirOracle &base_oracle,
                       const std::vector<std::uint32_t> &by_weight) const
{
    ChainSet chains(proc.numBlocks(), proc.entry());
    const AlignmentObjective &objective = *objective_;
    // Same-chain placements are definitive direction evidence; fall back
    // to the caller's hints (previous-iteration positions or block ids)
    // only for blocks not yet chained together.
    const DirOracle oracle = base_oracle.withChains(&chains);

    for (std::uint32_t index : by_weight) {
        const Edge &edge = proc.edge(index);
        const BlockId src = edge.src;
        const BlockId dst = edge.dst;
        if (!chains.canLink(src, dst))
            continue;

        const BlockId src_prev = chains.prev(src);
        const double cost_unlinked =
            objective.blockCost(proc, src, kNoBlock, oracle, src_prev);
        // Linking also makes src the chain predecessor of dst.
        const double cost_linked =
            objective.blockCost(proc, src, dst, oracle, src_prev) +
            objective.blockCost(proc, dst, chains.next(dst), oracle, src) -
            objective.blockCost(proc, dst, chains.next(dst), oracle,
                                chains.prev(dst));

        // Option: link the sibling edge instead (conditional blocks only).
        double cost_sibling = std::numeric_limits<double>::infinity();
        if (proc.block(src).term == Terminator::CondBranch) {
            const auto taken_index =
                static_cast<std::uint32_t>(proc.takenEdge(src));
            const auto fall_index =
                static_cast<std::uint32_t>(proc.fallThroughEdge(src));
            const Edge &sibling = index == taken_index
                                      ? proc.edge(fall_index)
                                      : proc.edge(taken_index);
            if (chains.canLink(src, sibling.dst)) {
                cost_sibling = objective.blockCost(proc, src, sibling.dst,
                                                   oracle, src_prev);
            }
        }

        // Not linking (letting the materializer insert a jump, or leaving
        // the slot for the sibling) may be cheaper — e.g. a hot single-
        // block loop on the FALLTHROUGH architecture.
        if (cost_unlinked <= cost_linked || cost_sibling < cost_linked)
            continue;

        // Would another predecessor of D profit more from the slot?
        const double benefit = cost_unlinked - cost_linked;
        bool better_pred = false;
        for (std::uint32_t in_index : proc.inEdges(dst)) {
            const Edge &in_edge = proc.edge(in_index);
            if (in_edge.src == src)
                continue;
            if (in_edge.kind == EdgeKind::Other)
                continue;
            if (!chains.canLink(in_edge.src, dst))
                continue;
            const BlockId pred_prev = chains.prev(in_edge.src);
            const double pred_unlinked = objective.blockCost(
                proc, in_edge.src, kNoBlock, oracle, pred_prev);
            const double pred_linked = objective.blockCost(
                proc, in_edge.src, dst, oracle, pred_prev);
            if (pred_unlinked - pred_linked > benefit) {
                better_pred = true;
                break;
            }
        }
        if (better_pred)
            continue;

        chains.link(src, dst);
    }
    return chains;
}

}  // namespace balign
