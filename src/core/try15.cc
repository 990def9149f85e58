#include "core/try15.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "core/greedy.h"
#include "objective/table_cost.h"
#include "support/log.h"

namespace balign {

Try15Aligner::Try15Aligner(const CostModel &model,
                           const AlignOptions &options)
    : Try15Aligner(std::make_unique<TableCostObjective>(model), options)
{
}

Try15Aligner::Try15Aligner(std::unique_ptr<AlignmentObjective> objective,
                           const AlignOptions &options)
    : objective_(std::move(objective)), options_(options)
{
    if (objective_ == nullptr)
        panic("Try15Aligner: null objective");
    if (options_.groupSize < 1 || options_.groupSize > kMaxTry15GroupSize)
        panic("Try15Aligner: group size %zu outside [1, %zu] "
              "(kMaxTry15GroupSize)",
              options_.groupSize, kMaxTry15GroupSize);
}

namespace {

/// TryN searches only edges executed at least this often (paper §4: "we
/// only examined edges that were executed more than once").
constexpr Weight kMinEdgeWeight = 2;

/// One candidate edge in a search group.
struct GroupEdge
{
    BlockId src;
    BlockId dst;
};

/**
 * Branch-and-bound over the consistent subsets of the group edges, visited
 * include-first in group order, with the chain state and the summed cost
 * maintained incrementally. Each link recomputes the modelled cost of BOTH
 * endpoints with the current chain context, so prev-link direction effects
 * (loop rotations under BT/FNT) are priced.
 *
 * The blocks the group touches live in dense slots sorted by id. A block
 * that no undecided edge touches keeps its cost down to the leaf, and any
 * other block can at best fall to its blockCostFloor, so a leaf below a
 * node costs at least `cost - slack`, where slack sums the touched-later
 * blocks' distances to their floors. A subtree whose bound exceeds the
 * best leaf by more than floating-point rounding holds only leaves that
 * would fail the strict `cost < bestCost_` test, so the result (mask and
 * include-first tie-breaking) is that of the exhaustive search (DESIGN.md
 * §9.5).
 */
class GroupSearch
{
  public:
    GroupSearch(const Procedure &proc, const AlignmentObjective &objective,
                ChainSet &chains, const std::vector<GroupEdge> &group,
                const DirOracle &oracle)
        : proc_(proc),
          objective_(objective),
          chains_(chains),
          group_(group),
          oracle_(oracle)
    {
        // Touched blocks, sorted by id; a block's index is its slot.
        std::vector<BlockId> blocks;
        for (const auto &edge : group_) {
            blocks.push_back(edge.src);
            blocks.push_back(edge.dst);
        }
        std::sort(blocks.begin(), blocks.end());
        blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
        auto slotOf = [&](BlockId block) {
            return static_cast<std::uint32_t>(
                std::lower_bound(blocks.begin(), blocks.end(), block) -
                blocks.begin());
        };
        lastUse_.assign(blocks.size(), 0);
        slots_.reserve(group_.size());
        for (std::size_t i = 0; i < group_.size(); ++i) {
            const EdgeSlots slots{slotOf(group_[i].src),
                                  slotOf(group_[i].dst)};
            lastUse_[slots.src] = i;
            lastUse_[slots.dst] = i;
            slots_.push_back(slots);
        }

        // Baseline: the cost of every touched block given its current
        // (pre-group) link state, summed in block-id order.
        cur_.resize(blocks.size());
        floor_.resize(blocks.size());
        double base = 0.0;
        double slack = 0.0;
        for (std::size_t slot = 0; slot < blocks.size(); ++slot) {
            cur_[slot] = costOf(blocks[slot]);
            floor_[slot] = objective_.blockCostFloor(proc_, blocks[slot]);
            base += cur_[slot];
            slack += gap(slot, cur_[slot]);
        }
        dfs(0, base, slack, 0);
    }

    std::uint32_t bestMask() const { return bestMask_; }

  private:
    /// Dense slots of one group edge's endpoints.
    struct EdgeSlots
    {
        std::uint32_t src;
        std::uint32_t dst;
    };

    double
    costOf(BlockId block) const
    {
        return objective_.blockCost(proc_, block, chains_.next(block),
                                    oracle_, chains_.prev(block));
    }

    /// How far the block in @p slot, now costing @p cost, could still drop.
    double
    gap(std::size_t slot, double cost) const
    {
        return std::max(0.0, cost - floor_[slot]);
    }

    /// @p slack once edge @p i is decided and the block in @p slot went
    /// from costing @p from to @p to: the block leaves the sum unless an
    /// edge after @p i still touches it.
    double
    settle(double slack, std::size_t i, std::uint32_t slot, double from,
           double to) const
    {
        slack -= gap(slot, from);
        return lastUse_[slot] > i ? slack + gap(slot, to) : slack;
    }

    void
    dfs(std::size_t i, double cost, double slack, std::uint32_t mask)
    {
        // The relative margin absorbs the rounding of the incremental
        // cost and slack sums, which is far below 1e-9 of their size.
        const double margin =
            1e-9 * (1.0 + std::abs(bestCost_) + std::abs(cost) +
                    std::abs(slack));
        if (cost - slack > bestCost_ + margin)
            return;
        if (i == group_.size()) {
            if (cost < bestCost_) {
                bestCost_ = cost;
                bestMask_ = mask;
            }
            return;
        }
        const GroupEdge &edge = group_[i];
        const EdgeSlots slots = slots_[i];
        const double old_src = cur_[slots.src];
        const double old_dst = cur_[slots.dst];
        // Include: realize this edge as a fall-through link.
        if (chains_.link(edge.src, edge.dst)) {
            const double new_src = costOf(edge.src);
            const double new_dst = costOf(edge.dst);
            cur_[slots.src] = new_src;
            cur_[slots.dst] = new_dst;
            dfs(i + 1, cost + (new_src - old_src) + (new_dst - old_dst),
                settle(settle(slack, i, slots.src, old_src, new_src), i,
                       slots.dst, old_dst, new_dst),
                mask | (1u << i));
            cur_[slots.src] = old_src;
            cur_[slots.dst] = old_dst;
            chains_.unlink(edge.src, edge.dst);
        }
        // Exclude.
        dfs(i + 1, cost,
            settle(settle(slack, i, slots.src, old_src, old_src), i,
                   slots.dst, old_dst, old_dst),
            mask);
    }

    const Procedure &proc_;
    const AlignmentObjective &objective_;
    ChainSet &chains_;
    const std::vector<GroupEdge> &group_;
    const DirOracle &oracle_;
    std::vector<EdgeSlots> slots_;
    /// Index of the last group edge touching each slot.
    std::vector<std::size_t> lastUse_;
    std::vector<double> cur_;
    std::vector<double> floor_;
    double bestCost_ = std::numeric_limits<double>::infinity();
    std::uint32_t bestMask_ = 0;
};

}  // namespace

ChainSet
Try15Aligner::alignProc(const Procedure &proc, const DirOracle &base_oracle,
                        const std::vector<std::uint32_t> &by_weight) const
{
    ChainSet chains(proc.numBlocks(), proc.entry());
    // Same-chain placements are definitive direction evidence (they
    // survive any chain concatenation); the caller's hints cover the rest.
    const DirOracle oracle = base_oracle.withChains(&chains);

    // Candidate edges: alignable and hot enough.
    std::vector<std::uint32_t> candidates;
    candidates.reserve(by_weight.size());
    for (std::uint32_t index : by_weight) {
        if (proc.edge(index).weight >= kMinEdgeWeight)
            candidates.push_back(index);
    }

    const std::size_t group_size = options_.groupSize;

    std::size_t cursor = 0;
    while (cursor < candidates.size()) {
        // Form the next group from still-linkable edges.
        std::vector<GroupEdge> group;
        group.reserve(group_size);
        while (cursor < candidates.size() && group.size() < group_size) {
            const Edge &edge = proc.edge(candidates[cursor]);
            ++cursor;
            if (!chains.canLink(edge.src, edge.dst))
                continue;
            group.push_back(GroupEdge{edge.src, edge.dst});
        }
        if (group.empty())
            break;

        GroupSearch search(proc, *objective_, chains, group, oracle);
        const std::uint32_t mask = search.bestMask();
        for (std::size_t i = 0; i < group.size(); ++i) {
            if ((mask & (1u << i)) == 0)
                continue;
            if (!chains.link(group[i].src, group[i].dst))
                panic("try15: committing best mask failed");
        }
    }

    // Tidy pass: link remaining (mostly cold) edges when that cannot make
    // the modelled cost worse, to avoid needless jumps in cold code.
    for (std::uint32_t index : by_weight) {
        const Edge &edge = proc.edge(index);
        if (!chains.canLink(edge.src, edge.dst))
            continue;
        const double unlinked = objective_->blockCost(
            proc, edge.src, chains.next(edge.src), oracle,
            chains.prev(edge.src));
        const double linked = objective_->blockCost(
            proc, edge.src, edge.dst, oracle, chains.prev(edge.src));
        if (linked <= unlinked)
            chains.link(edge.src, edge.dst);
    }

    return chains;
}

}  // namespace balign
