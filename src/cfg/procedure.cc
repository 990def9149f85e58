#include "cfg/procedure.h"

#include "support/log.h"

namespace balign {

namespace {

/// Appends edge @p index to the circular list whose last edge is @p last,
/// threaded through @p next.
void
append(std::uint32_t &last, std::vector<std::uint32_t> &next,
       std::uint32_t index)
{
    // The new last edge leads back to the first: itself when alone.
    const std::uint32_t first = last == EdgeList::kEnd ? index : next[last];
    next.push_back(first);
    if (last != EdgeList::kEnd)
        next[last] = index;
    last = index;
}

}  // namespace

const char *
terminatorName(Terminator term)
{
    switch (term) {
      case Terminator::FallThrough: return "fallthrough";
      case Terminator::CondBranch: return "cond";
      case Terminator::UncondBranch: return "uncond";
      case Terminator::IndirectJump: return "indirect";
      case Terminator::Return: return "return";
    }
    return "?";
}

BlockId
Procedure::addBlock(std::uint32_t num_instrs, Terminator term)
{
    BasicBlock block;
    block.id = static_cast<BlockId>(blocks_.size());
    block.numInstrs = num_instrs;
    block.term = term;
    blocks_.push_back(std::move(block));
    outLast_.push_back(EdgeList::kEnd);
    inLast_.push_back(EdgeList::kEnd);
    return blocks_.back().id;
}

std::uint32_t
Procedure::addEdge(BlockId src, BlockId dst, EdgeKind kind, Weight weight,
                   double bias)
{
    if (src >= blocks_.size() || dst >= blocks_.size())
        panic("addEdge: block out of range (src=%u dst=%u n=%zu)", src, dst,
              blocks_.size());
    Edge edge;
    edge.src = src;
    edge.dst = dst;
    edge.kind = kind;
    edge.weight = weight;
    edge.bias = bias;
    const auto index = static_cast<std::uint32_t>(edges_.size());
    edges_.push_back(edge);
    append(outLast_[src], outNext_, index);
    append(inLast_[dst], inNext_, index);
    return index;
}

std::int64_t
Procedure::findOutEdge(BlockId src, EdgeKind kind) const
{
    for (const std::uint32_t index : outEdges(src)) {
        if (edges_[index].kind == kind)
            return index;
    }
    return -1;
}

std::uint64_t
Procedure::totalInstrs() const
{
    std::uint64_t total = 0;
    for (const auto &block : blocks_)
        total += block.numInstrs;
    return total;
}

Weight
Procedure::totalEdgeWeight() const
{
    Weight total = 0;
    for (const auto &edge : edges_)
        total += edge.weight;
    return total;
}

void
Procedure::clearWeights()
{
    for (auto &edge : edges_)
        edge.weight = 0;
}

Weight
Procedure::blockWeight(BlockId id) const
{
    Weight total = 0;
    for (const std::uint32_t index : inEdges(id))
        total += edges_[index].weight;
    return total;
}

}  // namespace balign
