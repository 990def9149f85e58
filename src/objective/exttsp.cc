#include "objective/exttsp.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "layout/materialize.h"

namespace balign {

std::string
ExtTspParams::toString() const
{
    char buffer[192];
    std::snprintf(buffer, sizeof(buffer),
                  "fallthrough=%.17g forward=%.17g backward=%.17g "
                  "fwd-window=%u bwd-window=%u",
                  fallthroughWeight, forwardJumpWeight, backwardJumpWeight,
                  forwardWindow, backwardWindow);
    return buffer;
}

std::optional<ExtTspParams>
ExtTspParams::fromString(std::string_view text)
{
    ExtTspParams params;
    unsigned fwd = 0;
    unsigned bwd = 0;
    if (std::sscanf(std::string(text).c_str(),
                    "fallthrough=%lg forward=%lg backward=%lg "
                    "fwd-window=%u bwd-window=%u",
                    &params.fallthroughWeight, &params.forwardJumpWeight,
                    &params.backwardJumpWeight, &fwd, &bwd) != 5)
        return std::nullopt;
    params.forwardWindow = fwd;
    params.backwardWindow = bwd;
    return params;
}

bool
operator==(const ExtTspParams &a, const ExtTspParams &b)
{
    return a.fallthroughWeight == b.fallthroughWeight &&
           a.forwardJumpWeight == b.forwardJumpWeight &&
           a.backwardJumpWeight == b.backwardJumpWeight &&
           a.forwardWindow == b.forwardWindow &&
           a.backwardWindow == b.backwardWindow;
}

double
extTspJumpScore(const ExtTspParams &params, Addr source, Addr target,
                Weight weight)
{
    const double w = static_cast<double>(weight);
    if (target >= source) {
        const Addr distance = target - source;
        if (distance >= params.forwardWindow)
            return 0.0;
        return w * params.forwardJumpWeight *
               (1.0 - static_cast<double>(distance) /
                          static_cast<double>(params.forwardWindow));
    }
    const Addr distance = source - target;
    if (distance >= params.backwardWindow)
        return 0.0;
    return w * params.backwardJumpWeight *
           (1.0 - static_cast<double>(distance) /
                      static_cast<double>(params.backwardWindow));
}

namespace {

/// Score of one realized transfer: fallthrough when adjacent, else the
/// distance-decayed jump bonus from the transfer instruction at
/// @p branch_addr to the edge's target block.
double
transferScore(const ExtTspParams &params, const ProcLayout &layout,
              bool adjacent, Addr branch_addr, BlockId dst, Weight weight)
{
    if (adjacent)
        return static_cast<double>(weight) * params.fallthroughWeight;
    return extTspJumpScore(params, branch_addr + 1,
                           layout.blocks[dst].addr, weight);
}

}  // namespace

double
extTspScore(const Procedure &proc, const ProcLayout &layout,
            const ExtTspParams &params)
{
    double score = 0.0;
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
            // The branch instruction carries one edge; the other is a
            // fallthrough when adjacent (Fall/TakenAdjacent) or an
            // inserted jump (both Neither realizations).
            score += transferScore(params, layout, false, bl.branchAddr,
                                   branch_edge.dst, branch_edge.weight);
            const bool through_adjacent =
                bl.cond == CondRealization::FallAdjacent ||
                bl.cond == CondRealization::TakenAdjacent;
            score += transferScore(params, layout, through_adjacent,
                                   bl.jumpAddr, through_edge.dst,
                                   through_edge.weight);
            break;
          }
          case Terminator::UncondBranch: {
            const Edge &taken = proc.edge(
                static_cast<std::uint32_t>(proc.takenEdge(block.id)));
            score += transferScore(params, layout, bl.jumpRemoved,
                                   bl.branchAddr, taken.dst, taken.weight);
            break;
          }
          case Terminator::FallThrough: {
            const std::int64_t fall_index =
                proc.fallThroughEdge(block.id);
            if (fall_index < 0)
                break;  // dead-end block: nothing to realize
            const Edge &fall =
                proc.edge(static_cast<std::uint32_t>(fall_index));
            score += transferScore(params, layout, !bl.jumpInserted,
                                   bl.jumpAddr, fall.dst, fall.weight);
            break;
          }
          case Terminator::IndirectJump:
          case Terminator::Return:
            break;  // no direct transfer to score
        }
    }
    return score;
}

double
extTspScore(const Program &program, const ProgramLayout &layout,
            const ExtTspParams &params)
{
    double score = 0.0;
    for (const auto &proc : program.procs())
        score += extTspScore(proc, layout.procs[proc.id()], params);
    return score;
}

double
ExtTspObjective::blockCost(const Procedure &proc, BlockId id, BlockId next,
                           const DirOracle &oracle, BlockId prev) const
{
    (void)oracle;  // ExtTSP has no direction dependence
    (void)prev;
    if (next == kNoBlock)
        return 0.0;
    const BasicBlock &block = proc.block(id);
    auto linkGain = [&](std::int64_t edge_index) {
        if (edge_index < 0)
            return 0.0;
        const Edge &edge =
            proc.edge(static_cast<std::uint32_t>(edge_index));
        if (edge.dst != next)
            return 0.0;
        return -static_cast<double>(edge.weight) *
               params_.fallthroughWeight;
    };
    switch (block.term) {
      case Terminator::CondBranch:
        // Whichever out-edge the link realizes becomes a fallthrough.
        return linkGain(proc.takenEdge(id)) + linkGain(proc.fallThroughEdge(id));
      case Terminator::UncondBranch:
        return linkGain(proc.takenEdge(id));
      case Terminator::FallThrough:
        return linkGain(proc.fallThroughEdge(id));
      case Terminator::IndirectJump:
      case Terminator::Return:
        return 0.0;
    }
    return 0.0;
}

double
ExtTspObjective::blockCostFloor(const Procedure &proc, BlockId id) const
{
    // The same terms blockCost sums, each at its best: a realized link
    // can at most turn every out-edge blockCost reads into a fallthrough.
    auto bestGain = [&](std::int64_t edge_index) {
        if (edge_index < 0)
            return 0.0;
        const Edge &edge =
            proc.edge(static_cast<std::uint32_t>(edge_index));
        return std::min(0.0, -static_cast<double>(edge.weight) *
                                 params_.fallthroughWeight);
    };
    switch (proc.block(id).term) {
      case Terminator::CondBranch:
        return bestGain(proc.takenEdge(id)) +
               bestGain(proc.fallThroughEdge(id));
      case Terminator::UncondBranch:
        return bestGain(proc.takenEdge(id));
      case Terminator::FallThrough:
        return bestGain(proc.fallThroughEdge(id));
      case Terminator::IndirectJump:
      case Terminator::Return:
        return 0.0;
    }
    return 0.0;
}

double
ExtTspObjective::layoutCost(const Procedure &proc,
                            const ProcLayout &layout) const
{
    return -extTspScore(proc, layout, params_);
}

}  // namespace balign
