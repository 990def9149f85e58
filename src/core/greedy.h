/**
 * @file
 * The Pettis–Hansen bottom-up ("greedy") branch alignment algorithm
 * (paper §4).
 *
 * Edges are visited in decreasing execution-weight order. For the edge
 * S -> D, D is made the layout fall-through of S when S has no fall-through
 * yet and D heads its chain; otherwise the blocks cannot be linked. Chains
 * merge as links form. The algorithm ignores the underlying branch
 * architecture entirely — it is the baseline the cost-aware algorithms are
 * compared against.
 */

#ifndef BALIGN_CORE_GREEDY_H
#define BALIGN_CORE_GREEDY_H

#include "core/aligner.h"

namespace balign {

class GreedyAligner : public Aligner
{
  public:
    std::string name() const override { return "greedy"; }
    using Aligner::alignProc;
    ChainSet alignProc(const Procedure &proc, const DirOracle &oracle,
                       const std::vector<std::uint32_t> &by_weight)
        const override;
    bool wantsCostModelMaterialization() const override { return false; }
};

}  // namespace balign

#endif  // BALIGN_CORE_GREEDY_H
