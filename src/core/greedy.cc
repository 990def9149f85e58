#include "core/greedy.h"

#include <algorithm>

namespace balign {

std::vector<std::uint32_t>
alignableEdgesByWeight(const Procedure &proc)
{
    std::vector<std::uint32_t> edges;
    edges.reserve(proc.numEdges());
    for (std::uint32_t i = 0; i < proc.numEdges(); ++i) {
        const EdgeKind kind = proc.edge(i).kind;
        if (kind == EdgeKind::Taken || kind == EdgeKind::FallThrough)
            edges.push_back(i);
    }
    std::stable_sort(edges.begin(), edges.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return proc.edge(a).weight > proc.edge(b).weight;
                     });
    return edges;
}

ChainSet
GreedyAligner::alignProc(const Procedure &proc, const DirOracle &,
                         const std::vector<std::uint32_t> &by_weight) const
{
    ChainSet chains(proc.numBlocks(), proc.entry());
    for (std::uint32_t index : by_weight) {
        const Edge &edge = proc.edge(index);
        chains.link(edge.src, edge.dst);  // no-op when not linkable
    }
    return chains;
}

}  // namespace balign
