/**
 * @file
 * Natural-loop forest with irreducible-region detection.
 *
 * A back edge is an edge u -> h whose destination dominates its source;
 * its natural loop is h plus every block that reaches u without passing
 * through h. Loops sharing a header are merged (one loop per header, the
 * standard normalization), membership is precomputed for O(log n)
 * contains(), and the loops are linked into a nesting forest (parent /
 * depth / innermost-loop-of-block).
 *
 * Irreducibility: a CFG is reducible iff every retreating edge (an edge
 * whose destination does not come later in reverse postorder) is a back
 * edge. Retreating non-back edges therefore witness irreducible regions —
 * multi-entry "loops" that have no header dominating their body. They are
 * reported as-is (the cfg.irreducible lint rule surfaces them); no
 * natural loop is formed for them, which downstream consumers must keep
 * in mind: the loop-based rules (prof.flow, layout.loop-split) and the
 * Try15 hot-path assumptions only see properly nested loops.
 */

#ifndef BALIGN_ANALYSIS_LOOPS_H
#define BALIGN_ANALYSIS_LOOPS_H

#include <limits>
#include <vector>

#include "analysis/dominators.h"

namespace balign {

/// Index sentinel for "no loop".
inline constexpr std::size_t kNoLoop =
    std::numeric_limits<std::size_t>::max();

/// One natural loop (all back edges to one header merged).
struct NaturalLoop
{
    BlockId header = kNoBlock;
    /// Back-edge sources (latches), in discovery order.
    std::vector<BlockId> latches;
    /// Member block ids, sorted ascending; always includes the header.
    std::vector<BlockId> blocks;
    /// Index of the innermost properly-enclosing loop, or kNoLoop.
    std::size_t parent = kNoLoop;
    /// Nesting depth: 1 for outermost loops.
    unsigned depth = 1;

    bool contains(BlockId id) const;
};

/// Every natural loop of one procedure plus the irreducibility witnesses.
struct LoopForest
{
    /// Loops ordered by header RPO number (outer loops before the inner
    /// loops they contain, on reducible CFGs).
    std::vector<NaturalLoop> loops;
    /// Innermost loop index of each block (kNoLoop when in none).
    std::vector<std::size_t> innermost;
    /// Retreating edges that are not back edges: (src, dst) pairs proving
    /// the CFG irreducible. Empty iff the reachable CFG is reducible.
    std::vector<std::pair<BlockId, BlockId>> irreducibleEdges;

    bool irreducible() const { return !irreducibleEdges.empty(); }
};

/// Computes the loop forest of @p view given its dominator tree.
LoopForest computeLoops(const CfgView &view, const DominatorTree &doms);

}  // namespace balign

#endif  // BALIGN_ANALYSIS_LOOPS_H
