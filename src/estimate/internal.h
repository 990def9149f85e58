/**
 * @file
 * Internals shared by the estimator's stages (heuristics.cc computes
 * per-edge transition probabilities, propagate.cc turns them into
 * frequencies and integer flow, estimate.cc drives the program-level
 * pass). Not installed; include estimate/estimate.h instead.
 */

#ifndef BALIGN_ESTIMATE_INTERNAL_H
#define BALIGN_ESTIMATE_INTERNAL_H

#include <cstdint>
#include <vector>

#include "analysis/analysis.h"
#include "estimate/estimate.h"

namespace balign {
namespace estimate_detail {

/**
 * Per-edge transition probabilities for one procedure: edgeProb[i] is
 * the probability that an activation leaving proc.edge(i).src traverses
 * that edge. Out-edges of every block sum to 1 (blocks without
 * out-edges contribute nothing). Appends per-branch provenance to
 * @p branches and bumps @p hits (parallel to allEstimateHeuristics()).
 */
std::vector<double> branchProbabilities(const Procedure &proc,
                                        const ProcAnalysis &analysis,
                                        std::vector<BranchEstimate> &branches,
                                        std::vector<std::size_t> &hits);

/// How the integer profile treats one edge.
enum class EdgeRole : std::uint8_t
{
    Dead,        ///< out of range, or leaves an unreachable block
    Forward,     ///< destination later in RPO
    Back,        ///< destination dominates the source (a loop's latch)
    Retreating,  ///< retreating but not a back edge: irreducible, no flow
};

/// A place where an invocation's flow leaves the procedure.
struct SinkMass
{
    BlockId block = kNoBlock;
    /// Expected flow absorbed there per invocation (uncapped).
    double mass = 0.0;
    /// Entry of a trap SCC: what it absorbs is stranded.
    bool trap = false;
};

/// Real-valued per-invocation frequencies for one procedure.
struct ProcFreqs
{
    /// Expected executions of each block per procedure invocation,
    /// cyclic probabilities capped by the trip-count prior. Scales the
    /// call graph.
    std::vector<double> block;
    /// The same with uncapped cyclic probabilities: the Markov solution
    /// of the transition probabilities, which the integer profile
    /// follows.
    std::vector<double> flow;
    /// Per loop (parallel to LoopForest::loops): uncapped header
    /// executions per loop entry. Trap loops keep the capped prior.
    std::vector<double> headerMul;
    /// Per edge index.
    std::vector<EdgeRole> edgeRole;
    /// Blocks without out-edges and trap-SCC entries, in RPO order.
    std::vector<SinkMass> sinks;
    /// Expected flow entering trap SCCs per invocation, in [0, 1].
    double trapMass = 0.0;
    /// Bounded-iteration fallback ran (irreducible region).
    bool irreducibleFallback = false;
    /// Loops whose cyclic probability hit the trip-count prior.
    std::size_t tripCappedLoops = 0;
};

/**
 * Wu-Larus frequency propagation: closed-form cyclic frequencies over
 * the natural-loop forest when the CFG is reducible, a damped
 * Gauss-Seidel fallback otherwise. Entry frequency is 1.
 */
ProcFreqs propagateFrequencies(const Procedure &proc,
                               const ProcAnalysis &analysis,
                               const std::vector<double> &edgeProb);

/**
 * One-pass integer materialization over the loop forest: splits
 * @p entries over @p freqs' sinks, then walks every region in reverse
 * RPO splitting each block's demand over its in-edges and each loop's
 * header count over its back and entering edges, every split exact by
 * largest remainder (see propagate.cc). Writes the traversal counts into
 * @p proc's edge weights (which must be zero on entry) and returns the
 * flow absorbed by trap SCCs.
 */
Weight materializeFlow(Procedure &proc, const ProcAnalysis &analysis,
                       const std::vector<double> &edgeProb,
                       const ProcFreqs &freqs, Weight entries);

}  // namespace estimate_detail
}  // namespace balign

#endif  // BALIGN_ESTIMATE_INTERNAL_H
