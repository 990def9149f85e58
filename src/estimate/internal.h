/**
 * @file
 * Internals shared by the estimator's stages (heuristics.cc computes
 * per-edge transition probabilities, propagate.cc turns them into
 * frequencies and integer flow, estimate.cc drives the program-level
 * pass). Not installed; include estimate/estimate.h instead.
 */

#ifndef BALIGN_ESTIMATE_INTERNAL_H
#define BALIGN_ESTIMATE_INTERNAL_H

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
                                        const EstimateOptions &options,
                                        std::vector<BranchEstimate> &branches,
                                        std::vector<std::size_t> &hits);

/// Real-valued per-invocation frequencies for one procedure.
struct ProcFreqs
{
    /// Expected executions of each block per procedure invocation.
    std::vector<double> block;
    /// Expected traversals of each edge per procedure invocation.
    std::vector<double> edge;
    /// Member of an inescapable cycle (SCC with no leaving edge).
    std::vector<bool> trapBlock;
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
                               const std::vector<double> &edgeProb,
                               const EstimateOptions &options);

/**
 * Deterministic integer flow push: injects @p entries activations at
 * the procedure entry and lets every block re-apportion exactly the
 * integer flow it receives across its out-edges (largest-remainder
 * rounding with per-edge carries; shares follow each edge's remaining
 * closed-form total from @p freqs, falling back to @p edgeProb once every
 * target is met). Writes the resulting traversal counts into @p proc's
 * edge weights (which must be zero on entry) and returns the flow
 * stranded in trap SCCs or still moving at the pass cap.
 */
Weight pushFlow(Procedure &proc, const ProcAnalysis &analysis,
                const std::vector<double> &edgeProb, const ProcFreqs &freqs,
                Weight entries);

}  // namespace estimate_detail
}  // namespace balign

#endif  // BALIGN_ESTIMATE_INTERNAL_H
