/**
 * @file
 * Static profile estimation: Ball-Larus-style branch heuristics combined
 * with Dempster-Shafer evidence, then Wu-Larus frequency propagation —
 * a flow-conserving edge profile synthesized from the CFG alone.
 *
 * Every other profile source in this repo (measured, degraded) starts
 * from a trace. The estimator starts from nothing: a registry of named
 * syntactic heuristics assigns each conditional branch a taken
 * probability (loop-branch, loop-exit, loop-header, call, return,
 * dead-end, pattern — whatever the CFG metadata supports), multiple
 * firing heuristics are combined per branch with the Dempster-Shafer
 * rule Wu & Larus use (MICRO'94), and the resulting per-edge transition
 * probabilities are propagated into block/edge frequencies over the
 * natural-loop forest: closed-form cyclic frequencies for reducible
 * loops under a capped trip-count prior, an explicit bounded-iteration
 * fallback for irreducible regions flagged by analysis/loops.
 *
 * The synthesized profile must drop into the existing profile slot,
 * which means passing the prof.* lint rules (lint/profile_rules.cc):
 * per-block inflow == outflow for interior blocks, loop-boundary
 * conservation, zero weight on unreachable edges and in uncalled
 * procedures. Real-valued frequencies cannot guarantee that after
 * rounding, so the integer profile is materialized in one demand-driven
 * pass over the loop forest (propagate.cc): the entry count is split
 * over the procedure's sinks, then every block's demand over its
 * in-edges and every loop's header count over its back and entering
 * edges, each split exact by largest remainder, so conservation holds
 * by construction. Flow that enters an inescapable cycle (a trap SCC —
 * the static image of an infinite loop) is absorbed there as stranded
 * flow; that amount is known before any weight is placed, so main's
 * entry count is chosen in closed form to keep the program-wide total
 * within the truncated-walk slack the lint rules already allow.
 *
 * The estimator never reads Edge::bias — that is the walker's ground
 * truth. Everything here is derived from structure (terminators, loop
 * forest, call sites) plus the deterministic pattern metadata.
 */

#ifndef BALIGN_ESTIMATE_ESTIMATE_H
#define BALIGN_ESTIMATE_ESTIMATE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cfg/program.h"

namespace balign {

/// Version of the `balign estimate` JSON schema (`schema_version`).
inline constexpr int kEstimateSchemaVersion = 1;

/// Largest weight the estimator places on any edge. Loop header counts
/// multiply down a nest; past this they saturate, so adversarial nests
/// cannot overflow Weight or the sums downstream consumers form.
inline constexpr Weight kEstimateWeightCeiling = Weight{1} << 44;

/// Program-wide budget for integer flow stranded in trap SCCs; kept
/// below LintOptions::flowSlack so estimated profiles always pass
/// prof.flow-conservation.
inline constexpr Weight kEstimateStrandBudget = 48;

/// Registry entry for one branch heuristic.
struct HeuristicInfo
{
    const char *name;     ///< stable id ("loop-branch", "call", ...)
    double takenProb;     ///< probability assigned to the predicted edge
    const char *summary;  ///< one-line description
};

/// Every heuristic the estimator knows, in registry order.
const std::vector<HeuristicInfo> &allEstimateHeuristics();

/// One heuristic's vote on one conditional branch.
struct HeuristicVote
{
    const char *heuristic;  ///< registry name
    bool predictsTaken;     ///< direction of the vote
    double takenProb;       ///< the vote as a taken-probability
};

/// Per-branch provenance: which heuristics fired and the combined result.
struct BranchEstimate
{
    ProcId proc = kNoProc;
    BlockId block = kNoBlock;
    /// Dempster-Shafer combination of the votes, clamped; 0.5 when no
    /// heuristic fired.
    double takenProb = 0.5;
    std::vector<HeuristicVote> votes;
};

/// Per-procedure estimation summary.
struct ProcEstimate
{
    ProcId proc = kNoProc;
    /// Closed-form propagation was impossible (analysis/loops flagged an
    /// irreducible region); the bounded-iteration fallback ran instead.
    bool irreducibleFallback = false;
    /// Expected fraction of one invocation's flow that reaches a trap
    /// SCC (an inescapable cycle), transitively through calls.
    double strandProb = 0.0;
    /// Integer invocation count the synthesizer injected at the entry.
    Weight entryCount = 0;
    /// Integer flow left stranded inside trap SCCs.
    Weight stranded = 0;
    /// Number of trip-capped loops (cyclic probability hit the prior).
    std::size_t tripCappedLoops = 0;
};

/// What estimateProfile computed, for reports and the est.* lint rules.
struct EstimateReport
{
    /// One entry per conditional branch, in (proc, block) order.
    std::vector<BranchEstimate> branches;
    /// One entry per procedure, in id order.
    std::vector<ProcEstimate> procs;
    /// Fire counts parallel to allEstimateHeuristics().
    std::vector<std::size_t> heuristicHits;
    /// Per-procedure, per-edge-index transition probabilities (the
    /// distribution the est.prob rule validates and materialization
    /// follows).
    std::vector<std::vector<double>> edgeProbs;
    /// Program-wide integer flow left in trap SCCs
    /// (<= kEstimateStrandBudget).
    Weight totalStranded = 0;
    /// Conditional branches seen.
    std::size_t conditionals = 0;
};

/**
 * Dempster-Shafer combination of two taken-probabilities (the Wu-Larus
 * two-hypothesis special case): both pieces of evidence agree on the
 * hypothesis space {taken, not-taken}, so the combined belief is
 * a*b / (a*b + (1-a)*(1-b)). Symmetric, associative, 0.5 is neutral.
 */
double combineEvidence(double a, double b);

/**
 * Replaces @p program's edge weights with the synthesized static
 * profile and tags its provenance as Estimated. The CFG structure and
 * edge biases are untouched. Deterministic: same program,
 * byte-identical weights — no RNG, no threads, no iteration-order
 * dependence on anything but the IR.
 */
EstimateReport estimateProfile(Program &program);

/**
 * Renders the report as text: the per-heuristic hit table, per-procedure
 * summaries (fallbacks, stranded flow) and per-branch provenance lines.
 */
std::string formatEstimateReport(const EstimateReport &report,
                                 const Program &program);

/// JSON rendering (schema_version = kEstimateSchemaVersion; see README).
void writeEstimateReportJson(const EstimateReport &report,
                             const Program &program, std::ostream &os);

}  // namespace balign

#endif  // BALIGN_ESTIMATE_ESTIMATE_H
