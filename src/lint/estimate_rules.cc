/**
 * @file
 * est.* rules: self-checks of the static profile estimator.
 *
 * Unlike the other rule groups these do not inspect the program's own
 * profile — they run estimate/estimate.h on a COPY and verify what it
 * synthesized: per-block transition probabilities must be distributions
 * (est.prob), the materialized integer profile must conserve flow
 * within the stranding budget (est.flow — the same invariant prof.*
 * demands of measured profiles, re-checked at the source so an estimator
 * bug is attributed to the estimator, not the profile), and
 * irreducible-region fallbacks are surfaced as notes (est.fallback) so a
 * user knows the closed form did not apply.
 */

#include <cmath>
#include <sstream>

#include "estimate/estimate.h"
#include "lint/emit.h"
#include "lint/rules.h"

namespace balign {

namespace {

using lint_detail::emit;

constexpr double kDistributionTolerance = 1e-9;

// The estimator's stranding budget must fit the default slack, or a
// correct estimate of a trap-laden program would fail est.flow.
static_assert(kEstimateStrandBudget < LintOptions{}.flowSlack);

void
checkProbabilities(const Program &program, const EstimateReport &report,
                   std::vector<Diagnostic> &sink)
{
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        const Procedure &proc = program.proc(p);
        if (p >= report.edgeProbs.size())
            continue;
        const std::vector<double> &probs = report.edgeProbs[p];
        for (const BasicBlock &block : proc.blocks()) {
            double sum = 0.0;
            std::size_t valid = 0;
            bool in_range = true;
            for (const std::uint32_t e : block.outEdges) {
                if (e >= probs.size() ||
                    proc.edge(e).dst >= proc.numBlocks())
                    continue;
                ++valid;
                sum += probs[e];
                if (probs[e] < 0.0 || probs[e] > 1.0)
                    in_range = false;
            }
            if (valid == 0)
                continue;
            if (!in_range) {
                emit(sink, "est.prob", {p, block.id, kNoEdge},
                     "estimated transition probability outside [0, 1]",
                     "heuristic combination must clamp into the open "
                     "probability interval");
            } else if (std::abs(sum - 1.0) > kDistributionTolerance) {
                std::ostringstream msg;
                msg << "out-edge probabilities sum to " << sum
                    << " instead of 1";
                emit(sink, "est.prob", {p, block.id, kNoEdge}, msg.str(),
                     "every activation leaving a block must take exactly "
                     "one out-edge");
            }
        }
    }
}

void
checkFlow(const Program &estimated, const LintOptions &options,
          const EstimateReport &report, std::vector<Diagnostic> &sink)
{
    Weight total_excess = 0;
    for (const Procedure &proc : estimated.procs()) {
        for (const BasicBlock &block : proc.blocks()) {
            if (block.id == proc.entry() || block.outEdges.empty())
                continue;
            Weight in = 0, out = 0;
            for (const std::uint32_t e : block.inEdges) {
                if (e < proc.numEdges())
                    in += proc.edge(e).weight;
            }
            for (const std::uint32_t e : block.outEdges) {
                if (e < proc.numEdges())
                    out += proc.edge(e).weight;
            }
            if (out > in) {
                std::ostringstream msg;
                msg << "estimated profile emits more flow than it "
                       "receives (inflow="
                    << in << ", outflow=" << out << ")";
                emit(sink, "est.flow", {proc.id(), block.id, kNoEdge},
                     msg.str(),
                     "materialization must split exactly the demand "
                     "each block carries");
                continue;
            }
            total_excess += in - out;
        }
    }
    if (total_excess > options.flowSlack) {
        std::ostringstream msg;
        msg << "estimated profile strands " << total_excess
            << " units program-wide (reported stranded "
            << report.totalStranded << "), above the allowance of "
            << options.flowSlack;
        emit(sink, "est.flow", {kNoProc, kNoBlock, kNoEdge}, msg.str(),
             "the closed-form entry count must keep stranded flow "
             "within the lint slack");
    }
}

void
noteFallbacks(const Program &program, const EstimateReport &report,
              std::vector<Diagnostic> &sink)
{
    for (const ProcEstimate &pe : report.procs) {
        if (!pe.irreducibleFallback || pe.proc >= program.numProcs())
            continue;
        std::ostringstream msg;
        msg << "procedure '" << program.proc(pe.proc).name()
            << "' has an irreducible region; frequencies come from the "
               "bounded-iteration fallback, not the closed form";
        emit(sink, "est.fallback", {pe.proc, kNoBlock, kNoEdge}, msg.str(),
             "cfg.irreducible names the offending retreating edges");
    }
}

}  // namespace

void
lintEstimate(const Program &program, const LintOptions &options,
             std::vector<Diagnostic> &sink)
{
    Program estimated = program;
    const EstimateReport report = estimateProfile(estimated);
    checkProbabilities(estimated, report, sink);
    checkFlow(estimated, options, report, sink);
    noteFallbacks(estimated, report, sink);
}

}  // namespace balign
