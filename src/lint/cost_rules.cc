/**
 * @file
 * cost.* rules: objective monotonicity between whole layouts.
 *
 * The paper's claim (Table 4 discussion) is that the objective-guided
 * aligners can never lose to the cost-blind Greedy baseline under the very
 * objective they optimize: pricing both layouts with the active
 * AlignmentObjective and the measured edge profile, price(candidate) <=
 * price(greedy). Under the default Table-1 objective the price is the
 * modeled cycle count recomputed by bpred/static_cost.h from final
 * addresses — independently of any aligner bookkeeping — so a regression
 * in either the aligners or the materializer trips the rule. Other
 * objectives (ExtTSP) are priced by their own layoutCost, which the
 * driver's fallback splice guarantees monotone too.
 */

#include <sstream>
#include <vector>

#include "lint/emit.h"
#include "lint/rules.h"

namespace balign {

namespace {

/// Relative tolerance for cost.monotone comparisons (floating-point
/// summation noise only; a real regression exceeds this by orders of
/// magnitude).
constexpr double kCostRelTolerance = 1e-9;

}  // namespace

void
lintCostMonotone(const Program &program, const AlignmentObjective &objective,
                 const std::string &arch, const ProgramLayout &baseline,
                 const char *baselineName, const ProgramLayout &candidate,
                 const char *candidateName, std::vector<Diagnostic> &sink)
{
    const double base_cost = objective.layoutCost(program, baseline);
    const double cand_cost = objective.layoutCost(program, candidate);
    // Relative-plus-absolute allowance: prices may be negative (ExtTSP) or
    // near zero, so scale by magnitude.
    const double magnitude = base_cost < 0 ? -base_cost : base_cost;
    const double allowance =
        magnitude * kCostRelTolerance + kCostRelTolerance;
    if (cand_cost <= base_cost + allowance)
        return;

    std::ostringstream msg;
    msg.precision(17);
    msg << candidateName << " layout prices " << cand_cost << " under the "
        << objective.name() << " objective, worse than the " << baselineName
        << " baseline's " << base_cost << " on the same profile";
    Diagnostic &diagnostic = lint_detail::emit(
        sink, "cost.monotone", {}, msg.str(),
        "an objective-guided aligner can always fall back to the baseline "
        "chains; pricing more means its objective or the materializer "
        "regressed");
    diagnostic.arch = arch;
    diagnostic.aligner = candidateName;
    diagnostic.objective = objective.name();
}

}  // namespace balign
