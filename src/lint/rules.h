/**
 * @file
 * Lint rule registry and the rule functions themselves.
 *
 * Every rule has a stable string id (pinned by the injection tests in
 * tests/test_lint.cc), a default severity and a one-line summary. The
 * rules are grouped by the artifact they verify:
 *
 *  - cfg.*     Program structure alone (no profile, no layout).
 *  - prof.*    The edge profile recorded into the Program.
 *  - layout.*  A concrete ProgramLayout against its Program.
 *  - cost.*    Cost-model relations between whole layouts.
 *
 * Rule functions APPEND diagnostics; they never clear the sink. All rules
 * other than cost.monotone are pure structural scans — no trace is
 * replayed and no layout is built by the rule itself.
 */

#ifndef BALIGN_LINT_RULES_H
#define BALIGN_LINT_RULES_H

#include <string_view>
#include <vector>

#include "cfg/program.h"
#include "layout/layout_result.h"
#include "lint/diagnostic.h"
#include "objective/objective.h"
#include "trace/walker.h"

namespace balign {

/// Registry entry for one rule.
struct RuleInfo
{
    const char *id;
    Severity severity;
    const char *summary;
};

/// Every rule the linter knows, in catalog order.
const std::vector<RuleInfo> &allLintRules();

/// Looks up a rule by id; nullptr when unknown.
const RuleInfo *findLintRule(std::string_view id);

/// Tunables for the profile rules.
struct LintOptions
{
    /**
     * Allowed program-wide profile-flow excess (sum over interior blocks
     * of inflow - outflow). A truncated walk leaves one unfinished
     * activation per call-stack frame, so the bound defaults to the
     * walker's depth cap plus the final block. A profile merged from k
     * walks needs k times that (profile/degrade.h).
     */
    Weight flowSlack = kMaxCallDepth + 1;
};

// ---------------------------------------------------------------------
// cfg.* — CFG well-formedness.

/// Runs every cfg.* rule over @p program.
void lintCfg(const Program &program, std::vector<Diagnostic> &sink);

/**
 * Runs only the Error-severity cfg.* rules (entry, edge-targets,
 * terminator-arity, call-site, block-size) over @p program: the engine
 * behind cfg/validate.h. It skips the advisory rules and the dominator
 * and loop analysis they need.
 */
void lintCfgErrors(const Program &program, std::vector<Diagnostic> &sink);

/**
 * The per-procedure half of lintCfgErrors over @p proc alone. @p program
 * may be null, in which case the checks that need the whole program
 * (call-site callee existence) are skipped.
 */
void lintCfgProcErrors(const Procedure &proc, const Program *program,
                       std::vector<Diagnostic> &sink);

// ---------------------------------------------------------------------
// prof.* — edge-profile consistency. Meaningful after profiling; all
// rules pass vacuously on an unprofiled (all-zero-weight) program.

/// Runs every prof.* rule over @p program.
void lintProfile(const Program &program, const LintOptions &options,
                 std::vector<Diagnostic> &sink);

// ---------------------------------------------------------------------
// est.* — static-estimator self-checks: estimate a COPY of @p program
// (estimate/estimate.h) and verify the synthesized branch probabilities
// are distributions, the materialized integer profile conserves flow
// within the stranding budget, and irreducible fallbacks are surfaced
// as notes. Requires a structurally sound CFG (run cfg.* first).

/// Runs every est.* rule against a fresh estimate of @p program.
void lintEstimate(const Program &program, const LintOptions &options,
                  std::vector<Diagnostic> &sink);

// ---------------------------------------------------------------------
// layout.* — legality of one materialized layout. @p arch / @p aligner
// are attached to the diagnostics as context (may be empty).

/// Runs every layout.* rule over (@p program, @p layout).
void lintLayout(const Program &program, const ProgramLayout &layout,
                const std::string &arch, const std::string &aligner,
                std::vector<Diagnostic> &sink);

// ---------------------------------------------------------------------
// obj.* — findings over a decoded object (disasm/disasm.h). Unlike the
// checkobj obligations these are advisory: they describe properties of
// the emitted bytes (unreachable decoded blocks, branches stuck in
// their near form) rather than source/binary disagreements. Run from
// `balign check-obj`, not from lintProgram — they need an object.

struct Disassembly;

/// Runs every obj.* rule over @p disasm. @p encoding is attached to the
/// diagnostics as context (the aligner field, which check-obj reuses).
void lintObject(const Program &program, const Disassembly &disasm,
                const std::string &encoding,
                std::vector<Diagnostic> &sink);

// ---------------------------------------------------------------------
// cost.* — objective monotonicity. A candidate layout (Cost / Try15)
// must not price more than the baseline (Greedy) under the active
// alignment objective; prices are recomputed independently by the
// objective's layoutCost, not read from any aligner.

/// Checks the objective price of @p candidate against @p baseline.
/// @p arch is diagnostic context only (empty for architecture-independent
/// objectives).
void lintCostMonotone(const Program &program,
                      const AlignmentObjective &objective,
                      const std::string &arch, const ProgramLayout &baseline,
                      const char *baselineName,
                      const ProgramLayout &candidate,
                      const char *candidateName,
                      std::vector<Diagnostic> &sink);

}  // namespace balign

#endif  // BALIGN_LINT_RULES_H
