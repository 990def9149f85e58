/**
 * @file
 * Static-analysis driver: runs the lint rule catalog (lint/rules.h) over a
 * program, its recorded edge profile, and every layout of its
 * configuration sweep (core/align_program.h: ConfigSweep, the one
 * enumeration verify, the differ and the fuzzer share) — without
 * replaying a single trace event.
 *
 * Relation to the dynamic oracle (check/differ.h): the differ catches
 * divergences only when a recorded walk is replayed through both
 * evaluators; the linter checks the invariants that hold for EVERY walk
 * (CFG well-formedness, profile flow conservation, layout legality, cost
 * monotonicity) directly on the IR. The fuzzer runs lint as a cheap
 * pre-oracle gate: a lint error on a fuzz program is a finding of its own
 * and shrinks exactly like a divergence.
 */

#ifndef BALIGN_LINT_LINT_H
#define BALIGN_LINT_LINT_H

#include <iosfwd>
#include <string>
#include <vector>

#include "core/align_program.h"
#include "lint/rules.h"

namespace balign {

/// Version of the lint-report JSON schema (the `schema_version` field).
inline constexpr int kLintSchemaVersion = 1;

/// What lintProgram checked and found.
struct LintReport
{
    std::vector<Diagnostic> diagnostics;
    /// Swept layouts built and checked.
    std::size_t layoutsChecked = 0;
    /// cost.monotone (baseline, candidate) pairs compared.
    std::size_t costPairsChecked = 0;
    /// Provenance tag of the linted program's profile ("measured" /
    /// "degraded" / "estimated"), so goldens and certificates record
    /// which profile kind produced the checked layouts.
    std::string profileProvenance = "measured";

    /// Diagnostics at exactly @p severity.
    std::size_t count(Severity severity) const;

    std::size_t errors() const { return count(Severity::Error); }
    std::size_t warnings() const { return count(Severity::Warning); }

    /// No errors (warnings and notes do not spoil a clean bill).
    bool clean() const { return errors() == 0; }
};

/// Configuration for one lintProgram run.
struct LintRunOptions
{
    /// The layouts to build and check.
    ConfigSweep sweep;
    /// Rule tunables.
    LintOptions lint;
    /// Build and check layouts (layout.* rules) and compare Cost and Try15
    /// against Greedy per swept layout group (cost.* rules;
    /// requires Greedy and at least one candidate in the sweep's kinds).
    bool layoutRules = true;
};

/**
 * Runs the full catalog: cfg.* and prof.* on @p program, then layout.* on
 * every layout of the sweep (forEachSweptLayout, aligned as the
 * experiment runner aligns), plus cost.* on each (objective,
 * architecture) group of them. The profile rules consume whatever edge
 * weights @p program carries; an unprofiled program passes them
 * vacuously.
 */
LintReport lintProgram(const Program &program,
                       const LintRunOptions &options = {});

/// Text rendering: one line per diagnostic plus a summary line.
std::string formatLintReport(const LintReport &report,
                             const std::string &programName);

/// JSON rendering (schema documented in README.md).
void writeLintReportJson(const LintReport &report,
                         const std::string &programName, std::ostream &os);

}  // namespace balign

#endif  // BALIGN_LINT_LINT_H
