#include "lint/lint.h"

#include <map>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "support/json.h"

namespace balign {

std::size_t
LintReport::count(Severity severity) const
{
    std::size_t n = 0;
    for (const Diagnostic &diagnostic : diagnostics) {
        if (diagnostic.severity == severity)
            ++n;
    }
    return n;
}

namespace {

/// cost.monotone on one swept Cost or Try15 layout, @p candidate of
/// @p config, against @p greedy, the Greedy layout that serves its
/// architecture.
void
lintCostPair(const Program &program, const SweepConfig &config,
             const ProgramLayout &greedy, const ProgramLayout &candidate,
             LintReport &report)
{
    const CostModel model(config.arch);
    const auto objective = makeObjective(config.objective, &model);
    lintCostMonotone(program, *objective, config.archContext(), greedy,
                     alignerKindName(AlignerKind::Greedy), candidate,
                     alignerKindName(config.kind), report.diagnostics);
    ++report.costPairsChecked;
}

}  // namespace

LintReport
lintProgram(const Program &program, const LintRunOptions &options)
{
    LintReport report;
    report.profileProvenance =
        profileProvenanceName(program.profileProvenance());
    lintCfg(program, report.diagnostics);
    const bool cfg_clean = report.clean();
    lintProfile(program, options.lint, report.diagnostics);
    // The est.* self-checks estimate a copy of the program, which is
    // only meaningful on a structurally sound CFG.
    if (cfg_clean)
        lintEstimate(program, options.lint, report.diagnostics);

    // A structurally broken CFG makes alignment meaningless (and the
    // aligners may panic on it); stop at the structural findings.
    if (!options.layoutRules || !report.clean())
        return report;

    // cost.* compares each Cost and Try15 layout against the Greedy
    // layout that serves its architecture, once both have been swept.
    std::map<LayoutClass, ProgramLayout> greedy;
    std::vector<std::pair<SweepConfig, ProgramLayout>> waiting;
    forEachSweptLayout(
        program, options.sweep,
        [&](const SweepConfig &config, ProgramLayout &layout) {
            lintLayout(program, layout, config.archContext(),
                       alignerKindName(config.kind), report.diagnostics);
            ++report.layoutsChecked;
            if (config.kind == AlignerKind::Greedy)
                greedy[config.layoutClass()] = std::move(layout);
            else if (config.kind == AlignerKind::Cost ||
                     config.kind == AlignerKind::Try15)
                waiting.emplace_back(config, std::move(layout));
            std::erase_if(waiting, [&](const auto &entry) {
                const SweepConfig &candidate = entry.first;
                const auto found = greedy.find(
                    layoutClass(AlignerKind::Greedy, candidate.objective,
                                candidate.arch));
                if (found == greedy.end())
                    return false;
                lintCostPair(program, candidate, found->second,
                             entry.second, report);
                return true;
            });
            return false;
        });
    return report;
}

std::string
formatLintReport(const LintReport &report, const std::string &programName)
{
    std::ostringstream out;
    for (const Diagnostic &diagnostic : report.diagnostics)
        out << formatDiagnostic(diagnostic) << "\n";
    out << "lint: " << programName << ": " << report.errors()
        << " error(s), " << report.warnings() << " warning(s), "
        << report.count(Severity::Note) << " note(s); "
        << report.layoutsChecked << " layout(s) and "
        << report.costPairsChecked << " cost pair(s) checked; profile "
        << report.profileProvenance << "\n";
    return out.str();
}

void
writeLintReportJson(const LintReport &report,
                    const std::string &programName, std::ostream &os)
{
    os << "{\"schema_version\":" << kLintSchemaVersion
       << ",\"program\":";
    writeJsonString(programName, os);
    os << ",\"profile\":\"" << report.profileProvenance
       << "\",\"clean\":" << (report.clean() ? "true" : "false")
       << ",\"errors\":" << report.errors()
       << ",\"warnings\":" << report.warnings()
       << ",\"notes\":" << report.count(Severity::Note)
       << ",\"layoutsChecked\":" << report.layoutsChecked
       << ",\"costPairsChecked\":" << report.costPairsChecked
       << ",\"diagnostics\":[";
    for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
        if (i > 0)
            os << ',';
        writeDiagnosticJson(report.diagnostics[i], os);
    }
    os << "]}";
}

}  // namespace balign
