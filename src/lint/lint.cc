#include "lint/lint.h"

#include <map>
#include <ostream>
#include <sstream>

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

/// cost.monotone on one swept (objective, architecture) group: every
/// candidate layout of @p group against its Greedy layout.
void
lintCostPairs(const Program &program, const SweepConfig &config,
              const std::map<AlignerKind, ProgramLayout> &group,
              LintReport &report)
{
    const auto greedy = group.find(AlignerKind::Greedy);
    if (greedy == group.end())
        return;
    const CostModel model(config.arch);
    const auto objective = makeObjective(config.objective, &model);
    for (const AlignerKind candidate :
         {AlignerKind::Cost, AlignerKind::Try15, AlignerKind::ExtTsp}) {
        const auto found = group.find(candidate);
        if (found == group.end())
            continue;
        lintCostMonotone(program, *objective, config.archContext(),
                         greedy->second, alignerKindName(AlignerKind::Greedy),
                         found->second, alignerKindName(candidate),
                         report.diagnostics);
        ++report.costPairsChecked;
    }
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

    // cost.* compares each group's candidates against its Greedy layout
    // once the group's last aligner has been swept.
    const std::vector<AlignerKind> &kinds = options.sweep.sweptKinds();
    std::map<AlignerKind, ProgramLayout> group;
    forEachSweptLayout(
        program, options.sweep,
        [&](const SweepConfig &config, ProgramLayout &layout) {
            lintLayout(program, layout, archName(config.arch),
                       alignerKindName(config.kind), report.diagnostics);
            ++report.layoutsChecked;
            group[config.kind] = std::move(layout);
            if (config.kind == kinds.back()) {
                lintCostPairs(program, config, group, report);
                group.clear();
            }
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
