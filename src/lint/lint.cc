#include "lint/lint.h"

#include <map>
#include <ostream>
#include <sstream>

#include "layout/chain_order.h"
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

    const std::vector<Arch> &archs =
        options.archs.empty() ? allArchs() : options.archs;
    const std::vector<AlignerKind> &kinds =
        options.kinds.empty() ? allAlignerKinds() : options.kinds;

    // Under an architecture-independent objective (ExtTSP) the prices are
    // identical on every architecture, so cost.monotone is checked once
    // instead of per architecture.
    const bool arch_dependent_objective =
        objectiveArchDependent(options.align.objective);
    bool objective_priced = false;

    for (const Arch arch : archs) {
        // alignForArch, as runConfigs aligns, so what gets linted is what
        // the experiments evaluate.
        AlignOptions align = options.align;
        // Lint reports findings; a verifier panic would mask them.
        align.verify = false;

        std::map<AlignerKind, ProgramLayout> layouts;
        for (const AlignerKind kind : kinds) {
            layouts[kind] = alignForArch(program, kind, arch, align);
            lintLayout(program, layouts[kind], archName(arch),
                       alignerKindName(kind), report.diagnostics);
            ++report.layoutsChecked;
        }

        if (!arch_dependent_objective && objective_priced)
            continue;  // same prices on every architecture: already done
        const auto greedy = layouts.find(AlignerKind::Greedy);
        if (greedy == layouts.end())
            continue;
        const CostModel model(arch);
        const auto objective = makeObjective(options.align.objective, &model);
        const std::string arch_context =
            objective->archDependent() ? archName(arch) : std::string();
        for (const AlignerKind candidate :
             {AlignerKind::Cost, AlignerKind::Try15, AlignerKind::ExtTsp}) {
            const auto found = layouts.find(candidate);
            if (found == layouts.end())
                continue;
            lintCostMonotone(program, *objective, arch_context,
                             greedy->second,
                             alignerKindName(AlignerKind::Greedy),
                             found->second, alignerKindName(candidate),
                             report.diagnostics);
            ++report.costPairsChecked;
        }
        objective_priced = true;
    }
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
