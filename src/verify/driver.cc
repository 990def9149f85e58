#include "verify/driver.h"

#include <ostream>
#include <sstream>

#include "bpred/arch.h"
#include "core/aligner.h"
#include "emit/relax.h"
#include "layout/chain_order.h"
#include "objective/objective.h"
#include "support/json.h"

namespace balign {

std::size_t
VerifyRunReport::totalChecks() const
{
    std::size_t n = 0;
    for (const VerifyCertificate &certificate : certificates)
        n += certificate.result.totalChecks();
    return n;
}

VerifyRunReport
verifyProgramLayouts(const Program &program, const VerifyRunOptions &options)
{
    VerifyRunReport report;
    const std::vector<Arch> &archs =
        options.archs.empty() ? allArchs() : options.archs;
    const std::vector<AlignerKind> &kinds =
        options.kinds.empty() ? allAlignerKinds() : options.kinds;
    const std::vector<ObjectiveKind> objectives =
        options.objectives.empty()
            ? std::vector<ObjectiveKind>{options.align.objective}
            : options.objectives;

    for (const ObjectiveKind objective : objectives) {
        // Layouts under an arch-independent objective only vary with the
        // BT/FNT chain-ordering override: verify one representative
        // (empty arch context) plus BT/FNT instead of all eight copies.
        const bool arch_dependent = objectiveArchDependent(objective);
        bool representative_done = false;
        for (const Arch arch : archs) {
            const bool btfnt = arch == Arch::BtFnt;
            if (!arch_dependent && !btfnt && representative_done)
                continue;
            if (!arch_dependent && !btfnt)
                representative_done = true;

            AlignOptions align = options.align;
            align.objective = objective;
            align.verify = false;  // this sweep IS the verification

            for (const AlignerKind kind : kinds) {
                ProgramLayout layout =
                    alignForArch(program, kind, arch, align);
                if (options.mutate)
                    options.mutate(layout, arch, kind, objective);

                VerifyCertificate certificate;
                certificate.program = program.name();
                certificate.arch =
                    arch_dependent || btfnt ? archName(arch)
                                            : std::string();
                certificate.aligner = alignerKindName(kind);
                certificate.objective = objectiveKindName(objective);
                certificate.result = verifyLayout(program, layout);

                // Relaxed byte-layout obligations ride in the same
                // certificate, but only over a layout whose word-model
                // proof holds: a corrupted layout has no meaningful byte
                // rendition (relaxation assumes a walkable order).
                if (certificate.result.verified()) {
                    for (const EncodingModelKind encoding :
                         allEncodingModelKinds()) {
                        const EncodingModel &em = encodingModel(encoding);
                        const RelaxedLayout relaxed =
                            relaxLayout(program, layout, em);
                        const VerifyResult result = verifyRelaxedLayout(
                            program, layout, relaxed, em);
                        for (std::size_t i = 0; i < kNumObligations; ++i) {
                            certificate.result.obligations[i].checks +=
                                result.obligations[i].checks;
                            certificate.result.obligations[i].failures +=
                                result.obligations[i].failures;
                        }
                        certificate.result.failures.insert(
                            certificate.result.failures.end(),
                            result.failures.begin(), result.failures.end());
                    }
                }

                ++report.layoutsVerified;
                if (!certificate.result.verified())
                    ++report.failedLayouts;
                report.certificates.push_back(std::move(certificate));
            }
        }
    }
    return report;
}

std::string
formatVerifyReport(const VerifyRunReport &report,
                   const std::string &programName)
{
    std::ostringstream out;
    for (const VerifyCertificate &certificate : report.certificates) {
        for (const VerifyFailure &failure : certificate.result.failures) {
            out << formatVerifyFailure(failure) << " ("
                << (certificate.arch.empty() ? "any-arch"
                                             : certificate.arch.c_str())
                << "/" << certificate.aligner << " under "
                << certificate.objective << ")\n";
        }
    }
    out << "verify: " << programName << ": " << report.layoutsVerified
        << " layout(s) proven, " << report.failedLayouts
        << " failed, " << report.totalChecks()
        << " obligation check(s) discharged\n";
    return out.str();
}

void
writeVerifyReportJson(const VerifyRunReport &report,
                      const std::string &programName, std::ostream &os)
{
    os << "{\"schema_version\":" << kVerifySchemaVersion
       << ",\"program\":";
    writeJsonString(programName, os);
    os << ",\"verified\":" << (report.verified() ? "true" : "false")
       << ",\"layoutsVerified\":" << report.layoutsVerified
       << ",\"failedLayouts\":" << report.failedLayouts
       << ",\"checks\":" << report.totalChecks()
       << ",\"certificates\":[";
    for (std::size_t i = 0; i < report.certificates.size(); ++i) {
        if (i > 0)
            os << ',';
        writeCertificateJson(report.certificates[i], os);
    }
    os << "]}";
}

}  // namespace balign
