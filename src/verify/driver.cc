#include "verify/driver.h"

#include <ostream>
#include <sstream>

#include "emit/relax.h"
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
    forEachSweptLayout(
        program, options.sweep,
        [&](const SweepConfig &config, ProgramLayout &layout) {
            if (options.mutate)
                options.mutate(layout, config.arch, config.kind,
                               config.objective);

            VerifyCertificate certificate;
            certificate.program = program.name();
            certificate.arch = config.archContext();
            certificate.aligner = alignerKindName(config.kind);
            certificate.objective = objectiveKindName(config.objective);
            certificate.result = verifyLayout(program, layout);

            // Relaxed byte-layout obligations ride in the same
            // certificate, but only over a layout whose word-model proof
            // holds: a corrupted layout has no meaningful byte rendition
            // (relaxation assumes a walkable order).
            if (certificate.result.verified()) {
                for (const EncodingModelKind encoding :
                     allEncodingModelKinds()) {
                    const EncodingModel &em = encodingModel(encoding);
                    const RelaxedLayout relaxed =
                        relaxLayout(program, layout, em);
                    const VerifyResult result =
                        verifyRelaxedLayout(program, layout, relaxed, em);
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
            if (!certificate.result.verified()) {
                ++report.failedLayouts;
                if (!report.firstFailure.has_value())
                    report.firstFailure = config;
            }
            report.certificates.push_back(std::move(certificate));
            return false;
        });
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
