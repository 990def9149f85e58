#include "verify/certificate.h"

#include <ostream>

#include "support/json.h"

namespace balign {

void
writeCertificateJson(const VerifyCertificate &certificate, std::ostream &os)
{
    const VerifyResult &result = certificate.result;
    os << "{\"schema_version\":" << kVerifySchemaVersion
       << ",\"program\":";
    writeJsonString(certificate.program, os);
    os << ",\"arch\":";
    writeJsonString(certificate.arch, os);
    os << ",\"aligner\":";
    writeJsonString(certificate.aligner, os);
    os << ",\"objective\":";
    writeJsonString(certificate.objective, os);
    os << ",\"verified\":" << (result.verified() ? "true" : "false")
       << ",\"checks\":" << result.totalChecks()
       << ",\"failures\":" << result.totalFailures()
       << ",\"obligations\":[";
    for (std::size_t i = 0; i < kNumObligations; ++i) {
        const auto obligation = static_cast<Obligation>(i);
        if (i > 0)
            os << ',';
        os << "{\"obligation\":\"" << obligationName(obligation)
           << "\",\"summary\":";
        writeJsonString(obligationSummary(obligation), os);
        os << ",\"checks\":" << result.obligations[i].checks
           << ",\"failures\":" << result.obligations[i].failures << '}';
    }
    os << "],\"failure_details\":[";
    for (std::size_t i = 0; i < result.failures.size(); ++i) {
        const VerifyFailure &failure = result.failures[i];
        if (i > 0)
            os << ',';
        os << "{\"obligation\":\"" << obligationName(failure.obligation)
           << "\",";
        writeJsonOptionalId("proc", failure.proc, kNoProc, os);
        os << ',';
        writeJsonOptionalId("block", failure.block, kNoBlock, os);
        os << ",\"detail\":";
        writeJsonString(failure.detail, os);
        os << '}';
    }
    os << "]}";
}

}  // namespace balign
