/**
 * @file
 * Verification sweep driver: proves every layout a program's experiment
 * matrix would produce.
 *
 * The layouts come from forEachSweptLayout (core/align_program.h), the
 * enumeration lint, the differ and the fuzzer share, which aligns each
 * one as runConfigs does (alignForArch), so what gets proven is what the
 * experiments evaluate. Under an architecture-independent objective
 * (ExtTSP) the sweep aligns one representative for every non-BT/FNT
 * architecture, whose certificate carries an empty arch context (BT/FNT
 * stays arch-specific through its chain ordering).
 *
 * The driver is also the injection point for the fuzzer's verify gate:
 * a LayoutMutator corrupts each layout after alignment and before
 * verification, which is how the tests prove the verifier catches every
 * obligation violation end to end.
 */

#ifndef BALIGN_VERIFY_DRIVER_H
#define BALIGN_VERIFY_DRIVER_H

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/align_program.h"
#include "emit/encoding.h"
#include "verify/certificate.h"

namespace balign {

/// Test hook: corrupts a freshly aligned layout before verification.
using LayoutMutator = std::function<void(
    ProgramLayout &, Arch, AlignerKind, ObjectiveKind)>;

/// Configuration for one verifyProgramLayouts sweep.
struct VerifyRunOptions
{
    /// The layouts to prove.
    ConfigSweep sweep;
    /// Applied to each layout between alignment and verification.
    LayoutMutator mutate;
};

/// Outcome of one sweep: a certificate per proven layout.
struct VerifyRunReport
{
    std::vector<VerifyCertificate> certificates;
    std::size_t layoutsVerified = 0;
    std::size_t failedLayouts = 0;
    /// The configuration of the first layout that failed its proof.
    std::optional<SweepConfig> firstFailure;

    bool verified() const { return failedLayouts == 0; }
    std::size_t totalChecks() const;
};

/// Proves each layout of @p options' sweep semantically equivalent to
/// @p program. A layout whose word-model proof holds also has its
/// relaxed byte layout proven under every encoding model, in the same
/// certificate.
VerifyRunReport verifyProgramLayouts(const Program &program,
                                     const VerifyRunOptions &options = {});

/// Text rendering: one line per failure plus a summary line.
std::string formatVerifyReport(const VerifyRunReport &report,
                               const std::string &programName);

/// JSON rendering: per-program report wrapping the certificates
/// (schema_version kVerifySchemaVersion).
void writeVerifyReportJson(const VerifyRunReport &report,
                           const std::string &programName,
                           std::ostream &os);

}  // namespace balign

#endif  // BALIGN_VERIFY_DRIVER_H
