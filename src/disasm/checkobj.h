/**
 * @file
 * Binary-level translation validator: proves an emitted object's bytes
 * mean what the RelaxedLayout says.
 *
 * PR 5's verifier stops at the abstract layout and PR 9's obligations
 * stop at the relaxation fixpoint; this module closes the loop at the
 * byte level. It decodes the object with the independent disassembler
 * (disasm/disasm.h — zero code shared with the emit-side writers) and
 * discharges a new obligation family against the source program and the
 * relaxed layout:
 *
 *  - decode-totality    the object parses, every procedure's byte range
 *                       decodes cleanly end to end, procedure ranges
 *                       tile .text exactly (no gap, no overlap, no
 *                       trailing garbage), and the symbol table matches
 *                       the source procedures one-for-one
 *  - branch-target      every decoded displacement lands inside its own
 *                       procedure on a decoded instruction boundary
 *                       (which the CFG lifter then necessarily makes a
 *                       block head)
 *  - reloc-correctness  each decoded call carries exactly one
 *                       R_X86_64_PLT32 relocation at the displacement
 *                       field, naming the source callee's symbol with
 *                       the writer's addend convention (-4) and a zero
 *                       field in the bytes; no relocation is left over
 *  - cfg-isomorphism    the basic-block graph lifted from the decoded
 *                       bytes is identical — block addresses, instruction
 *                       counts, terminator classes, successor sets,
 *                       entry first — to the graph lifted from the
 *                       relaxed layout by the same leader rules
 *  - size-accounting    byte totals, symbol values/sizes and per-slot
 *                       addresses/sizes agree with the relaxation
 *                       fixpoint instruction for instruction
 *
 * Like the PR-5 verifier, checking is total (malformed objects produce
 * failures, never a panic), every failure names its obligation, and the
 * result serializes to a machine-checkable certificate JSON with its own
 * schema_version.
 */

#ifndef BALIGN_DISASM_CHECKOBJ_H
#define BALIGN_DISASM_CHECKOBJ_H

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cfg/program.h"
#include "disasm/disasm.h"
#include "emit/relax.h"

namespace balign {

/// One byte-level proof obligation the object checker discharges.
enum class ObjObligation : std::uint8_t {
    DecodeTotality,
    BranchTarget,
    RelocCorrectness,
    CfgIsomorphism,
    SizeAccounting,
};

inline constexpr std::size_t kNumObjObligations = 5;

/// Stable kebab-case obligation name (certificate schema).
const char *objObligationName(ObjObligation obligation);

/// One-line statement of what the obligation proves.
const char *objObligationSummary(ObjObligation obligation);

/// One unproven obligation instance.
struct ObjFailure
{
    ObjObligation obligation = ObjObligation::DecodeTotality;
    ProcId proc = kNoProc;          ///< kNoProc for whole-object failures
    std::uint64_t byteAddr = kNoAddr;  ///< kNoAddr when not address-bound
    std::string detail;
};

/// Check/failure tally for one obligation.
struct ObjObligationRecord
{
    std::size_t checks = 0;
    std::size_t failures = 0;
};

/// Outcome of validating one object against its source + relaxed layout.
struct ObjCheckResult
{
    /// Indexed by ObjObligation.
    std::array<ObjObligationRecord, kNumObjObligations> obligations{};

    /// Every failed obligation instance, in discovery order.
    std::vector<ObjFailure> failures;

    /// The decode the checks ran against (kept for lint and the CLI's
    /// per-procedure reporting).
    Disassembly disasm;

    bool verified() const { return failures.empty(); }
    std::size_t totalChecks() const;
    std::size_t totalFailures() const { return failures.size(); }
};

/// One-line rendering:
/// `check-obj[branch-target] proc=0 byte=42: detail`
std::string formatObjFailure(const ObjFailure &failure);

/**
 * Validates @p objectBytes (a serialized relocatable object, e.g. from
 * buildElfObject or read back from disk) against @p program and the
 * @p relaxed layout that allegedly produced it. The object is parsed and
 * decoded internally; the encoding model is taken from relaxed.model and
 * cross-checked against the object's e_machine.
 */
ObjCheckResult checkObject(const Program &program,
                           const RelaxedLayout &relaxed,
                           const std::vector<std::uint8_t> &objectBytes);

/// Version of the check-obj certificate JSON schema.
inline constexpr int kCheckObjSchemaVersion = 1;

/// One object's validation outcome plus its provenance.
struct ObjCertificate
{
    std::string program;
    std::string arch;
    std::string aligner;
    std::string objective;
    std::string encoding;  ///< encoding model name
    std::string object;    ///< object path, empty for in-memory checks
    ObjCheckResult result;
};

/// One entry of the per-procedure size array ("procs") shared by check-obj
/// certificates, measured from the decoded object, and `balign emit
/// --json`, measured from the relaxed layout.
struct ProcSizeRow
{
    std::string name;
    std::uint64_t textBytes = 0;
    std::uint64_t instrs = 0;
    std::uint64_t shortBranches = 0;
    std::uint64_t nearBranches = 0;
};

/// Writes `"procs":[{"name":...,"text_bytes":...,"instrs":...,
/// "short_branches":...,"near_branches":...},...]`; the caller owns the
/// enclosing object.
void writeProcSizesJson(const std::vector<ProcSizeRow> &rows,
                        std::ostream &os);

/**
 * Writes @p certificate as one JSON object, the byte-level sibling of
 * the PR-5 verify certificate: schema_version, provenance (program /
 * arch / aligner / objective / encoding / object), verified flag, per-
 * obligation check/failure tallies and full failure details.
 */
void writeObjCertificateJson(const ObjCertificate &certificate,
                             std::ostream &os);

}  // namespace balign

#endif  // BALIGN_DISASM_CHECKOBJ_H
