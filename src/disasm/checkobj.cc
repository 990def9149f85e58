#include "disasm/checkobj.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "emit/elf.h"
#include "support/json.h"

namespace balign {

namespace {

// Writer conventions restated from the documented object format (not
// imported from elf.cc): symtab = null + section symbol + one GLOBAL
// STT_FUNC per procedure, calls relocated via R_X86_64_PLT32 one byte
// into the instruction with addend -4.
constexpr std::uint32_t kFirstProcSymbol = 2;
constexpr std::uint32_t kRelocPlt32 = 4;
constexpr std::int64_t kCallAddend = -4;
constexpr std::uint16_t kMachineNone = 0;
constexpr std::uint16_t kMachineX86_64 = 62;

template <typename... Args>
std::string
msg(Args &&...args)
{
    std::ostringstream out;
    (out << ... << args);
    return out.str();
}

std::string
renderSuccs(const std::vector<std::uint64_t> &succs)
{
    std::ostringstream out;
    out << '{';
    for (std::size_t i = 0; i < succs.size(); ++i)
        out << (i ? ", " : "") << succs[i];
    out << '}';
    return out.str();
}

/**
 * Runs every obligation over one (program, relaxed, object) triple.
 * Checking never stops at the first failure: each obligation reports all
 * instances it can still meaningfully evaluate, and per-procedure checks
 * that depend on a clean decode are skipped only for procedures whose
 * decode actually failed.
 */
class ObjChecker
{
  public:
    ObjChecker(const Program &program, const RelaxedLayout &relaxed,
               const std::vector<std::uint8_t> &objectBytes)
        : program_(program), relaxed_(relaxed), objectBytes_(objectBytes)
    {
    }

    ObjCheckResult
    run()
    {
        if (!parseAndDecode())
            return std::move(result_);
        checkDecodeTotality();
        checkBranchTargets();
        checkRelocations();
        checkCfgIsomorphism();
        checkSizeAccounting();
        return std::move(result_);
    }

  private:
    void
    check(ObjObligation obligation)
    {
        ++result_.obligations[static_cast<std::size_t>(obligation)].checks;
    }

    void
    fail(ObjObligation obligation, ProcId proc, std::uint64_t byteAddr,
         std::string detail)
    {
        ++result_.obligations[static_cast<std::size_t>(obligation)].failures;
        result_.failures.push_back(
            ObjFailure{obligation, proc, byteAddr, std::move(detail)});
    }

    /// Procedures both sides agree exist (source procs == relaxed procs
    /// by construction; the object may disagree).
    std::size_t
    pairedProcs() const
    {
        return std::min(result_.disasm.procs.size(),
                        static_cast<std::size_t>(program_.numProcs()));
    }

    bool
    parseAndDecode()
    {
        check(ObjObligation::DecodeTotality);
        elf_ = parseElfObject(objectBytes_);
        if (!elf_.ok) {
            fail(ObjObligation::DecodeTotality, kNoProc, kNoAddr,
                 msg("object does not parse: ", elf_.error));
            return false;
        }

        check(ObjObligation::DecodeTotality);
        const std::uint16_t expectMachine =
            relaxed_.model == EncodingModelKind::Variable ? kMachineX86_64
                                                          : kMachineNone;
        if (elf_.machine != expectMachine)
            fail(ObjObligation::DecodeTotality, kNoProc, kNoAddr,
                 msg("e_machine ", elf_.machine, " does not match the ",
                     encodingModelKindName(relaxed_.model),
                     " encoding model (expected ", expectMachine, ")"));

        // Decode under the layout's model regardless: a wrong e_machine
        // is already a failure, and forcing the model lets the remaining
        // obligations still report against the intended encoding.
        result_.disasm = disassembleObject(elf_, relaxed_.model);
        return true;
    }

    void
    checkDecodeTotality()
    {
        const Disassembly &disasm = result_.disasm;

        check(ObjObligation::DecodeTotality);
        if (disasm.procs.size() !=
            static_cast<std::size_t>(program_.numProcs()))
            fail(ObjObligation::DecodeTotality, kNoProc, kNoAddr,
                 msg("object defines ", disasm.procs.size(),
                     " function symbols, source has ", program_.numProcs(),
                     " procedures"));

        // Procedure ranges must tile .text exactly: cumulative bases, no
        // overlap, no gap, and nothing after the last procedure.
        std::uint64_t offset = 0;
        for (std::size_t p = 0; p < disasm.procs.size(); ++p) {
            const DecodedProc &proc = disasm.procs[p];
            const auto id = static_cast<ProcId>(p);

            check(ObjObligation::DecodeTotality);
            if (proc.base != offset)
                fail(ObjObligation::DecodeTotality, id, proc.base,
                     msg("procedure range starts at byte ", proc.base,
                         ", previous procedure ends at byte ", offset,
                         (proc.base < offset ? " (overlap)" : " (gap)")));
            offset = proc.base + proc.size;

            check(ObjObligation::DecodeTotality);
            if (!proc.ok)
                fail(ObjObligation::DecodeTotality, id, proc.base,
                     proc.error);

            if (p < pairedProcs()) {
                check(ObjObligation::DecodeTotality);
                const std::string &want = program_.proc(id).name();
                if (proc.name != want)
                    fail(ObjObligation::DecodeTotality, id, proc.base,
                         msg("symbol name \"", proc.name,
                             "\" does not match procedure \"", want, '"'));

                check(ObjObligation::DecodeTotality);
                if (proc.symbol != kFirstProcSymbol + p)
                    fail(ObjObligation::DecodeTotality, id, proc.base,
                         msg("symbol table index ", proc.symbol,
                             ", expected ", kFirstProcSymbol + p));
            }
        }

        check(ObjObligation::DecodeTotality);
        if (offset != disasm.textBytes)
            fail(ObjObligation::DecodeTotality, kNoProc, offset,
                 msg("procedure ranges cover ", offset, " of ",
                     disasm.textBytes, " .text bytes (trailing garbage)"));
    }

    void
    checkBranchTargets()
    {
        for (std::size_t p = 0; p < result_.disasm.procs.size(); ++p) {
            const DecodedProc &proc = result_.disasm.procs[p];
            if (!proc.ok)
                continue;
            const auto id = static_cast<ProcId>(p);

            std::set<std::uint64_t> boundaries;
            for (const DecodedInstr &instr : proc.instrs)
                boundaries.insert(instr.addr);

            for (const DecodedInstr &instr : proc.instrs) {
                if (!instr.hasTarget)
                    continue;
                check(ObjObligation::BranchTarget);
                if (instr.target < proc.base ||
                    instr.target >= proc.base + proc.size) {
                    fail(ObjObligation::BranchTarget, id, instr.addr,
                         msg(instrClassName(instr.cls), " displacement ",
                             instr.disp, " targets byte ", instr.target,
                             " outside the procedure range [", proc.base,
                             ", ", proc.base + proc.size, ")"));
                } else if (!boundaries.count(instr.target)) {
                    fail(ObjObligation::BranchTarget, id, instr.addr,
                         msg(instrClassName(instr.cls), " displacement ",
                             instr.disp, " targets byte ", instr.target,
                             ", which is not a decoded instruction "
                             "boundary"));
                }
            }
        }
    }

    void
    checkRelocations()
    {
        // Source truth: which byte address carries a call to which callee.
        std::map<std::uint64_t, ProcId> callees;
        for (const RelaxedInstr &slot : relaxed_.instrs)
            if (slot.cls == InstrClass::Call)
                callees.emplace(slot.byteAddr, slot.callee);

        std::map<std::uint64_t, std::vector<const ElfRelocation *>> byOffset;
        for (const ElfRelocation &reloc : elf_.relocations)
            byOffset[reloc.offset].push_back(&reloc);

        std::set<std::uint64_t> consumed;
        for (std::size_t p = 0; p < pairedProcs(); ++p) {
            const DecodedProc &proc = result_.disasm.procs[p];
            if (!proc.ok)
                continue;
            const auto id = static_cast<ProcId>(p);

            for (const DecodedInstr &instr : proc.instrs) {
                if (instr.cls != InstrClass::Call)
                    continue;
                check(ObjObligation::RelocCorrectness);
                const std::uint64_t field = instr.addr + 1;
                const auto it = byOffset.find(field);
                if (it == byOffset.end()) {
                    fail(ObjObligation::RelocCorrectness, id, instr.addr,
                         msg("call has no relocation at its displacement "
                             "field (byte ",
                             field, ')'));
                    continue;
                }
                consumed.insert(field);
                if (it->second.size() != 1) {
                    fail(ObjObligation::RelocCorrectness, id, instr.addr,
                         msg(it->second.size(),
                             " relocations at the call displacement field "
                             "(byte ",
                             field, "), expected exactly one"));
                    continue;
                }
                const ElfRelocation &reloc = *it->second.front();
                const std::string problem =
                    relocProblem(instr, reloc, callees);
                if (!problem.empty())
                    fail(ObjObligation::RelocCorrectness, id, instr.addr,
                         problem);
            }
        }

        for (const ElfRelocation &reloc : elf_.relocations) {
            if (consumed.count(reloc.offset))
                continue;
            check(ObjObligation::RelocCorrectness);
            fail(ObjObligation::RelocCorrectness, kNoProc, reloc.offset,
                 msg("relocation at byte ", reloc.offset,
                     " matches no decoded call displacement field"));
        }
    }

    /// Everything that must hold of one call's relocation; empty when it
    /// all does.
    std::string
    relocProblem(const DecodedInstr &call, const ElfRelocation &reloc,
                 const std::map<std::uint64_t, ProcId> &callees) const
    {
        if (reloc.type != kRelocPlt32)
            return msg("relocation type ", reloc.type,
                       ", expected R_X86_64_PLT32 (", kRelocPlt32, ')');
        if (reloc.addend != kCallAddend)
            return msg("relocation addend ", reloc.addend, ", expected ",
                       kCallAddend);
        if (call.disp != 0)
            return msg("relocated call displacement field holds ", call.disp,
                       ", expected zero (the relocation carries the "
                       "target)");
        const auto calleeIt = callees.find(call.addr);
        if (calleeIt == callees.end())
            return msg("no source call slot at byte ", call.addr);
        const ProcId callee = calleeIt->second;
        if (reloc.symbol != kFirstProcSymbol + callee)
            return msg("relocation names symbol ", reloc.symbol,
                       ", expected ", kFirstProcSymbol + callee,
                       " (callee procedure ", callee, ')');
        if (reloc.symbol < elf_.symbols.size() &&
            elf_.symbols[reloc.symbol].name != program_.proc(callee).name())
            return msg("relocation symbol \"",
                       elf_.symbols[reloc.symbol].name,
                       "\" does not name callee procedure \"",
                       program_.proc(callee).name(), '"');
        return {};
    }

    void
    checkCfgIsomorphism()
    {
        for (std::size_t p = 0; p < pairedProcs(); ++p) {
            const DecodedProc &proc = result_.disasm.procs[p];
            if (!proc.ok)
                continue;
            const auto id = static_cast<ProcId>(p);
            const RelaxedProc &rp = relaxed_.procs[p];

            const LiftedCfg decoded = liftCfg(cfgInstrsFromDecoded(proc),
                                              proc.base, proc.size);
            const LiftedCfg source =
                liftCfg(cfgInstrsFromRelaxed(relaxed_, id), rp.byteBase,
                        rp.byteSize);

            check(ObjObligation::CfgIsomorphism);
            if (!decoded.blocks.empty() &&
                decoded.blocks.front().addr != proc.base)
                fail(ObjObligation::CfgIsomorphism, id, proc.base,
                     msg("decoded entry block starts at byte ",
                         decoded.blocks.front().addr,
                         ", expected the procedure base ", proc.base));

            check(ObjObligation::CfgIsomorphism);
            if (decoded.blocks.size() != source.blocks.size()) {
                fail(ObjObligation::CfgIsomorphism, id, proc.base,
                     msg("decoded graph has ", decoded.blocks.size(),
                         " blocks, laid-out graph has ",
                         source.blocks.size()));
            }

            const std::size_t blocks =
                std::min(decoded.blocks.size(), source.blocks.size());
            for (std::size_t b = 0; b < blocks; ++b) {
                const LiftedBlock &got = decoded.blocks[b];
                const LiftedBlock &want = source.blocks[b];
                check(ObjObligation::CfgIsomorphism);
                if (got.addr != want.addr) {
                    fail(ObjObligation::CfgIsomorphism, id, got.addr,
                         msg("block ", b, " starts at byte ", got.addr,
                             ", laid-out graph expects byte ", want.addr));
                } else if (got.numInstrs != want.numInstrs) {
                    fail(ObjObligation::CfgIsomorphism, id, got.addr,
                         msg("block ", b, " decodes to ", got.numInstrs,
                             " instructions, laid-out graph expects ",
                             want.numInstrs));
                } else if (got.terminator != want.terminator) {
                    fail(ObjObligation::CfgIsomorphism, id, got.addr,
                         msg("block ", b, " terminates in ",
                             instrClassName(got.terminator),
                             ", laid-out graph expects ",
                             instrClassName(want.terminator)));
                } else if (got.succs != want.succs) {
                    fail(ObjObligation::CfgIsomorphism, id, got.addr,
                         msg("block ", b, " successors ",
                             renderSuccs(got.succs),
                             " differ from the laid-out graph's ",
                             renderSuccs(want.succs)));
                }
            }
        }
    }

    void
    checkSizeAccounting()
    {
        check(ObjObligation::SizeAccounting);
        if (result_.disasm.textBytes != relaxed_.totalBytes)
            fail(ObjObligation::SizeAccounting, kNoProc, kNoAddr,
                 msg(".text holds ", result_.disasm.textBytes,
                     " bytes, relaxation fixpoint accounts for ",
                     relaxed_.totalBytes));

        for (std::size_t p = 0; p < pairedProcs(); ++p) {
            const DecodedProc &proc = result_.disasm.procs[p];
            const auto id = static_cast<ProcId>(p);
            const RelaxedProc &rp = relaxed_.procs[p];

            check(ObjObligation::SizeAccounting);
            if (proc.base != rp.byteBase)
                fail(ObjObligation::SizeAccounting, id, proc.base,
                     msg("symbol value ", proc.base,
                         ", relaxed byte base ", rp.byteBase));

            check(ObjObligation::SizeAccounting);
            if (proc.size != rp.byteSize)
                fail(ObjObligation::SizeAccounting, id, proc.base,
                     msg("symbol size ", proc.size, ", relaxed byte size ",
                         rp.byteSize));

            if (!proc.ok)
                continue;

            check(ObjObligation::SizeAccounting);
            if (proc.instrs.size() != rp.numInstrs)
                fail(ObjObligation::SizeAccounting, id, proc.base,
                     msg("procedure decodes to ", proc.instrs.size(),
                         " instructions, relaxation placed ", rp.numInstrs));

            const std::size_t slots = std::min(
                proc.instrs.size(), static_cast<std::size_t>(rp.numInstrs));
            for (std::size_t i = 0; i < slots; ++i) {
                const DecodedInstr &got = proc.instrs[i];
                const RelaxedInstr &want =
                    relaxed_.instrs[rp.firstInstr + i];
                check(ObjObligation::SizeAccounting);
                if (got.addr != want.byteAddr) {
                    fail(ObjObligation::SizeAccounting, id, got.addr,
                         msg("instruction ", i, " decodes at byte ",
                             got.addr, ", relaxation placed it at byte ",
                             want.byteAddr));
                } else if (got.size != want.size) {
                    fail(ObjObligation::SizeAccounting, id, got.addr,
                         msg("instruction ", i, " decodes to ",
                             unsigned{got.size},
                             " bytes, relaxation sized it at ",
                             unsigned{want.size}));
                }
            }
        }
    }

    const Program &program_;
    const RelaxedLayout &relaxed_;
    const std::vector<std::uint8_t> &objectBytes_;
    ParsedElf elf_;
    ObjCheckResult result_;
};

}  // namespace

const char *
objObligationName(ObjObligation obligation)
{
    switch (obligation) {
      case ObjObligation::DecodeTotality: return "decode-totality";
      case ObjObligation::BranchTarget: return "branch-target";
      case ObjObligation::RelocCorrectness: return "reloc-correctness";
      case ObjObligation::CfgIsomorphism: return "cfg-isomorphism";
      case ObjObligation::SizeAccounting: return "size-accounting";
    }
    return "?";
}

const char *
objObligationSummary(ObjObligation obligation)
{
    switch (obligation) {
      case ObjObligation::DecodeTotality:
        return "the object parses, every procedure byte range decodes "
               "cleanly, and procedure ranges tile .text with no overlap "
               "or trailing garbage";
      case ObjObligation::BranchTarget:
        return "every decoded branch displacement lands inside its "
               "procedure on a decoded instruction boundary";
      case ObjObligation::RelocCorrectness:
        return "each decoded call carries exactly one R_X86_64_PLT32 "
               "relocation naming the source callee with addend -4 and a "
               "zero displacement field, and no relocation is left over";
      case ObjObligation::CfgIsomorphism:
        return "the basic-block graph lifted from the decoded bytes is "
               "identical to the graph lifted from the relaxed layout, "
               "entry first";
      case ObjObligation::SizeAccounting:
        return "byte totals, symbol values and sizes, and per-slot "
               "addresses and sizes agree with the relaxation fixpoint";
    }
    return "?";
}

std::size_t
ObjCheckResult::totalChecks() const
{
    std::size_t total = 0;
    for (const ObjObligationRecord &record : obligations)
        total += record.checks;
    return total;
}

std::string
formatObjFailure(const ObjFailure &failure)
{
    std::ostringstream out;
    out << "check-obj[" << objObligationName(failure.obligation) << ']';
    if (failure.proc != kNoProc)
        out << " proc=" << failure.proc;
    if (failure.byteAddr != kNoAddr)
        out << " byte=" << failure.byteAddr;
    out << ": " << failure.detail;
    return out.str();
}

ObjCheckResult
checkObject(const Program &program, const RelaxedLayout &relaxed,
            const std::vector<std::uint8_t> &objectBytes)
{
    return ObjChecker(program, relaxed, objectBytes).run();
}

void
writeObjCertificateJson(const ObjCertificate &certificate, std::ostream &os)
{
    const ObjCheckResult &result = certificate.result;
    os << "{\"schema_version\":" << kCheckObjSchemaVersion
       << ",\"program\":";
    writeJsonString(certificate.program, os);
    os << ",\"arch\":";
    writeJsonString(certificate.arch, os);
    os << ",\"aligner\":";
    writeJsonString(certificate.aligner, os);
    os << ",\"objective\":";
    writeJsonString(certificate.objective, os);
    os << ",\"encoding\":";
    writeJsonString(certificate.encoding, os);
    os << ",\"object\":";
    writeJsonString(certificate.object, os);
    os << ",\"verified\":" << (result.verified() ? "true" : "false")
       << ",\"checks\":" << result.totalChecks()
       << ",\"failures\":" << result.totalFailures()
       << ",\"obligations\":[";
    for (std::size_t i = 0; i < kNumObjObligations; ++i) {
        const auto obligation = static_cast<ObjObligation>(i);
        if (i > 0)
            os << ',';
        os << "{\"obligation\":\"" << objObligationName(obligation)
           << "\",\"summary\":";
        writeJsonString(objObligationSummary(obligation), os);
        os << ",\"checks\":" << result.obligations[i].checks
           << ",\"failures\":" << result.obligations[i].failures << '}';
    }
    os << "],\"failure_details\":[";
    for (std::size_t i = 0; i < result.failures.size(); ++i) {
        const ObjFailure &failure = result.failures[i];
        if (i > 0)
            os << ',';
        os << "{\"obligation\":\"" << objObligationName(failure.obligation)
           << "\",";
        writeJsonOptionalId("proc", failure.proc, kNoProc, os);
        os << ',';
        writeJsonOptionalId("byte_addr", failure.byteAddr, kNoAddr, os);
        os << ",\"detail\":";
        writeJsonString(failure.detail, os);
        os << '}';
    }
    // Per-procedure sizes measured from the DECODED object.
    std::vector<ProcSizeRow> rows;
    for (const DecodedProc &proc : result.disasm.procs) {
        ProcSizeRow &row = rows.emplace_back();
        row.name = proc.name;
        row.textBytes = proc.size;
        row.instrs = proc.instrs.size();
        for (const DecodedInstr &instr : proc.instrs) {
            if (instr.form == BranchForm::Short)
                ++row.shortBranches;
            else if (instr.form == BranchForm::Near)
                ++row.nearBranches;
        }
    }
    os << "],";
    writeProcSizesJson(rows, os);
    os << '}';
}

void
writeProcSizesJson(const std::vector<ProcSizeRow> &rows, std::ostream &os)
{
    os << "\"procs\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ProcSizeRow &row = rows[i];
        if (i > 0)
            os << ',';
        os << "{\"name\":";
        writeJsonString(row.name, os);
        os << ",\"text_bytes\":" << row.textBytes
           << ",\"instrs\":" << row.instrs
           << ",\"short_branches\":" << row.shortBranches
           << ",\"near_branches\":" << row.nearBranches << '}';
    }
    os << ']';
}

}  // namespace balign
