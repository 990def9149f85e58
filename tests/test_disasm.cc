/**
 * @file
 * Disassembler + object-checker unit tests (`ctest -L disasm`): the
 * independent decoder for both encoding models, the shared CFG lifter,
 * the byte-level obligation family (disasm/checkobj.h), the obj.* lint
 * rules, the fuzzer's disasm gate, and the malformed-object corpus under
 * tests/corpus/disasm/.
 *
 * The corpus fixtures are REAL checked-in object files, each corrupted
 * by direct ELF surgery (section-header / symtab / rela / .text byte
 * edits) so that exactly one intended obligation fails. Regenerate them
 * after changing the emitter, the fixture program or the aligner:
 *
 *   BALIGN_REGEN_DISASM_CORPUS=1 ./balign_disasm_tests \
 *       --gtest_filter='DisasmCorpus.Regenerate'
 *
 * CorpusBaseObjectVerifies failing is the staleness signal.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cfg/builder.h"
#include "cfg/validate.h"
#include "check/differ.h"
#include "check/fuzz.h"
#include "core/align_program.h"
#include "disasm/checkobj.h"
#include "disasm/disasm.h"
#include "emit/elf.h"
#include "emit/relax.h"
#include "lint/rules.h"
#include "sim/batch_replay.h"
#include "trace/walker.h"
#include "verify/verify.h"

using namespace balign;

namespace {

constexpr const char *kCorpusDir = BALIGN_DISASM_CORPUS_DIR;

void
profileWith(Program &program, std::uint64_t seed, std::uint64_t budget)
{
    program.clearWeights();
    WalkOptions options;
    options.seed = seed;
    options.instrBudget = budget;
    profileProgram(program, options);
}

/// Two procedures exercising every instruction class; identical shape to
/// test_emit.cc's emitBase.
Program
emitBase()
{
    Program program("emit-base");
    const ProcId main_id = program.addProc("main");
    const ProcId leaf_id = program.addProc("leaf");
    {
        CfgBuilder b(program.proc(main_id));
        const BlockId b0 = b.block(3, Terminator::CondBranch);
        const BlockId b1 = b.block(4, Terminator::UncondBranch);
        const BlockId b2 = b.block(2, Terminator::Return);
        b.taken(b0, b2, 0, 0.1);
        b.fallThrough(b0, b1, 0, 0.9);
        b.taken(b1, b0, 0);
        b.call(b0, leaf_id, 1);
    }
    {
        CfgBuilder b(program.proc(leaf_id));
        const BlockId b0 = b.block(2, Terminator::CondBranch);
        const BlockId b1 = b.block(3, Terminator::FallThrough);
        const BlockId b2 = b.block(5, Terminator::FallThrough);
        const BlockId b3 = b.block(1, Terminator::Return);
        b.taken(b0, b1, 0, 0.6);
        b.fallThrough(b0, b2, 0, 0.4);
        b.fallThrough(b1, b3, 0);
        b.fallThrough(b2, b3, 0);
    }
    validateOrDie(program);
    profileWith(program, 11, 5'000);
    return program;
}

/**
 * The corpus fixture program: emitBase with main's middle block fattened
 * to 40 instructions, pushing main's conditional branch and back-jump
 * out of rel8 range — so the variable encoding exercises BOTH forms
 * (near in main, short in leaf) plus a call relocation.
 */
Program
fixtureProgram()
{
    Program program("disasm-fixture");
    const ProcId main_id = program.addProc("main");
    const ProcId leaf_id = program.addProc("leaf");
    {
        CfgBuilder b(program.proc(main_id));
        const BlockId b0 = b.block(3, Terminator::CondBranch);
        const BlockId b1 = b.block(40, Terminator::UncondBranch);
        const BlockId b2 = b.block(2, Terminator::Return);
        b.taken(b0, b2, 0, 0.1);
        b.fallThrough(b0, b1, 0, 0.9);
        b.taken(b1, b0, 0);
        b.call(b0, leaf_id, 1);
    }
    {
        CfgBuilder b(program.proc(leaf_id));
        const BlockId b0 = b.block(2, Terminator::CondBranch);
        const BlockId b1 = b.block(3, Terminator::FallThrough);
        const BlockId b2 = b.block(5, Terminator::FallThrough);
        const BlockId b3 = b.block(1, Terminator::Return);
        b.taken(b0, b2, 0, 0.6);
        b.fallThrough(b0, b1, 0, 0.4);
        b.fallThrough(b1, b3, 0);
        b.fallThrough(b2, b3, 0);
    }
    validateOrDie(program);
    profileWith(program, 11, 5'000);
    return program;
}

ProgramLayout
alignWith(const Program &program, AlignerKind kind)
{
    const CostModel model(Arch::Fallthrough);
    return alignProgram(program, kind, &model);
}

/// A ParsedElf assembled by hand — the decoder consumes only data, so
/// tests can feed it byte streams no writer would produce.
ParsedElf
fakeElf(std::uint16_t machine, std::vector<std::uint8_t> text,
        std::vector<ElfSymbolInfo> funcs)
{
    ParsedElf elf;
    elf.ok = true;
    elf.machine = machine;
    elf.text = std::move(text);
    elf.symbols.emplace_back();  // null symbol
    ElfSymbolInfo section;
    section.info = 0x03;  // LOCAL STT_SECTION
    section.shndx = 1;
    elf.symbols.push_back(section);
    for (ElfSymbolInfo &func : funcs) {
        func.info = 0x12;  // GLOBAL STT_FUNC
        func.shndx = 1;
        elf.symbols.push_back(func);
    }
    return elf;
}

ElfSymbolInfo
funcSym(const std::string &name, std::uint64_t value, std::uint64_t size)
{
    ElfSymbolInfo sym;
    sym.name = name;
    sym.value = value;
    sym.size = size;
    return sym;
}

// ---------------------------------------------------------------------
// ELF surgery for the corpus fixtures: raw little-endian field edits at
// the documented ELF64 offsets, independent of both the writer and the
// reader.

std::uint64_t
leRead(const std::vector<std::uint8_t> &bytes, std::size_t off, unsigned n)
{
    std::uint64_t value = 0;
    for (unsigned i = 0; i < n; ++i)
        value |= static_cast<std::uint64_t>(bytes.at(off + i)) << (8 * i);
    return value;
}

void
leWrite(std::vector<std::uint8_t> &bytes, std::size_t off,
        std::uint64_t value, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        bytes.at(off + i) = static_cast<std::uint8_t>(value >> (8 * i));
}

struct SectionLoc
{
    std::size_t shdr = 0;    ///< file offset of the section header
    std::size_t offset = 0;  ///< sh_offset
    std::size_t size = 0;    ///< sh_size
    bool ok = false;
};

SectionLoc
findSection(const std::vector<std::uint8_t> &bytes, const std::string &name)
{
    SectionLoc loc;
    const std::size_t shoff = leRead(bytes, 0x28, 8);
    const std::size_t shentsize = leRead(bytes, 0x3a, 2);
    const std::size_t shnum = leRead(bytes, 0x3c, 2);
    const std::size_t shstrndx = leRead(bytes, 0x3e, 2);
    const std::size_t strOff =
        leRead(bytes, shoff + shstrndx * shentsize + 0x18, 8);
    for (std::size_t i = 0; i < shnum; ++i) {
        const std::size_t shdr = shoff + i * shentsize;
        std::size_t at = strOff + leRead(bytes, shdr, 4);
        std::string got;
        while (at < bytes.size() && bytes[at] != 0)
            got += static_cast<char>(bytes[at++]);
        if (got != name)
            continue;
        loc.shdr = shdr;
        loc.offset = leRead(bytes, shdr + 0x18, 8);
        loc.size = leRead(bytes, shdr + 0x20, 8);
        loc.ok = true;
        return loc;
    }
    return loc;
}

/// Shrinks .text's sh_size by 3 bytes, and the last procedure symbol's
/// size with it so the object still parses (the PR-9 reader rejects
/// symbol ranges escaping .text): the byte total and the symbol size no
/// longer match the relaxation fixpoint.
std::vector<std::uint8_t>
corruptTruncateText(std::vector<std::uint8_t> bytes)
{
    const SectionLoc text = findSection(bytes, ".text");
    EXPECT_TRUE(text.ok);
    EXPECT_GT(text.size, 3u);
    leWrite(bytes, text.shdr + 0x20, text.size - 3, 8);

    const SectionLoc symtab = findSection(bytes, ".symtab");
    EXPECT_TRUE(symtab.ok);
    // Elf64_Sym is 24 bytes, st_size at +16; the last procedure is the
    // final symtab entry.
    const std::size_t sizeOff = symtab.offset + symtab.size - 24 + 16;
    const std::uint64_t size = leRead(bytes, sizeOff, 8);
    EXPECT_GT(size, 3u);
    leWrite(bytes, sizeOff, size - 3, 8);
    return bytes;
}

/// Pulls the second procedure's symbol value back 2 bytes into the
/// first's range: procedure ranges no longer tile .text, and the
/// misaligned sweep decodes mid-instruction bytes.
std::vector<std::uint8_t>
corruptOverlapProcs(std::vector<std::uint8_t> bytes)
{
    const SectionLoc symtab = findSection(bytes, ".symtab");
    EXPECT_TRUE(symtab.ok);
    // Elf64_Sym is 24 bytes, st_value at +8; proc 1 is symtab entry 3.
    const std::size_t valueOff = symtab.offset + 3 * 24 + 8;
    const std::uint64_t value = leRead(bytes, valueOff, 8);
    EXPECT_GE(value, 2u);
    leWrite(bytes, valueOff, value - 2, 8);
    return bytes;
}

/**
 * Picks a short-form conditional branch whose displacement can grow by
 * one without leaving rel8 range or landing on another instruction
 * boundary, and bumps its rel8 field: the branch now targets the middle
 * of an instruction.
 */
std::vector<std::uint8_t>
corruptBranchTarget(std::vector<std::uint8_t> bytes,
                    const RelaxedLayout &relaxed)
{
    const SectionLoc text = findSection(bytes, ".text");
    EXPECT_TRUE(text.ok);
    std::set<std::uint64_t> boundaries;
    for (const RelaxedInstr &slot : relaxed.instrs)
        boundaries.insert(slot.byteAddr);
    for (const RelaxedInstr &slot : relaxed.instrs) {
        if (slot.cls != InstrClass::CondBranch ||
            slot.form != BranchForm::Short || slot.disp >= 127)
            continue;
        const std::uint64_t target = slot.byteAddr + slot.size + slot.disp;
        const RelaxedProc &proc =
            relaxed.procs[relaxed.procOf(&slot - relaxed.instrs.data())];
        if (boundaries.count(target + 1) ||
            target + 1 >= proc.byteBase + proc.byteSize)
            continue;
        bytes.at(text.offset + slot.byteAddr + 1) =
            static_cast<std::uint8_t>(slot.disp + 1);
        return bytes;
    }
    ADD_FAILURE() << "no corruptible short conditional branch in fixture";
    return bytes;
}

/// Rewrites the first relocation's addend from -4 to -8.
std::vector<std::uint8_t>
corruptRelocAddend(std::vector<std::uint8_t> bytes)
{
    const SectionLoc rela = findSection(bytes, ".rela.text");
    EXPECT_TRUE(rela.ok);
    EXPECT_GE(rela.size, 24u);
    // Elf64_Rela is 24 bytes, r_addend at +16.
    leWrite(bytes, rela.offset + 16, static_cast<std::uint64_t>(-8), 8);
    return bytes;
}

/// Swaps a short conditional branch's opcode (74) for a short jump's
/// (eb): same size, same target, different terminator class.
std::vector<std::uint8_t>
corruptJumpSwap(std::vector<std::uint8_t> bytes,
                const RelaxedLayout &relaxed)
{
    const SectionLoc text = findSection(bytes, ".text");
    EXPECT_TRUE(text.ok);
    for (const RelaxedInstr &slot : relaxed.instrs) {
        if (slot.cls != InstrClass::CondBranch ||
            slot.form != BranchForm::Short)
            continue;
        EXPECT_EQ(bytes.at(text.offset + slot.byteAddr), 0x74);
        bytes.at(text.offset + slot.byteAddr) = 0xeb;
        return bytes;
    }
    ADD_FAILURE() << "no short conditional branch in fixture";
    return bytes;
}

// ---------------------------------------------------------------------
// Corpus plumbing.

std::optional<std::vector<std::uint8_t>>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/// The fixture pipeline both regeneration and checking share: load the
/// checked-in program, re-profile it from the embedded walk parameters,
/// and relax the identity layout under the variable model.
struct CorpusContext
{
    Program program;
    RelaxedLayout relaxed;
};

std::optional<CorpusContext>
corpusContext()
{
    std::optional<Repro> repro =
        loadRepro(std::string(kCorpusDir) + "/base.balign");
    if (!repro.has_value())
        return std::nullopt;
    Program program = std::move(repro->program);
    profileWith(program, repro->walk.seed, repro->walk.instrBudget);
    const ProgramLayout layout =
        alignWith(program, AlignerKind::Original);
    RelaxedLayout relaxed = relaxLayout(
        program, layout, encodingModel(EncodingModelKind::Variable));
    return CorpusContext{std::move(program), std::move(relaxed)};
}

/// Loads a corpus object and asserts the named obligation (and only an
/// actual check run) catches it.
void
expectCorpusFailure(const char *object, ObjObligation obligation)
{
    std::optional<CorpusContext> ctx = corpusContext();
    ASSERT_TRUE(ctx.has_value()) << "missing corpus base.balign";
    const std::optional<std::vector<std::uint8_t>> bytes =
        readBytes(std::string(kCorpusDir) + "/" + object);
    ASSERT_TRUE(bytes.has_value()) << "missing corpus fixture " << object;

    const ObjCheckResult result =
        checkObject(ctx->program, ctx->relaxed, *bytes);
    EXPECT_FALSE(result.verified()) << object << " verified unexpectedly";
    EXPECT_GT(
        result.obligations[static_cast<std::size_t>(obligation)].failures,
        0u)
        << object << " did not fail " << objObligationName(obligation)
        << "; first failure: "
        << (result.failures.empty()
                ? "(none)"
                : formatObjFailure(result.failures.front()));
}

}  // namespace

// ---------------------------------------------------------------------
// Decoder.

TEST(Disasm, DecodeRoundTripsRelaxedSlotsUnderBothModels)
{
    const Program program = emitBase();
    const ProgramLayout layout = alignWith(program, AlignerKind::Cost);

    for (const EncodingModelKind kind : allEncodingModelKinds()) {
        SCOPED_TRACE(encodingModelKindName(kind));
        const EncodingModel &em = encodingModel(kind);
        const RelaxedLayout relaxed = relaxLayout(program, layout, em);
        ASSERT_TRUE(relaxed.converged) << relaxed.diagnostic;

        const ParsedElf parsed =
            parseElfObject(buildElfObject(program, relaxed, em));
        ASSERT_TRUE(parsed.ok) << parsed.error;
        const Disassembly disasm = disassembleObject(parsed);
        ASSERT_TRUE(disasm.ok) << disasm.error;
        EXPECT_EQ(disasm.model, kind);
        EXPECT_EQ(disasm.textBytes, relaxed.totalBytes);
        ASSERT_EQ(disasm.procs.size(),
                  static_cast<std::size_t>(program.numProcs()));

        for (ProcId p = 0; p < program.numProcs(); ++p) {
            const DecodedProc &proc = disasm.procs[p];
            const RelaxedProc &rp = relaxed.procs[p];
            ASSERT_TRUE(proc.ok) << proc.error;
            ASSERT_EQ(proc.instrs.size(), rp.numInstrs);
            for (std::size_t i = 0; i < proc.instrs.size(); ++i) {
                const DecodedInstr &got = proc.instrs[i];
                const RelaxedInstr &want =
                    relaxed.instrs[rp.firstInstr + i];
                ASSERT_EQ(got.addr, want.byteAddr);
                ASSERT_EQ(got.size, want.size);
                ASSERT_EQ(got.cls, want.cls);
                ASSERT_EQ(got.form, want.form);
                const bool branch = want.cls == InstrClass::CondBranch ||
                                    want.cls == InstrClass::Jump;
                ASSERT_EQ(got.hasTarget, branch);
                if (branch) {
                    ASSERT_EQ(got.disp, want.disp);
                    ASSERT_EQ(got.target(),
                              want.byteAddr + want.size + want.disp);
                } else {
                    // Call displacement fields are zero in the bytes —
                    // the relocation carries the target.
                    ASSERT_EQ(got.disp, 0);
                }
            }
        }
    }
}

TEST(Disasm, VariableRejectsUnknownOpcode)
{
    // 0x90 is a real x86 nop, but NOT in the documented variable
    // instruction set — the decoder must reject it, not guess.
    const ParsedElf elf =
        fakeElf(62, {0x90}, {funcSym("f", 0, 1)});
    const Disassembly disasm = disassembleObject(elf);
    ASSERT_TRUE(disasm.ok);
    ASSERT_EQ(disasm.procs.size(), 1u);
    EXPECT_FALSE(disasm.procs[0].ok);
    EXPECT_NE(disasm.procs[0].error.find("byte 0"), std::string::npos)
        << disasm.procs[0].error;
}

TEST(Disasm, VariableRejectsTruncatedInstruction)
{
    // e8 needs four displacement bytes; only one follows.
    const ParsedElf elf =
        fakeElf(62, {0xe8, 0x00}, {funcSym("f", 0, 2)});
    const Disassembly disasm = disassembleObject(elf);
    ASSERT_TRUE(disasm.ok);
    ASSERT_EQ(disasm.procs.size(), 1u);
    EXPECT_FALSE(disasm.procs[0].ok);
}

TEST(Disasm, FixedWordRejectsNonzeroBodyField)
{
    // Tag 0xb0 (body) with a nonzero 24-bit field.
    const ParsedElf elf =
        fakeElf(0, {0xb0, 0x01, 0x00, 0x00}, {funcSym("f", 0, 4)});
    const Disassembly disasm = disassembleObject(elf);
    ASSERT_TRUE(disasm.ok);
    ASSERT_EQ(disasm.procs.size(), 1u);
    EXPECT_FALSE(disasm.procs[0].ok);
}

TEST(Disasm, UnknownMachineIsStructural)
{
    const ParsedElf elf = fakeElf(3, {0xc3}, {funcSym("f", 0, 1)});
    const Disassembly disasm = disassembleObject(elf);
    EXPECT_FALSE(disasm.ok);
    EXPECT_FALSE(disasm.error.empty());
}

TEST(Disasm, LiftCfgRecoversLeadersAndSuccessors)
{
    // 0: body; 4: cond -> 16; 6: body; 10: jump -> 0; 12: body; 16: ret.
    DecodedProc proc;
    proc.base = 0;
    proc.size = 17;
    const auto add = [&](std::uint64_t addr, InstrClass cls, bool hasTarget,
                         std::uint64_t target) {
        DecodedInstr &instr = proc.instrs.emplace_back();
        instr.addr = addr;
        instr.cls = cls;
        instr.hasTarget = hasTarget;
        instr.disp = static_cast<std::int32_t>(target - addr);
    };
    add(0, InstrClass::Body, false, 0);
    add(4, InstrClass::CondBranch, true, 16);
    add(6, InstrClass::Body, false, 0);
    add(10, InstrClass::Jump, true, 0);
    add(12, InstrClass::Body, false, 0);
    add(16, InstrClass::Return, false, 0);

    ByteBitmap leaders;
    LiftedCfg cfg;
    liftCfg(proc, leaders, cfg);
    ASSERT_EQ(cfg.blocks.size(), 4u);
    const auto succs = [&](std::size_t b) {
        return std::vector<std::uint64_t>(cfg.blocks[b].succs.begin(),
                                          cfg.blocks[b].succs.end());
    };

    EXPECT_EQ(cfg.blocks[0].addr, 0u);
    EXPECT_EQ(cfg.blocks[0].numInstrs, 2u);
    EXPECT_EQ(cfg.blocks[0].terminator, InstrClass::CondBranch);
    EXPECT_EQ(succs(0), (std::vector<std::uint64_t>{6, 16}));

    EXPECT_EQ(cfg.blocks[1].addr, 6u);
    EXPECT_EQ(cfg.blocks[1].numInstrs, 2u);
    EXPECT_EQ(cfg.blocks[1].terminator, InstrClass::Jump);
    EXPECT_EQ(succs(1), (std::vector<std::uint64_t>{0}));

    // A body-terminated block simply runs into the next leader.
    EXPECT_EQ(cfg.blocks[2].addr, 12u);
    EXPECT_EQ(cfg.blocks[2].terminator, InstrClass::Body);
    EXPECT_EQ(succs(2), (std::vector<std::uint64_t>{16}));

    EXPECT_EQ(cfg.blocks[3].addr, 16u);
    EXPECT_EQ(cfg.blocks[3].terminator, InstrClass::Return);
    EXPECT_TRUE(cfg.blocks[3].succs.empty());
}

// ---------------------------------------------------------------------
// Object checker.

TEST(CheckObj, CleanObjectDischargesEveryObligation)
{
    const Program program = emitBase();
    const ProgramLayout layout = alignWith(program, AlignerKind::Cost);

    for (const EncodingModelKind kind : allEncodingModelKinds()) {
        SCOPED_TRACE(encodingModelKindName(kind));
        const EncodingModel &em = encodingModel(kind);
        const RelaxedLayout relaxed = relaxLayout(program, layout, em);
        ASSERT_TRUE(relaxed.converged) << relaxed.diagnostic;

        const ObjCheckResult result = checkObject(
            program, relaxed, buildElfObject(program, relaxed, em));
        EXPECT_TRUE(result.verified())
            << formatObjFailure(result.failures.front());
        // Every obligation actually ran: emitBase has branches (branch-
        // target, cfg-isomorphism) and a call (reloc-correctness).
        for (std::size_t i = 0; i < kNumObjObligations; ++i) {
            EXPECT_GT(result.obligations[i].checks, 0u)
                << objObligationName(static_cast<ObjObligation>(i));
            EXPECT_EQ(result.obligations[i].failures, 0u)
                << objObligationName(static_cast<ObjObligation>(i));
        }
    }
}

TEST(CheckObj, MachineMismatchFailsDecodeTotality)
{
    const Program program = emitBase();
    const ProgramLayout layout = alignWith(program, AlignerKind::Cost);
    const EncodingModel &fixed =
        encodingModel(EncodingModelKind::FixedWord);
    const EncodingModel &variable =
        encodingModel(EncodingModelKind::Variable);

    // Fixed-word object, variable-model expectation.
    const RelaxedLayout fixedRelaxed = relaxLayout(program, layout, fixed);
    const RelaxedLayout variableRelaxed =
        relaxLayout(program, layout, variable);
    const ObjCheckResult result =
        checkObject(program, variableRelaxed,
                    buildElfObject(program, fixedRelaxed, fixed));
    EXPECT_FALSE(result.verified());
    EXPECT_GT(result
                  .obligations[static_cast<std::size_t>(
                      ObjObligation::DecodeTotality)]
                  .failures,
              0u);
}

TEST(CheckObj, LayoutMismatchIsCaught)
{
    // An object honestly emitted for one layout must not validate
    // against another layout's relaxation.
    const Program program = emitBase();
    const EncodingModel &em = encodingModel(EncodingModelKind::Variable);
    const RelaxedLayout costRelaxed = relaxLayout(
        program, alignWith(program, AlignerKind::Cost), em);
    const RelaxedLayout originalRelaxed = relaxLayout(
        program, alignWith(program, AlignerKind::Original), em);
    ASSERT_NE(encodeText(costRelaxed, em), encodeText(originalRelaxed, em))
        << "aligners produced identical bytes; pick a different pair";

    const ObjCheckResult result =
        checkObject(program, originalRelaxed,
                    buildElfObject(program, costRelaxed, em));
    EXPECT_FALSE(result.verified());
    EXPECT_GT(result.totalFailures(), 0u);
}

TEST(CheckObj, ObligationNamesAreStable)
{
    EXPECT_STREQ(objObligationName(ObjObligation::DecodeTotality),
                 "decode-totality");
    EXPECT_STREQ(objObligationName(ObjObligation::BranchTarget),
                 "branch-target");
    EXPECT_STREQ(objObligationName(ObjObligation::RelocCorrectness),
                 "reloc-correctness");
    EXPECT_STREQ(objObligationName(ObjObligation::CfgIsomorphism),
                 "cfg-isomorphism");
    EXPECT_STREQ(objObligationName(ObjObligation::SizeAccounting),
                 "size-accounting");

    ObjFailure failure;
    failure.obligation = ObjObligation::BranchTarget;
    failure.proc = 0;
    failure.byteAddr = 42;
    failure.detail = "boom";
    EXPECT_EQ(formatObjFailure(failure),
              "check-obj[branch-target] proc=0 byte=42: boom");
}

TEST(CheckObj, CertificateJsonCarriesSchemaObligationsAndProcSizes)
{
    const Program program = emitBase();
    const EncodingModel &em = encodingModel(EncodingModelKind::Variable);
    const RelaxedLayout relaxed = relaxLayout(
        program, alignWith(program, AlignerKind::Cost), em);

    ObjCertificate cert;
    cert.program = program.name();
    cert.arch = "fallthrough";
    cert.aligner = "cost";
    cert.objective = "table-cost";
    cert.encoding = em.name();
    cert.result =
        checkObject(program, relaxed, buildElfObject(program, relaxed, em));

    std::ostringstream os;
    writeObjCertificateJson(cert, os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(json.find("\"verified\":true"), std::string::npos);
    for (std::size_t i = 0; i < kNumObjObligations; ++i) {
        EXPECT_NE(
            json.find(objObligationName(static_cast<ObjObligation>(i))),
            std::string::npos);
    }
    // The unified per-procedure size schema shared with `emit --json`.
    EXPECT_NE(json.find("\"procs\":["), std::string::npos);
    EXPECT_NE(json.find("\"text_bytes\":"), std::string::npos);
    EXPECT_NE(json.find("\"short_branches\":"), std::string::npos);
    EXPECT_NE(json.find("\"near_branches\":"), std::string::npos);
}

// ---------------------------------------------------------------------
// obj.* lint rules.

TEST(ObjLint, LongFormBranchesAreReported)
{
    const Program program = fixtureProgram();
    const EncodingModel &em = encodingModel(EncodingModelKind::Variable);
    const RelaxedLayout relaxed = relaxLayout(
        program, alignWith(program, AlignerKind::Original), em);
    ASSERT_GT(relaxed.nearBranches, 0u)
        << "fixture no longer forces a near branch";

    const ParsedElf parsed =
        parseElfObject(buildElfObject(program, relaxed, em));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const Disassembly disasm = disassembleObject(parsed);

    std::vector<Diagnostic> sink;
    lintObject(program, disasm, em.name(), sink);
    std::size_t longForm = 0;
    for (const Diagnostic &diag : sink) {
        EXPECT_NE(diag.rule, "obj.unreachable") << diag.message;
        if (diag.rule == "obj.long-form") {
            ++longForm;
            EXPECT_EQ(diag.aligner, "variable");
        }
    }
    EXPECT_EQ(longForm, relaxed.nearBranches);
}

TEST(ObjLint, UnreachableDecodedBlockIsReported)
{
    // ret; nop; ret — everything after the first return is dead bytes.
    Program program("t");
    const ProcId f = program.addProc("f");
    {
        CfgBuilder b(program.proc(f));
        b.block(1, Terminator::Return);
    }
    validateOrDie(program);

    const ParsedElf elf = fakeElf(
        62, {0xc3, 0x0f, 0x1f, 0x40, 0x00, 0xc3}, {funcSym("f", 0, 6)});
    const Disassembly disasm = disassembleObject(elf);
    ASSERT_TRUE(disasm.ok);
    ASSERT_TRUE(disasm.procs[0].ok) << disasm.procs[0].error;

    std::vector<Diagnostic> sink;
    lintObject(program, disasm, "variable", sink);
    ASSERT_EQ(sink.size(), 1u);
    EXPECT_EQ(sink[0].rule, "obj.unreachable");
    EXPECT_NE(sink[0].message.find("byte 1"), std::string::npos)
        << sink[0].message;
}

// ---------------------------------------------------------------------
// Fuzz gate.

TEST(DisasmGate, CleanOnWellFormedProgram)
{
    EXPECT_STREQ(divergenceKindName(DivergenceKind::Disasm), "disasm");
    const std::optional<Divergence> divergence =
        emitGateCheck(emitBase());
    EXPECT_FALSE(divergence.has_value())
        << formatDivergence(*divergence);
}

// ---------------------------------------------------------------------
// Malformed-object corpus.

TEST(DisasmCorpus, Regenerate)
{
    if (std::getenv("BALIGN_REGEN_DISASM_CORPUS") == nullptr)
        GTEST_SKIP() << "set BALIGN_REGEN_DISASM_CORPUS=1 to regenerate";

    Repro repro;
    repro.program = fixtureProgram();
    repro.walk.seed = 11;
    repro.walk.instrBudget = 5'000;
    saveRepro(repro, std::string(kCorpusDir) + "/base.balign");

    // Round-trip through the exact pipeline the checking tests use.
    std::optional<CorpusContext> ctx = corpusContext();
    ASSERT_TRUE(ctx.has_value());
    ASSERT_TRUE(ctx->relaxed.converged);
    ASSERT_GT(ctx->relaxed.shortBranches, 0u);
    ASSERT_GT(ctx->relaxed.nearBranches, 0u);

    const std::vector<std::uint8_t> clean = buildElfObject(
        ctx->program, ctx->relaxed,
        encodingModel(EncodingModelKind::Variable));
    ASSERT_TRUE(
        checkObject(ctx->program, ctx->relaxed, clean).verified());
    writeBytes(std::string(kCorpusDir) + "/base.o", clean);

    writeBytes(std::string(kCorpusDir) + "/truncated-text.o",
               corruptTruncateText(clean));
    writeBytes(std::string(kCorpusDir) + "/overlap.o",
               corruptOverlapProcs(clean));
    writeBytes(std::string(kCorpusDir) + "/bad-target.o",
               corruptBranchTarget(clean, ctx->relaxed));
    writeBytes(std::string(kCorpusDir) + "/bad-addend.o",
               corruptRelocAddend(clean));
    writeBytes(std::string(kCorpusDir) + "/jump-swap.o",
               corruptJumpSwap(clean, ctx->relaxed));
}

TEST(DisasmCorpus, CorpusBaseObjectVerifies)
{
    std::optional<CorpusContext> ctx = corpusContext();
    ASSERT_TRUE(ctx.has_value()) << "missing corpus base.balign";
    const std::optional<std::vector<std::uint8_t>> bytes =
        readBytes(std::string(kCorpusDir) + "/base.o");
    ASSERT_TRUE(bytes.has_value()) << "missing corpus base.o";
    const ObjCheckResult result =
        checkObject(ctx->program, ctx->relaxed, *bytes);
    EXPECT_TRUE(result.verified())
        << "corpus is stale — regenerate with "
           "BALIGN_REGEN_DISASM_CORPUS=1; first failure: "
        << formatObjFailure(result.failures.front());
}

TEST(DisasmCorpus, TruncatedTextFailsSizeAccounting)
{
    expectCorpusFailure("truncated-text.o", ObjObligation::SizeAccounting);
}

TEST(DisasmCorpus, OverlappingProceduresFailDecodeTotality)
{
    expectCorpusFailure("overlap.o", ObjObligation::DecodeTotality);
}

TEST(DisasmCorpus, NonBoundaryDisplacementFailsBranchTarget)
{
    expectCorpusFailure("bad-target.o", ObjObligation::BranchTarget);
}

TEST(DisasmCorpus, FlippedAddendFailsRelocCorrectness)
{
    expectCorpusFailure("bad-addend.o", ObjObligation::RelocCorrectness);
}

TEST(DisasmCorpus, SwappedOpcodeFailsCfgIsomorphism)
{
    expectCorpusFailure("jump-swap.o", ObjObligation::CfgIsomorphism);
}
