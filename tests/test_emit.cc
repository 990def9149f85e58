/**
 * @file
 * Emission-backend unit tests (`ctest -L emit`): the pluggable encoding
 * models, the fragment-relaxation fixpoint, the relaxed-layout proof
 * obligations, the ELF object writer and its self-contained reader, the
 * size-aware objective, and the fuzzer's emission gate.
 *
 * The relaxation chain tests lean on the hand-minimized
 * tests/corpus/relax-chain.balign: block sizes chosen so one branch's
 * growth pushes a second branch out of short range, forcing exactly
 * three sweeps (grow, grow, clean).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "cfg/builder.h"
#include "cfg/validate.h"
#include "check/differ.h"
#include "check/fuzz.h"
#include "core/align_program.h"
#include "emit/elf.h"
#include "emit/relax.h"
#include "layout/materialize.h"
#include "objective/objective.h"
#include "objective/size_aware.h"
#include "objective/table_cost.h"
#include "sim/batch_replay.h"
#include "support/thread_pool.h"
#include "trace/walker.h"
#include "verify/verify.h"

using namespace balign;

namespace {

void
profileWith(Program &program, std::uint64_t seed, std::uint64_t budget)
{
    program.clearWeights();
    WalkOptions options;
    options.seed = seed;
    options.instrBudget = budget;
    profileProgram(program, options);
}

Program
loadCorpusProgram(const char *name)
{
    const std::string path =
        std::string(BALIGN_CORPUS_DIR) + "/" + name;
    std::optional<Repro> repro = loadRepro(path);
    if (!repro.has_value())
        ADD_FAILURE() << "cannot load " << path;
    Program program = std::move(repro->program);
    profileWith(program, repro->walk.seed, repro->walk.instrBudget);
    return program;
}

/// Two procedures with calls, conditional branches and an inserted jump —
/// every instruction class shows up in the enumeration.
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

ProgramLayout
alignedBase(const Program &program, AlignerKind kind)
{
    const CostModel model(Arch::Fallthrough);
    return alignProgram(program, kind, &model);
}

bool
sameRelaxation(const RelaxedLayout &a, const RelaxedLayout &b)
{
    if (a.totalBytes != b.totalBytes || a.iterations != b.iterations ||
        a.instrs.size() != b.instrs.size())
        return false;
    for (std::size_t i = 0; i < a.instrs.size(); ++i) {
        if (a.instrs[i].byteAddr != b.instrs[i].byteAddr ||
            a.instrs[i].form != b.instrs[i].form ||
            a.instrs[i].size != b.instrs[i].size ||
            a.instrs[i].disp != b.instrs[i].disp)
            return false;
    }
    return true;
}

std::set<Obligation>
failedObligations(const VerifyResult &result)
{
    std::set<Obligation> failed;
    for (const VerifyFailure &failure : result.failures)
        failed.insert(failure.obligation);
    return failed;
}

}  // namespace

// ---------------------------------------------------------------------
// Encoding models.

TEST(Encoding, RegistryNamesAndParseRoundTrip)
{
    for (const EncodingModelKind kind : allEncodingModelKinds()) {
        const EncodingModel &model = encodingModel(kind);
        EXPECT_EQ(model.kind(), kind);
        const auto parsed =
            parseEncodingModelKind(encodingModelKindName(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_FALSE(parseEncodingModelKind("thumb2").has_value());
    EXPECT_EQ(parseEncodingModelKind("fixed"),
              EncodingModelKind::FixedWord);
    EXPECT_EQ(parseEncodingModelKind("variable"),
              EncodingModelKind::Variable);
}

TEST(Encoding, FixedWordIsUniformAndRigid)
{
    const EncodingModel &model =
        encodingModel(EncodingModelKind::FixedWord);
    for (const InstrClass cls :
         {InstrClass::Body, InstrClass::Call, InstrClass::CondBranch,
          InstrClass::Jump, InstrClass::IndirectJump, InstrClass::Return}) {
        EXPECT_FALSE(model.relaxable(cls));
        EXPECT_EQ(model.initialForm(cls), BranchForm::None);
        EXPECT_EQ(model.instrBytes(cls, BranchForm::None), kInstrBytes);
    }
}

TEST(Encoding, VariableShortAndNearFormsDiffer)
{
    const EncodingModel &model =
        encodingModel(EncodingModelKind::Variable);
    EXPECT_TRUE(model.relaxable(InstrClass::CondBranch));
    EXPECT_TRUE(model.relaxable(InstrClass::Jump));
    EXPECT_FALSE(model.relaxable(InstrClass::Call));
    EXPECT_LT(model.instrBytes(InstrClass::CondBranch, BranchForm::Short),
              model.instrBytes(InstrClass::CondBranch, BranchForm::Near));
    // The short range is the x86 rel8 interval, measured from the end of
    // the instruction.
    EXPECT_TRUE(model.displacementFits(InstrClass::CondBranch,
                                       BranchForm::Short, 127));
    EXPECT_FALSE(model.displacementFits(InstrClass::CondBranch,
                                        BranchForm::Short, 128));
    EXPECT_TRUE(model.displacementFits(InstrClass::CondBranch,
                                       BranchForm::Short, -128));
    EXPECT_FALSE(model.displacementFits(InstrClass::CondBranch,
                                        BranchForm::Short, -129));
    EXPECT_TRUE(model.displacementFits(InstrClass::CondBranch,
                                       BranchForm::Near, 1 << 20));
}

// ---------------------------------------------------------------------
// Relaxation.

TEST(Relax, FixedWordIsTheWordModelTimesInstrBytes)
{
    const Program program = emitBase();
    for (const AlignerKind kind : allAlignerKinds()) {
        const ProgramLayout layout = alignedBase(program, kind);
        const RelaxedLayout relaxed = relaxLayout(
            program, layout, encodingModel(EncodingModelKind::FixedWord));
        EXPECT_TRUE(relaxed.converged);
        EXPECT_EQ(relaxed.iterations, 1u);
        EXPECT_EQ(relaxed.totalBytes, layout.totalInstrs * kInstrBytes);
        EXPECT_EQ(relaxed.nearBranches, 0u);
        EXPECT_EQ(relaxed.shortBranches, 0u);
        for (const RelaxedInstr &instr : relaxed.instrs) {
            EXPECT_EQ(instr.byteAddr,
                      static_cast<std::uint64_t>(instr.wordAddr) *
                          kInstrBytes);
        }
    }
}

TEST(Relax, ChainCorpusNeedsExactlyThreeSweeps)
{
    const Program program = loadCorpusProgram("relax-chain.balign");
    const ProgramLayout layout =
        alignedBase(program, AlignerKind::Original);
    const EncodingModel &model =
        encodingModel(EncodingModelKind::Variable);
    const RelaxedLayout relaxed = relaxLayout(program, layout, model);
    EXPECT_TRUE(relaxed.converged) << relaxed.diagnostic;
    // Sweep 1 grows block 1's branch, sweep 2 grows block 0's (pushed
    // out of range by the first growth), sweep 3 is clean.
    EXPECT_EQ(relaxed.iterations, 3u);
    EXPECT_EQ(relaxed.nearBranches, 2u);
    EXPECT_EQ(relaxed.shortBranches, 0u);
    const VerifyResult proof =
        verifyRelaxedLayout(program, layout, relaxed, model);
    EXPECT_TRUE(proof.verified())
        << formatVerifyFailure(proof.failures.front());
}

TEST(Relax, IterationCapYieldsDiagnosticNotALoop)
{
    const Program program = loadCorpusProgram("relax-chain.balign");
    const ProgramLayout layout =
        alignedBase(program, AlignerKind::Original);
    RelaxOptions options;
    options.maxIterations = 1;  // the chain needs 3
    const RelaxedLayout relaxed =
        relaxLayout(program, layout,
                    encodingModel(EncodingModelKind::Variable), options);
    EXPECT_FALSE(relaxed.converged);
    EXPECT_NE(relaxed.diagnostic.find("stopped after"), std::string::npos)
        << relaxed.diagnostic;
    EXPECT_NE(relaxed.diagnostic.find("main"), std::string::npos)
        << relaxed.diagnostic;
}

TEST(RelaxDeathTest, LayoutPastTheByteCapIsFatal)
{
    // One returning block whose layout claims 2^29 slots: at the
    // variable model's widest form (6 bytes) that could take 3 GiB, past
    // kMaxRelaxedBytes. The cap is checked before anything is enumerated.
    Program program("too-big");
    CfgBuilder(program.proc(program.addProc("main")))
        .block(1, Terminator::Return);
    ProgramLayout layout = originalLayout(program);
    const std::uint32_t slots = std::uint32_t{1} << 29;
    layout.procs[0].blocks[0].baseInstrs = slots;
    layout.procs[0].blocks[0].finalInstrs = slots;
    layout.procs[0].totalInstrs = slots;
    layout.totalInstrs = slots;
    const EncodingModel &variable =
        encodingModel(EncodingModelKind::Variable);
    EXPECT_EXIT(relaxLayout(program, layout, variable),
                testing::ExitedWithCode(1), "relaxLayout.*kMaxRelaxedBytes");
    EXPECT_EXIT(relaxProc(program.proc(0), layout.procs[0], variable),
                testing::ExitedWithCode(1), "relaxProc.*kMaxRelaxedBytes");

    // At 4 bytes a slot, the fixed-word model fits 2^29 slots exactly.
    EXPECT_EXIT(
        {
            layout.procs[0].blocks[0].finalInstrs = slots + 1;
            relaxLayout(program, layout,
                        encodingModel(EncodingModelKind::FixedWord));
        },
        testing::ExitedWithCode(1), "kMaxRelaxedBytes");
}

TEST(RelaxDeathTest, ZeroSweepCapIsFatal)
{
    const Program program = emitBase();
    const ProgramLayout layout = alignedBase(program, AlignerKind::Original);
    RelaxOptions options;
    options.maxIterations = 0;
    EXPECT_EXIT(relaxLayout(program, layout,
                            encodingModel(EncodingModelKind::Variable),
                            options),
                testing::ExitedWithCode(1), "maxIterations");
}

TEST(Relax, FixpointIsDeterministicAcrossRunsAndThreads)
{
    const Program program = emitBase();
    const ProgramLayout layout =
        alignedBase(program, AlignerKind::Try15);
    const EncodingModel &model =
        encodingModel(EncodingModelKind::Variable);
    const RelaxedLayout reference = relaxLayout(program, layout, model);
    EXPECT_TRUE(
        sameRelaxation(reference, relaxLayout(program, layout, model)));

    // Concurrent relaxations of the same layout agree byte for byte:
    // relaxation reads shared state but never writes it.
    ThreadPool pool(4);
    std::vector<RelaxedLayout> parallel(8);
    pool.parallelFor(parallel.size(), [&](std::size_t i) {
        parallel[i] = relaxLayout(program, layout, model);
    });
    for (const RelaxedLayout &relaxed : parallel)
        EXPECT_TRUE(sameRelaxation(reference, relaxed));
}

// ---------------------------------------------------------------------
// Relaxed-layout proof obligations.

TEST(RelaxVerify, CorruptedByteAddrBreaksRelaxContiguity)
{
    const Program program = emitBase();
    const ProgramLayout layout =
        alignedBase(program, AlignerKind::Greedy);
    const EncodingModel &model =
        encodingModel(EncodingModelKind::Variable);
    RelaxedLayout relaxed = relaxLayout(program, layout, model);
    ASSERT_FALSE(relaxed.instrs.empty());
    relaxed.instrs[1].byteAddr += 1;
    const VerifyResult proof =
        verifyRelaxedLayout(program, layout, relaxed, model);
    ASSERT_FALSE(proof.verified());
    EXPECT_TRUE(
        failedObligations(proof).count(Obligation::RelaxContiguity));
}

TEST(RelaxVerify, CorruptedDisplacementBreaksDisplacementRange)
{
    const Program program = loadCorpusProgram("relax-chain.balign");
    const ProgramLayout layout =
        alignedBase(program, AlignerKind::Original);
    const EncodingModel &model =
        encodingModel(EncodingModelKind::Variable);
    RelaxedLayout relaxed = relaxLayout(program, layout, model);
    bool corrupted = false;
    for (RelaxedInstr &instr : relaxed.instrs) {
        if (instr.cls == InstrClass::CondBranch) {
            instr.disp += 8;  // no longer target - (addr + size)
            corrupted = true;
            break;
        }
    }
    ASSERT_TRUE(corrupted);
    const VerifyResult proof =
        verifyRelaxedLayout(program, layout, relaxed, model);
    ASSERT_FALSE(proof.verified());
    EXPECT_TRUE(
        failedObligations(proof).count(Obligation::DisplacementRange));
}

TEST(RelaxVerify, ShrunkFormWhoseDisplacementEscapesIsRejected)
{
    const Program program = loadCorpusProgram("relax-chain.balign");
    const ProgramLayout layout =
        alignedBase(program, AlignerKind::Original);
    const EncodingModel &model =
        encodingModel(EncodingModelKind::Variable);
    RelaxedLayout relaxed = relaxLayout(program, layout, model);
    // Force the first near branch back to short WITHOUT recomputing
    // addresses: the stale byte layout must fail verification (either
    // the size bookkeeping or the displacement range breaks).
    bool corrupted = false;
    for (RelaxedInstr &instr : relaxed.instrs) {
        if (instr.form == BranchForm::Near) {
            instr.form = BranchForm::Short;
            corrupted = true;
            break;
        }
    }
    ASSERT_TRUE(corrupted);
    const VerifyResult proof =
        verifyRelaxedLayout(program, layout, relaxed, model);
    EXPECT_FALSE(proof.verified());
}

// ---------------------------------------------------------------------
// ELF object writer + self-contained reader.

TEST(Elf, ObjectRoundTripsThroughTheReader)
{
    const Program program = emitBase();
    const ProgramLayout layout =
        alignedBase(program, AlignerKind::Try15);
    const EncodingModel &model =
        encodingModel(EncodingModelKind::Variable);
    const RelaxedLayout relaxed = relaxLayout(program, layout, model);
    const std::vector<std::uint8_t> object =
        buildElfObject(program, relaxed, model);

    const ParsedElf parsed = parseElfObject(object);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.type, 1u);      // ET_REL
    EXPECT_EQ(parsed.machine, 62u);  // EM_X86_64 for the variable model
    ASSERT_EQ(parsed.sectionNames.size(), 6u);
    EXPECT_EQ(parsed.sectionNames[1], ".text");
    EXPECT_EQ(parsed.sectionNames[2], ".rela.text");
    EXPECT_EQ(parsed.sectionNames[3], ".symtab");

    // .text is exactly the encoder's rendition of the relaxed layout.
    EXPECT_EQ(parsed.text, encodeText(relaxed, model));
    EXPECT_EQ(parsed.text.size(), relaxed.totalBytes);

    // Null + section symbol + one GLOBAL FUNC per procedure, with byte
    // bases and sizes from the relaxation.
    ASSERT_EQ(parsed.symbols.size(), 2u + program.numProcs());
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        const ElfSymbolInfo &symbol = parsed.symbols[2 + p];
        EXPECT_EQ(symbol.name, program.proc(p).name());
        EXPECT_EQ(symbol.value, relaxed.procs[p].byteBase);
        EXPECT_EQ(symbol.size, relaxed.procs[p].byteSize);
    }

    // One PLT32 relocation per call site, at the rel32 field (opcode +1).
    std::size_t calls = 0;
    for (const RelaxedInstr &instr : relaxed.instrs) {
        if (instr.cls != InstrClass::Call)
            continue;
        ASSERT_LT(calls, parsed.relocations.size());
        const ElfRelocation &reloc = parsed.relocations[calls];
        EXPECT_EQ(reloc.offset, instr.byteAddr + 1);
        EXPECT_EQ(reloc.type, 4u);  // R_X86_64_PLT32
        EXPECT_EQ(reloc.symbol, 2u + instr.callee());
        EXPECT_EQ(reloc.addend, -4);
        ++calls;
    }
    EXPECT_EQ(calls, parsed.relocations.size());
}

TEST(Elf, FixedWordObjectUsesMachineNone)
{
    const Program program = emitBase();
    const ProgramLayout layout =
        alignedBase(program, AlignerKind::Original);
    const EncodingModel &model =
        encodingModel(EncodingModelKind::FixedWord);
    const RelaxedLayout relaxed = relaxLayout(program, layout, model);
    const ParsedElf parsed =
        parseElfObject(buildElfObject(program, relaxed, model));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.machine, 0u);  // EM_NONE: synthetic encoding
    EXPECT_EQ(parsed.text.size(), layout.totalInstrs * kInstrBytes);
}

TEST(Elf, ReaderRejectsMalformedObjects)
{
    const Program program = emitBase();
    const ProgramLayout layout =
        alignedBase(program, AlignerKind::Original);
    const EncodingModel &model =
        encodingModel(EncodingModelKind::Variable);
    const std::vector<std::uint8_t> object = buildElfObject(
        program, relaxLayout(program, layout, model), model);

    EXPECT_FALSE(parseElfObject({}).ok);
    EXPECT_FALSE(
        parseElfObject(std::vector<std::uint8_t>(16, 0x7f)).ok);

    // Truncations anywhere must be caught, never read out of bounds.
    for (const std::size_t keep :
         {std::size_t{4}, std::size_t{63}, object.size() / 2,
          object.size() - 1}) {
        const std::vector<std::uint8_t> truncated(
            object.begin(), object.begin() + keep);
        const ParsedElf parsed = parseElfObject(truncated);
        EXPECT_FALSE(parsed.ok) << "kept " << keep << " bytes";
        EXPECT_FALSE(parsed.error.empty());
    }

    // A corrupted magic is rejected outright.
    std::vector<std::uint8_t> bad_magic = object;
    bad_magic[0] = 0x7e;
    EXPECT_FALSE(parseElfObject(bad_magic).ok);
}

// ---------------------------------------------------------------------
// Size-aware objective.

TEST(SizeAware, PricesBytesOnTopOfTableCost)
{
    const Program program = emitBase();
    const CostModel model(Arch::BtFnt);
    const TableCostObjective table(model);
    const SizeAwareObjective sized(model);
    EXPECT_EQ(sized.kind(), ObjectiveKind::SizeAware);
    EXPECT_TRUE(sized.archDependent());

    const ProgramLayout layout =
        alignProgram(program, AlignerKind::Greedy, &model);
    // layoutCost = table cost + encoded bytes: strictly above the table
    // price, by exactly the relaxed byte size.
    const double table_cost = table.layoutCost(program, layout);
    const double sized_cost = sized.layoutCost(program, layout);
    const RelaxedLayout relaxed = relaxLayout(
        program, layout, encodingModel(EncodingModelKind::Variable));
    const double expected =
        table_cost + static_cast<double>(relaxed.totalBytes);
    EXPECT_NEAR(sized_cost, expected, 1e-9 * expected);
}

TEST(SizeAware, RegistryParsesAndBuildsIt)
{
    EXPECT_EQ(parseObjectiveKind("size-aware"), ObjectiveKind::SizeAware);
    EXPECT_EQ(parseObjectiveKind("size"), ObjectiveKind::SizeAware);
    EXPECT_TRUE(objectiveArchDependent(ObjectiveKind::SizeAware));
    const CostModel model(Arch::Fallthrough);
    const auto objective =
        makeObjective(ObjectiveKind::SizeAware, &model);
    ASSERT_NE(objective, nullptr);
    EXPECT_EQ(objective->name(), "size-aware");

    bool listed = false;
    for (const ObjectiveKind kind : allObjectiveKinds())
        listed |= kind == ObjectiveKind::SizeAware;
    EXPECT_TRUE(listed);
}

TEST(SizeAware, EveryAlignerProducesVerifiableLayouts)
{
    const Program program = emitBase();
    const CostModel model(Arch::BtFnt);
    AlignOptions options;
    options.objective = ObjectiveKind::SizeAware;
    for (const AlignerKind kind : allAlignerKinds()) {
        const ProgramLayout layout =
            alignProgram(program, kind, &model, options);
        const VerifyResult proof = verifyLayout(program, layout);
        EXPECT_TRUE(proof.verified())
            << alignerKindName(kind) << ": "
            << (proof.failures.empty()
                    ? std::string()
                    : formatVerifyFailure(proof.failures.front()));
    }
}

// ---------------------------------------------------------------------
// Fuzzer emission gate.

TEST(EmitGate, CleanProgramPassesAndChainCorpusPasses)
{
    EXPECT_FALSE(emitGateCheck(emitBase()).has_value());
    EXPECT_FALSE(
        emitGateCheck(loadCorpusProgram("relax-chain.balign"))
            .has_value());
}

TEST(EmitGate, DivergenceKindHasAStableName)
{
    EXPECT_STREQ(divergenceKindName(DivergenceKind::Emit), "emit");
}
