/**
 * @file
 * RelaxSuite.MatchesPinnedDigest: one FNV-1a digest over every value a
 * RelaxedLayout carries (per instruction, block and procedure, plus the
 * layout-wide totals and the diagnostic), for a fixed set of inputs:
 *
 *  - the 24 suite programs under the Original, Greedy, Cost and ExtTsp
 *    layouts, each relaxed under both encoding models;
 *  - tests/corpus/relax-chain.balign at the default sweep cap (three
 *    sweeps) and at maxIterations = 1 (the unconverged diagnostic);
 *  - compile-large's program (gcc scaled to 4,000 procedures) profiled
 *    by a 1M-instruction walk.
 *
 * The digest mixes field values, not struct bytes, so it pins what the
 * relaxation computes independently of how the record stores it. A
 * change to relaxation that moves any address, form, size, displacement,
 * sweep count or diagnostic moves the digest.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "check/fuzz.h"
#include "core/align_program.h"
#include "emit/relax.h"
#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "trace/walker.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

/// 64-bit FNV-1a over little-endian 64-bit words.
class Digest
{
  public:
    void
    mix(std::uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (value >> (8 * byte)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    mix(const std::string &text)
    {
        mix(text.size());
        for (const char c : text)
            mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// The slot's branch target block and callee procedure, read through
/// accessors when the record shares one field between them and through
/// the fields otherwise.
template <typename Instr>
void
mixTargetAndCallee(Digest &digest, const Instr &instr)
{
    if constexpr (requires { instr.targetBlock(); }) {
        digest.mix(instr.targetBlock());
        digest.mix(instr.callee());
    } else {
        digest.mix(instr.targetBlock);
        digest.mix(instr.callee);
    }
}

void
mixRelaxed(Digest &digest, const RelaxedLayout &relaxed)
{
    digest.mix(static_cast<std::uint64_t>(relaxed.model));
    digest.mix(relaxed.procs.size());
    digest.mix(relaxed.instrs.size());
    digest.mix(relaxed.totalBytes);
    digest.mix(relaxed.iterations);
    digest.mix(relaxed.converged ? 1 : 0);
    digest.mix(relaxed.diagnostic);
    digest.mix(relaxed.shortBranches);
    digest.mix(relaxed.nearBranches);
    for (ProcId p = 0; p < relaxed.procs.size(); ++p) {
        const RelaxedProc &proc = relaxed.procs[p];
        digest.mix(proc.byteBase);
        digest.mix(proc.byteSize);
        digest.mix(proc.firstInstr);
        digest.mix(proc.numInstrs);
        digest.mix(proc.converged ? 1 : 0);
        digest.mix(proc.iterations);
        digest.mix(proc.shortBranches);
        digest.mix(proc.nearBranches);
        digest.mix(proc.blocks.size());
        for (const RelaxedBlock &block : proc.blocks) {
            digest.mix(block.byteAddr);
            digest.mix(block.byteSize);
            digest.mix(block.firstInstr);
            digest.mix(block.numInstrs);
        }
        // A slot's procedure is the one whose range holds it.
        for (std::uint32_t s = 0; s < proc.numInstrs; ++s) {
            const auto &instr = relaxed.instrs.at(proc.firstInstr + s);
            digest.mix(static_cast<std::uint64_t>(instr.cls));
            digest.mix(static_cast<std::uint64_t>(instr.form));
            digest.mix(instr.wordAddr);
            digest.mix(instr.byteAddr);
            digest.mix(instr.size);
            digest.mix(p);
            digest.mix(instr.block);
            mixTargetAndCallee(digest, instr);
            digest.mix(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(instr.disp)));
        }
    }
}

void
profileWith(Program &program, std::uint64_t seed, std::uint64_t budget)
{
    program.clearWeights();
    WalkOptions options;
    options.seed = seed;
    options.instrBudget = budget;
    profileProgram(program, options);
}

/// Original, Greedy, Cost (BT/FNT prices) and ExtTsp (Greedy's chains
/// under the ExtTSP objective), each relaxed under both encoding models.
void
mixLayouts(Digest &digest, const Program &program)
{
    AlignOptions exttsp;
    exttsp.objective = ObjectiveKind::ExtTsp;
    const ProgramLayout layouts[] = {
        originalLayout(program),
        alignForArch(program, AlignerKind::Greedy, Arch::BtbLarge),
        alignForArch(program, AlignerKind::Cost, Arch::BtFnt),
        alignForArch(program, AlignerKind::ExtTsp, Arch::BtbLarge, exttsp),
    };
    for (const ProgramLayout &layout : layouts)
        for (const EncodingModelKind kind : allEncodingModelKinds())
            mixRelaxed(digest,
                       relaxLayout(program, layout, encodingModel(kind)));
}

}  // namespace

TEST(RelaxSuite, MatchesPinnedDigest)
{
    Digest suite;
    for (const ProgramSpec &spec : benchmarkSuite()) {
        Program program = generateProgram(spec);
        profileWith(program, 1, 100'000);
        mixLayouts(suite, program);
    }

    Digest corpus;
    {
        const std::string path =
            std::string(BALIGN_CORPUS_DIR) + "/relax-chain.balign";
        std::optional<Repro> repro = loadRepro(path);
        ASSERT_TRUE(repro.has_value()) << "cannot load " << path;
        Program &program = repro->program;
        profileWith(program, repro->walk.seed, repro->walk.instrBudget);
        const ProgramLayout layout = originalLayout(program);
        RelaxOptions capped;
        capped.maxIterations = 1;
        for (const RelaxOptions &options : {RelaxOptions{}, capped})
            for (const EncodingModelKind kind : allEncodingModelKinds())
                mixRelaxed(corpus, relaxLayout(program, layout,
                                               encodingModel(kind), options));
    }

    Digest large;
    {
        ProgramSpec spec = suiteSpec("gcc");
        spec.name = "gcc-large";
        spec.numProcs = 4000;
        Program program = generateProgram(spec);
        profileWith(program, 1, 1'000'000);
        mixLayouts(large, program);
    }

    EXPECT_EQ(suite.value(), 0x6b3d10c46bd6d2e5ull) << std::hex << suite.value();
    EXPECT_EQ(corpus.value(), 0x4985d2f5f04bddc3ull) << std::hex << corpus.value();
    EXPECT_EQ(large.value(), 0x8b296da4b61d0572ull) << std::hex << large.value();
}
