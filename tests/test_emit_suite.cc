/**
 * @file
 * The heavyweight half of `ctest -L emit`: every program in the
 * 24-program benchmark suite is aligned, relaxed under BOTH encoding
 * models, proven by verifyRelaxedLayout, relaxed a second time to pin
 * the fixpoint's determinism, and round-tripped through the ELF writer
 * and the self-contained reader.
 *
 * Under FixedWord the byte layout must be exactly the PR-8 word layout
 * times kInstrBytes — the invariant that makes the emission backend a
 * pure extension rather than a behaviour change.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/align_program.h"
#include "emit/elf.h"
#include "emit/relax.h"
#include "sim/batch_replay.h"
#include "trace/walker.h"
#include "verify/verify.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

constexpr std::uint64_t kSuiteBudget = 50'000;

void
profileWith(Program &program, std::uint64_t seed, std::uint64_t budget)
{
    program.clearWeights();
    WalkOptions options;
    options.seed = seed;
    options.instrBudget = budget;
    profileProgram(program, options);
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

class EmitSuite : public testing::TestWithParam<std::string>
{
};

}  // namespace

TEST_P(EmitSuite, RelaxesProvesAndRoundTripsUnderEveryModel)
{
    Program program = generateProgram(suiteSpec(GetParam()));
    profileWith(program, 1, kSuiteBudget);
    const CostModel model(Arch::BtFnt);
    const ProgramLayout layout =
        alignProgram(program, AlignerKind::Cost, &model);

    for (const EncodingModelKind kind : allEncodingModelKinds()) {
        SCOPED_TRACE(encodingModelKindName(kind));
        const EncodingModel &em = encodingModel(kind);
        const RelaxedLayout relaxed = relaxLayout(program, layout, em);
        ASSERT_TRUE(relaxed.converged) << relaxed.diagnostic;

        if (kind == EncodingModelKind::FixedWord) {
            // Byte-identical to the word model: no relaxation, one
            // sweep, every address scaled by kInstrBytes.
            EXPECT_EQ(relaxed.iterations, 1u);
            EXPECT_EQ(relaxed.totalBytes,
                      layout.totalInstrs * kInstrBytes);
            for (const RelaxedInstr &instr : relaxed.instrs) {
                ASSERT_EQ(instr.byteAddr,
                          static_cast<std::uint64_t>(instr.wordAddr) *
                              kInstrBytes);
            }
        } else {
            // Every relaxable slot settled a form, the byte total is the
            // sum of the slot sizes, and each short form saves its
            // near-minus-short delta against the all-near encoding.
            std::uint64_t relaxable = 0;
            std::uint64_t bytes = 0;
            std::uint64_t all_near = 0;
            std::uint64_t saved = 0;
            for (const RelaxedInstr &instr : relaxed.instrs) {
                bytes += instr.size;
                all_near += em.instrBytes(
                    instr.cls, instr.form == BranchForm::None
                                   ? BranchForm::None
                                   : BranchForm::Near);
                relaxable += em.relaxable(instr.cls) ? 1 : 0;
                if (instr.form == BranchForm::Short) {
                    saved += em.instrBytes(instr.cls, BranchForm::Near) -
                             em.instrBytes(instr.cls, BranchForm::Short);
                }
            }
            EXPECT_EQ(relaxed.totalBytes, bytes);
            EXPECT_EQ(relaxed.shortBranches + relaxed.nearBranches,
                      relaxable);
            EXPECT_GT(relaxable, 0u);
            EXPECT_EQ(relaxed.totalBytes, all_near - saved);
        }

        const VerifyResult proof =
            verifyRelaxedLayout(program, layout, relaxed, em);
        EXPECT_TRUE(proof.verified())
            << formatVerifyFailure(proof.failures.front());

        // Determinism: a second relaxation is byte-for-byte identical.
        EXPECT_TRUE(
            sameRelaxation(relaxed, relaxLayout(program, layout, em)));

        const ParsedElf parsed =
            parseElfObject(buildElfObject(program, relaxed, em));
        ASSERT_TRUE(parsed.ok) << parsed.error;
        EXPECT_EQ(parsed.text, encodeText(relaxed, em));
        ASSERT_EQ(parsed.symbols.size(), 2u + program.numProcs());
        for (ProcId p = 0; p < program.numProcs(); ++p) {
            EXPECT_EQ(parsed.symbols[2 + p].value,
                      relaxed.procs[p].byteBase);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Suite24, EmitSuite, [] {
    std::vector<std::string> names;
    for (const ProgramSpec &spec : benchmarkSuite())
        names.push_back(spec.name);
    return testing::ValuesIn(names);
}(), [](const testing::TestParamInfo<std::string> &param) {
    std::string name = param.param;
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
});
