/**
 * @file
 * The heavyweight half of `ctest -L disasm`: every program in the
 * 24-program benchmark suite is emitted under BOTH encoding models and
 * two aligners, then decoded by the independent disassembler and proven
 * by the byte-level obligation family (disasm/checkobj.h) — the
 * EXPERIMENTS.md "24 programs x both encodings, 0 failures" row.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "core/align_program.h"
#include "disasm/checkobj.h"
#include "emit/elf.h"
#include "emit/relax.h"
#include "sim/batch_replay.h"
#include "trace/walker.h"
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

class DisasmSuite : public testing::TestWithParam<std::string>
{
};

}  // namespace

TEST_P(DisasmSuite, EmittedObjectsValidateUnderEveryModel)
{
    Program program = generateProgram(suiteSpec(GetParam()));
    profileWith(program, 1, kSuiteBudget);
    const CostModel model(Arch::BtFnt);

    for (const AlignerKind kind :
         {AlignerKind::Original, AlignerKind::Cost}) {
        SCOPED_TRACE(alignerKindName(kind));
        const ProgramLayout layout = alignProgram(program, kind, &model);

        for (const EncodingModelKind encoding : allEncodingModelKinds()) {
            SCOPED_TRACE(encodingModelKindName(encoding));
            const EncodingModel &em = encodingModel(encoding);
            const RelaxedLayout relaxed =
                relaxLayout(program, layout, em);
            ASSERT_TRUE(relaxed.converged) << relaxed.diagnostic;

            const ObjCheckResult result = checkObject(
                program, relaxed, buildElfObject(program, relaxed, em));
            EXPECT_TRUE(result.verified())
                << result.totalFailures() << " of " << result.totalChecks()
                << " byte-level checks failed; first: "
                << formatObjFailure(result.failures.front());
            EXPECT_GT(result.totalChecks(), 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Suite24, DisasmSuite, [] {
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
