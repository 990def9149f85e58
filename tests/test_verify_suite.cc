/**
 * @file
 * The `ctest -L verify` group: translation validation of the full
 * 24-program benchmark suite and the fuzz corpus.
 *
 * Every suite program is profiled (reduced budget — the verifier proves
 * layout equivalence, not simulation quality) and swept through
 * verifyProgramLayouts under every objective: all 72 layouts per program
 * (8 architectures x 4 aligners under each arch-dependent objective —
 * table-cost and size-aware — plus the deduplicated representative +
 * BT/FNT x 4 under exttsp) must prove with zero failed obligations,
 * including the relaxed byte-layout obligations under both encoding
 * models. Corpus repros — including the shrunk divergence findings — get
 * the same treatment: whatever bug a repro pins, its layouts must still
 * be faithful translations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "objective/objective.h"
#include "sim/batch_replay.h"
#include "trace/walker.h"
#include "verify/driver.h"
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

VerifyRunOptions
fullMatrix()
{
    VerifyRunOptions options;
    options.sweep.objectives = allObjectiveKinds();
    return options;
}

std::vector<std::string>
corpusFiles()
{
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(BALIGN_CORPUS_DIR)) {
        if (entry.path().extension() == ".balign")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

class VerifySuite : public testing::TestWithParam<std::string>
{
};

}  // namespace

TEST_P(VerifySuite, AllLayoutsProve)
{
    Program program = generateProgram(suiteSpec(GetParam()));
    profileWith(program, 1, kSuiteBudget);
    const VerifyRunReport report =
        verifyProgramLayouts(program, fullMatrix());
    EXPECT_EQ(report.layoutsVerified, 72u);
    EXPECT_EQ(report.certificates.size(), 72u);
    if (!report.verified())
        ADD_FAILURE() << formatVerifyReport(report, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Suite24, VerifySuite, [] {
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

TEST(VerifyCorpus, EveryReproLayoutProves)
{
    const std::vector<std::string> files = corpusFiles();
    ASSERT_GE(files.size(), 3u);
    for (const std::string &path : files) {
        const std::optional<Repro> repro = loadRepro(path);
        ASSERT_TRUE(repro.has_value()) << path;
        Program program = repro->program;
        profileWith(program, repro->walk.seed, repro->walk.instrBudget);
        const VerifyRunReport report =
            verifyProgramLayouts(program, fullMatrix());
        if (!report.verified()) {
            ADD_FAILURE()
                << formatVerifyReport(
                       report,
                       std::filesystem::path(path).stem().string());
        }
    }
}
