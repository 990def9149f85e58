/**
 * @file
 * The `ctest -L lint` group: static verification of the full 24-program
 * benchmark suite plus golden lint reports for the fuzz corpus.
 *
 * Suite programs are profiled (reduced budget — the linter checks
 * invariants, not simulation quality) and must lint clean: zero errors
 * and zero warnings across every architecture x aligner layout and every
 * cost pair.
 *
 * Corpus repros are replayed through the linter and their full reports
 * compared against checked-in goldens (tests/corpus/lint/<name>.lint.txt)
 * so any behaviour drift in the rules shows up as a readable text diff.
 * Regenerate with BALIGN_REGEN_LINT_GOLDEN=1 after an intentional change.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "lint/lint.h"
#include "sim/batch_replay.h"
#include "trace/walker.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

constexpr std::uint64_t kSuiteBudget = 100'000;

void
profileWith(Program &program, std::uint64_t seed, std::uint64_t budget)
{
    program.clearWeights();
    WalkOptions options;
    options.seed = seed;
    options.instrBudget = budget;
    profileProgram(program, options);
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

std::string
goldenPathFor(const std::string &corpus_path)
{
    const std::filesystem::path path(corpus_path);
    return (path.parent_path() / "lint" / (path.stem().string() +
                                           ".lint.txt")).string();
}

class LintSuite : public testing::TestWithParam<std::string>
{
};

}  // namespace

TEST_P(LintSuite, ProgramLintsClean)
{
    Program program = generateProgram(suiteSpec(GetParam()));
    profileWith(program, 1, kSuiteBudget);
    const LintReport report = lintProgram(program);
    EXPECT_EQ(report.layoutsChecked, 14u);
    EXPECT_EQ(report.costPairsChecked, 10u);
    if (report.errors() != 0 || report.warnings() != 0)
        ADD_FAILURE() << formatLintReport(report, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Suite24, LintSuite, [] {
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

TEST(LintCorpus, ReportsMatchGoldens)
{
    const bool regen = std::getenv("BALIGN_REGEN_LINT_GOLDEN") != nullptr;
    const std::vector<std::string> files = corpusFiles();
    ASSERT_GE(files.size(), 3u);
    for (const std::string &path : files) {
        const std::optional<Repro> repro = loadRepro(path);
        ASSERT_TRUE(repro.has_value()) << path;
        Program program = repro->program;
        profileWith(program, repro->walk.seed, repro->walk.instrBudget);

        const std::string name =
            std::filesystem::path(path).stem().string();
        const std::string report =
            formatLintReport(lintProgram(program), name);
        const std::string golden_path = goldenPathFor(path);

        if (regen) {
            std::filesystem::create_directories(
                std::filesystem::path(golden_path).parent_path());
            std::ofstream out(golden_path);
            out << report;
            continue;
        }
        std::ifstream in(golden_path);
        ASSERT_TRUE(in.good())
            << "missing golden " << golden_path
            << " (regenerate with BALIGN_REGEN_LINT_GOLDEN=1)";
        std::ostringstream golden;
        golden << in.rdbuf();
        EXPECT_EQ(report, golden.str()) << "lint report for " << path
                                        << " drifted from its golden";
    }
}

TEST(LintCorpus, CorpusHasNoLintErrors)
{
    for (const std::string &path : corpusFiles()) {
        const std::optional<Repro> repro = loadRepro(path);
        ASSERT_TRUE(repro.has_value()) << path;
        Program program = repro->program;
        profileWith(program, repro->walk.seed, repro->walk.instrBudget);
        const LintReport report = lintProgram(program);
        if (!report.clean()) {
            ADD_FAILURE()
                << formatLintReport(report,
                                    std::filesystem::path(path).stem()
                                        .string());
        }
    }
}
