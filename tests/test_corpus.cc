/**
 * @file
 * Corpus replay: every checked-in repro under tests/corpus/ must load and
 * diff clean (oracle == production) across all architectures and aligners.
 *
 * Corpus files are either shrunk fuzzer finds (after the underlying bug
 * was fixed, the file stays as a regression test) or hand-minimized
 * degenerate shapes worth pinning forever. Each file carries its walk
 * parameters in the `# balign-fuzz-walk` magic comment; `balign repro
 * <file>` replays one interactively.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "check/differ.h"
#include "check/fuzz.h"

using namespace balign;

namespace {

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

}  // namespace

TEST(Corpus, HasSeedPrograms)
{
    EXPECT_GE(corpusFiles().size(), 3u)
        << "tests/corpus/ must ship at least three repro programs";
}

TEST(Corpus, EveryFileLoads)
{
    for (const auto &path : corpusFiles()) {
        const auto repro = loadRepro(path);
        ASSERT_TRUE(repro.has_value()) << path;
        EXPECT_GE(repro->walk.instrBudget, 1u) << path;
    }
}

TEST(Corpus, EveryFileDiffsClean)
{
    DiffOptions options;
    options.maxDivergences = 1;
    // Replay the full fuzzer sweep: every aligner, every objective.
    options.sweep.objectives = allObjectiveKinds();
    for (const auto &path : corpusFiles()) {
        const auto repro = loadRepro(path);
        ASSERT_TRUE(repro.has_value()) << path;
        const auto divergences =
            diffProgram(repro->program, repro->walk, options);
        for (const auto &divergence : divergences)
            ADD_FAILURE() << path << "\n" << formatDivergence(divergence);
    }
}
