/**
 * @file
 * The `ctest -L replay` group: the batched replay engine behind
 * runConfigs, pinned to the independent oracle over the full 24-program
 * benchmark suite and the fuzz corpus.
 *
 * Every suite program is prepared with a reduced trace budget and run
 * through runConfigs over the full configuration matrix (8 architectures
 * x 5 aligners under table-cost plus the ExtTSP-priced guided aligners).
 * Each cell's layout is then rebuilt the way runConfigs builds it and
 * replayed through an OracleEvaluator (check/oracle.h): the two engines'
 * EvalResult counters must be byte-identical for every cell, and so must
 * origInstrs and the derived relative CPI. Corpus repros (including shrunk fuzzer
 * findings) get the same treatment, so any program shape that ever broke
 * the pipeline also pins the batched engine. New engine divergences found
 * by the fuzzer land here automatically as DivergenceKind::Batch repro
 * files.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "check/differ.h"
#include "check/fuzz.h"
#include "check/oracle.h"
#include "sim/cpi.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

constexpr std::uint64_t kSuiteBudget = 100'000;

std::vector<std::uint64_t>
counters(const EvalResult &r)
{
    return {r.instrs,     r.misfetches, r.mispredicts,
            r.condExec,   r.condTaken,  r.condMispredicts,
            r.uncondExec, r.callExec,   r.returnExec,
            r.returnMispredicts, r.indirectExec,
            r.btbHits,    r.btbLookups};
}

std::vector<ExperimentConfig>
fullConfigMatrix()
{
    std::vector<ExperimentConfig> configs;
    for (const Arch arch : allArchs()) {
        for (const AlignerKind kind : allAlignerKindsExtended())
            configs.push_back({arch, kind});
    }
    for (const Arch arch : allArchs()) {
        configs.push_back({arch, AlignerKind::Cost, ObjectiveKind::ExtTsp});
        configs.push_back({arch, AlignerKind::Try15, ObjectiveKind::ExtTsp});
    }
    return configs;
}

/// The oracle's EvalResult for one cell: the cell's layout rebuilt as
/// runConfigs builds it (per-architecture cost model, the cell's
/// objective, the BT/FNT chain-order override), replayed naively.
EvalResult
oracleReplay(const PreparedProgram &prepared, const ExperimentConfig &config)
{
    const CostModel model(config.arch);
    AlignOptions options;
    options.objective = config.objective;
    if (config.arch == Arch::BtFnt)
        options.chainOrder = ChainOrderPolicy::BtFntPrecedence;
    const ProgramLayout layout =
        alignProgram(prepared.program, config.kind, &model, options);
    OracleEvaluator oracle(prepared.program, layout,
                           EvalParams::forArch(config.arch));
    prepared.trace->replay(prepared.program, oracle);
    return oracle.result();
}

void
expectMatchesOracle(const PreparedProgram &prepared, const std::string &label)
{
    const std::vector<ExperimentConfig> configs = fullConfigMatrix();
    const ExperimentRun run = runConfigs(prepared, configs);
    ASSERT_EQ(run.cells.size(), configs.size()) << label;

    std::vector<EvalResult> expected;
    for (const ExperimentConfig &config : configs)
        expected.push_back(oracleReplay(prepared, config));
    // fullConfigMatrix() opens with the Original cell, which anchors
    // every relative CPI.
    ASSERT_EQ(configs.front().kind, AlignerKind::Original);
    const std::uint64_t orig_instrs = expected.front().instrs;
    EXPECT_EQ(run.origInstrs, orig_instrs) << label;

    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(counters(run.cells[i].eval), counters(expected[i]))
            << label << ": " << archName(configs[i].arch) << "/"
            << alignerKindName(configs[i].kind) << "/"
            << objectiveKindName(configs[i].objective);
        EXPECT_EQ(run.cells[i].relCpi, expected[i].relativeCpi(orig_instrs))
            << label;
    }
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

class ReplaySuite : public testing::TestWithParam<std::string>
{
};

}  // namespace

TEST_P(ReplaySuite, EnginesByteIdentical)
{
    ProgramSpec spec = suiteSpec(GetParam());
    spec.traceInstrs = kSuiteBudget;
    expectMatchesOracle(prepareProgram(spec), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Suite24, ReplaySuite, [] {
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

TEST(ReplayCorpus, EnginesByteIdenticalOnEveryRepro)
{
    const std::vector<std::string> files = corpusFiles();
    ASSERT_GE(files.size(), 3u);
    for (const std::string &path : files) {
        const std::optional<Repro> repro = loadRepro(path);
        ASSERT_TRUE(repro.has_value()) << path;
        const PreparedProgram prepared =
            prepareProgram(repro->program, repro->walk);
        expectMatchesOracle(
            prepared, std::filesystem::path(path).stem().string());
    }
}
