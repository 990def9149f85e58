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
 *
 * ReplaySetup pins prepareProgram's output itself: one FNV-1a digest per
 * program over every BatchTrace array and aggregate, every edge weight,
 * the ProgramStats, the WalkResult and the event count, so a rewrite of
 * the profiling walk must reproduce its products bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "check/differ.h"
#include "check/fuzz.h"
#include "check/oracle.h"
#include "sim/batch_replay.h"
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

namespace {

constexpr std::uint64_t kSetupBudget = 200'000;

std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xFF;
        hash *= 1099511628211ull;
    }
    return hash;
}

/// FNV-1a 64 over everything prepareProgram produces: the batched
/// trace, the profile, the statistics and the walk summary.
std::uint64_t
hashPrepared(const PreparedProgram &prepared)
{
    std::uint64_t hash = 14695981039346656037ull;
    auto fold = [&hash](const auto &values) {
        hash = fnv1a(hash, values.size());
        for (const auto value : values)
            hash = fnv1a(hash, static_cast<std::uint64_t>(value));
    };
    const BatchTrace &batch = *prepared.batch;
    fold(batch.blockBase);
    fold(batch.term);
    fold(batch.takenDst);
    fold(batch.fallDst);
    fold(batch.ops);
    fold(batch.opA);
    fold(batch.opB);
    fold(batch.opC);
    fold(batch.rasOps);
    fold(batch.rasBlock);
    fold(batch.rasOffset);
    fold(batch.activations);
    fold(batch.takenCount);
    fold(batch.fallCount);
    for (const std::uint64_t n :
         {std::uint64_t{batch.totalBlocks}, batch.condExec, batch.callExec,
          batch.returnExec, batch.exitReturns, batch.indirectExec})
        hash = fnv1a(hash, n);

    for (const Procedure &proc : prepared.program.procs())
        for (const Edge &edge : proc.edges())
            hash = fnv1a(hash, edge.weight);

    const ProgramStats &s = prepared.stats;
    for (const std::uint64_t n :
         {s.instrsTraced, s.condBranches, s.takenCondBranches,
          s.uncondBranches, s.indirectJumps, s.calls, s.returns,
          std::uint64_t{s.q50}, std::uint64_t{s.q90}, std::uint64_t{s.q99},
          std::uint64_t{s.q100}, std::uint64_t{s.staticCondSites}})
        hash = fnv1a(hash, n);

    const WalkResult &w = prepared.trace->walkResult();
    for (const std::uint64_t n :
         {w.instrs, w.blocks, w.calls, w.skippedCalls, w.runs})
        hash = fnv1a(hash, n);
    return fnv1a(hash, prepared.trace->numEvents());
}

}  // namespace

// Pins prepareProgram for every suite program at a 200k-instruction
// budget: the batched trace, the measured profile and the walk summary
// must come out of the profiling walk exactly as pinned here.
TEST(ReplaySetup, SuiteMatchesPinnedDigest)
{
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"alvinn", 0xb73c7b7fb32e08fcull},
        {"doduc", 0xa5fecc923c1a2c57ull},
        {"ear", 0xa1dc542859168751ull},
        {"fpppp", 0xf575dca2388b98beull},
        {"hydro2d", 0xf4fc91be209f02b3ull},
        {"mdljsp2", 0xdfdcced8c2643650ull},
        {"nasa7", 0xe775e6b15f4d34c0ull},
        {"ora", 0xd9efa1d6bbaf7421ull},
        {"spice", 0x6916019718b54273ull},
        {"su2cor", 0x8539d0a5b46cfb5aull},
        {"swm256", 0xab9b4de804975a2full},
        {"tomcatv", 0xd557d826e999c956ull},
        {"wave5", 0xcd043386ca98751full},
        {"compress", 0x7954f4451cbd5546ull},
        {"eqntott", 0xaf6a443681422bull},
        {"espresso", 0x326ec6fe48e24405ull},
        {"gcc", 0x83085a29172d9c65ull},
        {"li", 0x665ab9869846b9e5ull},
        {"sc", 0x41bdd2835794f391ull},
        {"cfront", 0xd20a294313b5400full},
        {"db++", 0x4a119aa8dda0350full},
        {"groff", 0xa877ce1098431a44ull},
        {"idl", 0xe074fc8b87f3b0d1ull},
        {"tex", 0x9c14667bb2c623d3ull},
    };
    ASSERT_EQ(std::size(pinned), benchmarkSuite().size());
    for (const auto &[name, digest] : pinned) {
        ProgramSpec spec = suiteSpec(name);
        spec.traceInstrs = kSetupBudget;
        const std::uint64_t actual = hashPrepared(prepareProgram(spec));
        EXPECT_EQ(actual, digest)
            << name << ": 0x" << std::hex << actual << "ull";
    }
}

// The same digest over every corpus repro, prepared with its own walk.
TEST(ReplaySetup, CorpusMatchesPinnedDigest)
{
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"call-ladder", 0x8dd19cc2db382942ull},
        {"dead-end", 0xcb3e0dfde2227db3ull},
        {"est-irreducible", 0xf64d1098dc92d5bdull},
        {"est-tie", 0xdd89051d50ad1b54ull},
        {"exttsp-window", 0x3b63cd8022da40d6ull},
        {"indirect-hub", 0x9d187450cd95d16dull},
        {"jump-chain", 0x4f54654c61b26f3full},
        {"realign-split", 0x8e8e74470acee970ull},
        {"relax-chain", 0xc57cbae9b7bf9602ull},
        {"tight-loop", 0xa15eb25034b10a59ull},
    };
    const std::vector<std::string> files = corpusFiles();
    ASSERT_EQ(files.size(), std::size(pinned));
    for (std::size_t i = 0; i < files.size(); ++i) {
        const std::string stem =
            std::filesystem::path(files[i]).stem().string();
        ASSERT_EQ(stem, pinned[i].first);
        const std::optional<Repro> repro = loadRepro(files[i]);
        ASSERT_TRUE(repro.has_value()) << files[i];
        const std::uint64_t actual =
            hashPrepared(prepareProgram(repro->program, repro->walk));
        EXPECT_EQ(actual, pinned[i].second)
            << stem << ": 0x" << std::hex << actual << "ull";
    }
}

// The same digest for the gcc model scaled to 4,000 procedures (the
// compile-large program) at a 1M-instruction budget: deep call stacks,
// skipped calls and thousands of procedures pin the walk at scale.
TEST(ReplaySetup, LargeMatchesPinnedDigest)
{
    constexpr std::uint64_t kPinned = 0xa75f34eac7e7ed05ull;
    ProgramSpec spec = suiteSpec("gcc");
    spec.numProcs = 4000;
    spec.traceInstrs = 1'000'000;
    const std::uint64_t actual = hashPrepared(prepareProgram(spec));
    EXPECT_EQ(actual, kPinned) << "0x" << std::hex << actual << "ull";
}
