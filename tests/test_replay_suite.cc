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
 * the profiling walk must reproduce its products bit for bit. A second
 * digest reads the op and return-stack streams only through
 * BatchTrace::decode and decodeRas, so it holds across any repacking of
 * the stored streams while the first moves with it.
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
        for (const AlignerKind kind : allAlignerKinds())
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
    hash = fnv1a(hash, batch.callSites.size());
    for (const BatchTrace::CallSiteRow &site : batch.callSites)
        for (const std::uint32_t n : {site.block, site.offset, site.callee})
            hash = fnv1a(hash, n);
    hash = fnv1a(hash, batch.indirectEdges.size());
    for (const BatchTrace::IndirectRow &edge : batch.indirectEdges)
        for (const std::uint32_t n : {edge.src, edge.dst})
            hash = fnv1a(hash, n);
    hash = fnv1a(hash, batch.returnRows.size());
    for (const BatchTrace::ReturnRow &row : batch.returnRows)
        for (const std::uint32_t n : {row.block, row.site})
            hash = fnv1a(hash, n);
    fold(batch.ops);
    fold(batch.rasOps);
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

/// FNV-1a 64 over the batched trace's streams read through decode() and
/// decodeRas(): the (op, a, b, c) and (op, block, offset) sequences every
/// lane replays, whatever their stored representation.
std::uint64_t
hashDecodedStreams(const BatchTrace &batch)
{
    std::uint64_t hash = fnv1a(14695981039346656037ull, batch.ops.size());
    for (std::size_t i = 0; i < batch.ops.size(); ++i) {
        const BatchTrace::DecodedOp op = batch.decode(i);
        for (const std::uint64_t n :
             {static_cast<std::uint64_t>(op.op), std::uint64_t{op.a},
              std::uint64_t{op.b}, std::uint64_t{op.c}})
            hash = fnv1a(hash, n);
    }
    hash = fnv1a(hash, batch.rasOps.size());
    for (std::size_t i = 0; i < batch.rasOps.size(); ++i) {
        const BatchTrace::DecodedRas ras = batch.decodeRas(i);
        for (const std::uint64_t n :
             {std::uint64_t{ras.op}, std::uint64_t{ras.block},
              std::uint64_t{ras.offset}})
            hash = fnv1a(hash, n);
    }
    return hash;
}

}  // namespace

// Pins prepareProgram for every suite program at a 200k-instruction
// budget: the batched trace, the measured profile and the walk summary
// must come out of the profiling walk exactly as pinned here.
TEST(ReplaySetup, SuiteMatchesPinnedDigest)
{
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"alvinn", 0xa373ec41592957c5ull},
        {"doduc", 0xa94669fc79a40f0cull},
        {"ear", 0x5201424863b150dfull},
        {"fpppp", 0x87b738a77fc84d9cull},
        {"hydro2d", 0xeeea63560d26c42dull},
        {"mdljsp2", 0xfbe7b269d13c4d02ull},
        {"nasa7", 0xb1b6cb94a948da83ull},
        {"ora", 0xad7f66fb78bb97a8ull},
        {"spice", 0xe8a90984a20f3e4full},
        {"su2cor", 0x5e25c40053bfe22full},
        {"swm256", 0xb2d63266739b7690ull},
        {"tomcatv", 0xbd4feaa63b3a3a9eull},
        {"wave5", 0xb92c1abd0ac12a3eull},
        {"compress", 0x343c6dacef23e2edull},
        {"eqntott", 0x540f7c4c19dfb405ull},
        {"espresso", 0xafbb6bd0d9227261ull},
        {"gcc", 0x792be07bb3b3d39ull},
        {"li", 0x29183a927b9b6904ull},
        {"sc", 0x1062f79f0628d1bcull},
        {"cfront", 0xed371460d7bc8f9full},
        {"db++", 0x2b36cfb971043e4eull},
        {"groff", 0xbe9468c1ddae0e6full},
        {"idl", 0xa765c15ff50ebcfaull},
        {"tex", 0x28ab840433d3ccfull},
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

// Pins the decoded op and return-stack streams of every suite program at
// a 200k-instruction budget. Unlike SuiteMatchesPinnedDigest, this digest
// reads the trace only through its decoding accessors, so it holds across
// any repacking of the stored streams.
TEST(ReplaySetup, DecodedOpsMatchPinnedDigest)
{
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"alvinn", 0x44acaf023136744eull},
        {"doduc", 0x2db0fa47ba3603ebull},
        {"ear", 0xac1aed48f940760bull},
        {"fpppp", 0x524ce5ad9fc8eb36ull},
        {"hydro2d", 0xfbb8c520054aaecdull},
        {"mdljsp2", 0xe15b739c5919c32eull},
        {"nasa7", 0x9bc01f51e7cc3bd1ull},
        {"ora", 0x87402830048c8d8full},
        {"spice", 0xdf5d71a45a99801ull},
        {"su2cor", 0x56ac13a2e05b6943ull},
        {"swm256", 0xb471dace405f10e8ull},
        {"tomcatv", 0x13b183922a625676ull},
        {"wave5", 0xef7d6e56f8e8dbc9ull},
        {"compress", 0xfd4930fd53909f55ull},
        {"eqntott", 0x40a6a10d6a427427ull},
        {"espresso", 0x1d593d325d12b763ull},
        {"gcc", 0x3bfc83bd4c750f3ull},
        {"li", 0x7b8b6cc6051546dfull},
        {"sc", 0xdd9e511242d6b0f1ull},
        {"cfront", 0x8c328d3cc024d317ull},
        {"db++", 0x2b872d4647cdd811ull},
        {"groff", 0xc21a2d0d29adf65dull},
        {"idl", 0x5d774a3fc84437f2ull},
        {"tex", 0x6c6bfe9e36cbfabaull},
    };
    ASSERT_EQ(std::size(pinned), benchmarkSuite().size());
    for (const auto &[name, digest] : pinned) {
        ProgramSpec spec = suiteSpec(name);
        spec.traceInstrs = kSetupBudget;
        const std::uint64_t actual =
            hashDecodedStreams(*prepareProgram(spec).batch);
        EXPECT_EQ(actual, digest)
            << name << ": 0x" << std::hex << actual << "ull";
    }
}

// The same digest over every corpus repro, prepared with its own walk.
TEST(ReplaySetup, CorpusMatchesPinnedDigest)
{
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"call-ladder", 0x9ff3e477519759daull},
        {"dead-end", 0x368478fbda800301ull},
        {"est-irreducible", 0x79ed3dc7b76cfbe4ull},
        {"est-tie", 0x1451904add48a80eull},
        {"exttsp-window", 0x8e985036cb4c8c70ull},
        {"indirect-hub", 0x496dff7502c951bdull},
        {"jump-chain", 0xb19a206562fd6476ull},
        {"realign-split", 0x69b89400b3c7aab3ull},
        {"relax-chain", 0x7951dd552fa64298ull},
        {"tight-loop", 0x7acd353ede6093b8ull},
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

// The decoded-stream digest over every corpus repro, prepared with its
// own walk.
TEST(ReplaySetup, CorpusDecodedOpsMatchPinnedDigest)
{
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"call-ladder", 0xced14bcd1dc9bbf1ull},
        {"dead-end", 0x2b928c018485e96full},
        {"est-irreducible", 0x5a9fea86b5a50671ull},
        {"est-tie", 0xac0bfdd69bb19a34ull},
        {"exttsp-window", 0x8ed9497bfe827667ull},
        {"indirect-hub", 0x4523ed8fb72cac93ull},
        {"jump-chain", 0x9abfa87beb36b80aull},
        {"realign-split", 0xc27e09b1b4dcaf2aull},
        {"relax-chain", 0xe7f39b3b47169856ull},
        {"tight-loop", 0xec40a08d88daa83dull},
    };
    const std::vector<std::string> files = corpusFiles();
    ASSERT_EQ(files.size(), std::size(pinned));
    for (std::size_t i = 0; i < files.size(); ++i) {
        const std::string stem =
            std::filesystem::path(files[i]).stem().string();
        ASSERT_EQ(stem, pinned[i].first);
        const std::optional<Repro> repro = loadRepro(files[i]);
        ASSERT_TRUE(repro.has_value()) << files[i];
        const std::uint64_t actual = hashDecodedStreams(
            *prepareProgram(repro->program, repro->walk).batch);
        EXPECT_EQ(actual, pinned[i].second)
            << stem << ": 0x" << std::hex << actual << "ull";
    }
}

// The same digest for the gcc model scaled to 4,000 procedures (the
// compile-large program) at a 1M-instruction budget: deep call stacks,
// skipped calls and thousands of procedures pin the walk at scale.
TEST(ReplaySetup, LargeMatchesPinnedDigest)
{
    constexpr std::uint64_t kPinned = 0x19298c33c0fe67full;
    constexpr std::uint64_t kPinnedDecoded = 0xeae051af4372ed47ull;
    ProgramSpec spec = suiteSpec("gcc");
    spec.numProcs = 4000;
    spec.traceInstrs = 1'000'000;
    const PreparedProgram prepared = prepareProgram(spec);
    const std::uint64_t actual = hashPrepared(prepared);
    EXPECT_EQ(actual, kPinned) << "0x" << std::hex << actual << "ull";
    const std::uint64_t decoded = hashDecodedStreams(*prepared.batch);
    EXPECT_EQ(decoded, kPinnedDecoded)
        << "decoded: 0x" << std::hex << decoded << "ull";
}
