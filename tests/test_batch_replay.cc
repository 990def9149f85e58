/**
 * @file
 * Batched replay engine (sim/batch_replay.h) unit tests: the branchless
 * counter helpers are pinned to a written-out clamp exhaustively, single
 * lanes and the replay-free instruction count are pinned to oracle
 * replays, and the indexed cell() lookup and replay-free origInstrs
 * recovery of runConfigs are covered.
 * MultiLayoutMatchesOracle pins the one-pass multi-layout form to the
 * oracle under non-default predictor parameters and every way of
 * splitting the lanes into blocks, and runConfigs to itself across pool
 * sizes.
 * SharedEstimate pins the profile-free path: runConfigs estimates once
 * per program and shares that copy with every concurrent alignment, and
 * must match aligning each layout key on its own estimate.
 * The full 24-program x all-configs matrix, pinned to the oracle, lives
 * in test_replay_suite.cc (`ctest -L replay`).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bpred/cost_model.h"
#include "check/differ.h"
#include "check/fuzz.h"
#include "check/oracle.h"
#include "core/align_program.h"
#include "estimate/estimate.h"
#include "layout/layout_diff.h"
#include "layout/materialize.h"
#include "replay_util.h"
#include "sim/batch_replay.h"
#include "sim/cpi.h"
#include "support/saturating_counter.h"
#include "support/thread_pool.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

PreparedProgram
preparedSuiteProgram(const std::string &name, std::uint64_t budget)
{
    ProgramSpec spec = suiteSpec(name);
    spec.traceInstrs = budget;
    return prepareProgram(spec);
}

/// The 18 distinct layouts the paper matrix (7 architectures x
/// {Original, Greedy, Cost, Try15}) aligns, built the way runConfigs
/// builds them: Original and Greedy are shared except under BT/FNT's
/// chain order, Cost and Try15 are priced per architecture.
std::vector<ProgramLayout>
paperMatrixLayouts(const Program &program)
{
    std::vector<ProgramLayout> layouts;
    auto align = [&](AlignerKind kind, Arch arch) {
        const CostModel model(arch);
        AlignOptions options;
        if (arch == Arch::BtFnt)
            options.chainOrder = ChainOrderPolicy::BtFntPrecedence;
        layouts.push_back(alignProgram(program, kind, &model, options));
    };
    for (const AlignerKind kind : {AlignerKind::Original, AlignerKind::Greedy})
        for (const Arch arch : {Arch::Fallthrough, Arch::BtFnt})
            align(kind, arch);
    for (const AlignerKind kind : {AlignerKind::Cost, AlignerKind::Try15}) {
        for (const Arch arch : allArchs()) {
            if (arch != Arch::PhtLocal)
                align(kind, arch);
        }
    }
    return layouts;
}

/// Every architecture at its defaults, plus lanes off the defaults: 1-
/// and 3-bit counters, a 4-bit history, a 64x8 BTB, and 1- and 4-entry
/// return stacks (wrap-around and underflow).
std::vector<EvalParams>
laneMatrix()
{
    std::vector<EvalParams> lanes;
    for (const Arch arch : allArchs())
        lanes.push_back(EvalParams::forArch(arch));
    auto with = [&](Arch arch, const std::function<void(EvalParams &)> &edit) {
        EvalParams params = EvalParams::forArch(arch);
        edit(params);
        lanes.push_back(params);
    };
    with(Arch::PhtDirect, [](EvalParams &p) { p.counterBits = 1; });
    with(Arch::PhtCorrelated, [](EvalParams &p) { p.counterBits = 3; });
    with(Arch::PhtCorrelated, [](EvalParams &p) { p.historyBits = 4; });
    with(Arch::PhtLocal, [](EvalParams &p) {
        p.historyBits = 4;
        p.counterBits = 3;
    });
    with(Arch::BtbSmall, [](EvalParams &p) { p.counterBits = 1; });
    with(Arch::BtbLarge, [](EvalParams &p) { p.counterBits = 3; });
    with(Arch::BtbLarge, [](EvalParams &p) {
        p.btbEntries = 64;
        p.btbWays = 8;
    });
    with(Arch::BtbSmall, [](EvalParams &p) { p.rasEntries = 1; });
    with(Arch::BtbLarge, [](EvalParams &p) { p.rasEntries = 4; });
    with(Arch::PhtCorrelated, [](EvalParams &p) { p.rasEntries = 1; });
    with(Arch::PhtLocal, [](EvalParams &p) { p.rasEntries = 4; });
    with(Arch::Likely, [](EvalParams &p) { p.rasEntries = 4; });
    with(Arch::Fallthrough, [](EvalParams &p) { p.rasEntries = 1; });
    return lanes;
}

/// Every lane of every paper-matrix layout, split into 1, 2 and 3 lane
/// blocks (lane j of layout k goes to block (j + k) mod blocks, so
/// layouts are split too), must equal an oracle replay.
void
expectMultiLayoutMatchesOracle(const PreparedProgram &prepared,
                               const std::string &label)
{
    const std::vector<ProgramLayout> layouts =
        paperMatrixLayouts(prepared.program);
    ASSERT_EQ(layouts.size(), 18u) << label;
    const std::vector<EvalParams> lanes = laneMatrix();

    std::vector<std::vector<EvalResult>> expected(layouts.size());
    for (std::size_t k = 0; k < layouts.size(); ++k) {
        for (const EvalParams &params : lanes)
            expected[k].push_back(
                oracleReplay(prepared, layouts[k], params));
    }

    for (std::size_t blocks = 1; blocks <= 3; ++blocks) {
        for (std::size_t block = 0; block < blocks; ++block) {
            std::vector<LayoutLanes> input;
            std::vector<std::pair<std::size_t, std::size_t>> origin;
            for (std::size_t k = 0; k < layouts.size(); ++k) {
                LayoutLanes entry{&layouts[k], {}};
                for (std::size_t j = 0; j < lanes.size(); ++j) {
                    if ((j + k) % blocks == block)
                        entry.lanes.push_back(lanes[j]);
                }
                input.push_back(entry);
            }
            const std::vector<std::vector<EvalResult>> got =
                runBatchReplay(prepared.program, input, *prepared.batch);
            ASSERT_EQ(got.size(), layouts.size()) << label;
            for (std::size_t k = 0; k < layouts.size(); ++k) {
                std::size_t next = 0;
                for (std::size_t j = 0; j < lanes.size(); ++j) {
                    if ((j + k) % blocks != block)
                        continue;
                    ASSERT_LT(next, got[k].size()) << label;
                    EXPECT_EQ(counters(got[k][next]),
                              counters(expected[k][j]))
                        << label << ": " << blocks << " blocks, layout "
                        << k << ", lane " << j << " ("
                        << archName(lanes[j].arch) << ")";
                    ++next;
                }
                EXPECT_EQ(next, got[k].size()) << label;
            }
        }
    }
}

/// The cells of a run, comparable with one EXPECT_EQ: configuration,
/// every counter and the relative CPI's bits.
std::vector<std::vector<std::uint64_t>>
runSignature(const ExperimentRun &run)
{
    std::vector<std::vector<std::uint64_t>> signature;
    signature.push_back({run.origInstrs, run.cells.size()});
    for (const ExperimentCell &cell : run.cells) {
        std::vector<std::uint64_t> row = counters(cell.eval);
        std::uint64_t rel_bits = 0;
        static_assert(sizeof(rel_bits) == sizeof(cell.relCpi));
        std::memcpy(&rel_bits, &cell.relCpi, sizeof(rel_bits));
        row.push_back(rel_bits);
        row.push_back(static_cast<std::uint64_t>(cell.config.arch));
        row.push_back(static_cast<std::uint64_t>(cell.config.kind));
        signature.push_back(row);
    }
    return signature;
}

}  // namespace

TEST(BatchCounters, BranchlessUpdateMatchesClassExhaustively)
{
    // The clamp written out as compare-and-step, for every width and
    // state.
    for (unsigned bits = 1; bits <= 8; ++bits) {
        const auto max =
            static_cast<std::uint8_t>((1u << bits) - 1u);
        for (unsigned value = 0; value <= max; ++value) {
            EXPECT_EQ(saturatingTaken(static_cast<std::uint8_t>(value), max),
                      2 * value > max)
                << "bits=" << bits << " value=" << value;
            for (const bool taken : {false, true}) {
                unsigned next = value;
                if (taken && value < max)
                    ++next;
                else if (!taken && value > 0)
                    --next;
                EXPECT_EQ(saturatingUpdate(static_cast<std::uint8_t>(value),
                                           max, taken),
                          next)
                    << "bits=" << bits << " value=" << value
                    << " taken=" << taken;
            }
        }
    }
}

TEST(BatchReplay, OrigInstrsRecoveredWithoutOriginalCell)
{
    const PreparedProgram prepared = preparedSuiteProgram("li", 40'000);
    const std::vector<ExperimentConfig> with_original = {
        {Arch::PhtDirect, AlignerKind::Original},
        {Arch::PhtDirect, AlignerKind::Greedy},
    };
    const std::vector<ExperimentConfig> without_original = {
        {Arch::PhtDirect, AlignerKind::Greedy},
    };
    const ExperimentRun base = runConfigs(prepared, with_original);
    const ExperimentRun derived = runConfigs(prepared, without_original);
    // The layout-level accounting must recover exactly what an Original
    // replay measures, without sweeping the trace again.
    EXPECT_EQ(derived.origInstrs, base.origInstrs);
    EXPECT_EQ(base.origInstrs,
              base.cell(Arch::PhtDirect, AlignerKind::Original).eval.instrs);
}

TEST(BatchReplay, BatchLayoutInstrsMatchesEvaluator)
{
    const PreparedProgram prepared = preparedSuiteProgram("compress", 40'000);
    ASSERT_NE(prepared.batch, nullptr);
    // Oracle replays give the ground-truth per-layout instruction
    // counts; batchLayoutInstrs must reproduce each without a sweep.
    const CostModel model(Arch::Fallthrough);
    for (const AlignerKind kind :
         {AlignerKind::Original, AlignerKind::Greedy, AlignerKind::Cost}) {
        const ProgramLayout layout =
            alignProgram(prepared.program, kind, &model);
        EXPECT_EQ(batchLayoutInstrs(*prepared.batch, layout),
                  oracleReplay(prepared, layout,
                               EvalParams::forArch(Arch::Fallthrough))
                      .instrs)
            << alignerKindName(kind);
    }
}

TEST(BatchReplay, SingleLaneRunMatchesEvaluatorDirectly)
{
    const PreparedProgram prepared = preparedSuiteProgram("sc", 40'000);
    ASSERT_NE(prepared.batch, nullptr);
    const ProgramLayout layout = originalLayout(prepared.program);
    for (const Arch arch : allArchs()) {
        const EvalParams params = EvalParams::forArch(arch);
        const std::vector<EvalResult> lanes = runBatchReplay(
            prepared.program, layout, *prepared.batch, {params});
        ASSERT_EQ(lanes.size(), 1u);
        EXPECT_EQ(counters(lanes[0]),
                  counters(oracleReplay(prepared, layout, params)))
            << archName(arch);
    }
}

TEST(ExperimentRunIndex, FirstMatchWinsLikeTheScan)
{
    const PreparedProgram prepared = preparedSuiteProgram("espresso", 30'000);
    // Same (arch, kind) under two objectives: cell(arch, kind) must keep
    // returning the FIRST configured cell, exactly like the linear scan.
    const std::vector<ExperimentConfig> configs = {
        {Arch::BtbSmall, AlignerKind::Cost, ObjectiveKind::TableCost},
        {Arch::BtbSmall, AlignerKind::Cost, ObjectiveKind::ExtTsp},
    };
    const ExperimentRun run = runConfigs(prepared, configs);
    EXPECT_EQ(run.cellIndex.size(), 1u);
    const ExperimentCell &found =
        run.cell(Arch::BtbSmall, AlignerKind::Cost);
    EXPECT_EQ(found.config.objective, ObjectiveKind::TableCost);
    EXPECT_EQ(counters(found.eval), counters(run.cells[0].eval));
}

TEST(ExperimentRunIndexDeathTest, MissingCellIsFatal)
{
    const PreparedProgram prepared = preparedSuiteProgram("espresso", 30'000);
    const std::vector<ExperimentConfig> configs = {
        {Arch::PhtDirect, AlignerKind::Original},
    };
    const ExperimentRun run = runConfigs(prepared, configs);
    EXPECT_DEATH(run.cell(Arch::BtbLarge, AlignerKind::Try15),
                 "no cell for");
}

TEST(ExperimentRunIndex, HandAssembledRunFallsBackToScan)
{
    ExperimentRun run;
    run.name = "hand-built";
    ExperimentCell cell;
    cell.config = {Arch::Likely, AlignerKind::Greedy};
    cell.eval.instrs = 123;
    run.cells.push_back(cell);
    // Hand-assembled runs index their cells explicitly; cell() only ever
    // looks through the index.
    run.buildCellIndex();
    EXPECT_EQ(run.cell(Arch::Likely, AlignerKind::Greedy).eval.instrs,
              123u);
}

TEST(BatchReplayDeathTest, HandBuiltPreparedProgramPanics)
{
    // runConfigs has one evaluator, the batched engine; a PreparedProgram
    // that prepareProgram did not build carries no batched trace.
    PreparedProgram prepared;
    prepared.program = generateProgram(suiteSpec("espresso"));
    const std::vector<ExperimentConfig> configs = {
        {Arch::PhtDirect, AlignerKind::Greedy},
    };
    EXPECT_DEATH(runConfigs(prepared, configs), "no batched trace");
}

TEST(SharedEstimate, RunConfigsMatchesSeparateAlignments)
{
    // Estimated Greedy and ExtTSP cells over three architectures (BT/FNT
    // gets its own keys), beside a measured Greedy cell that must keep
    // aligning on the measured profile.
    std::vector<ExperimentConfig> configs;
    for (const Arch arch : {Arch::BtFnt, Arch::PhtDirect, Arch::BtbLarge}) {
        ExperimentConfig greedy{arch, AlignerKind::Greedy};
        greedy.source = ProfileSource::Estimated;
        ExperimentConfig exttsp{arch, AlignerKind::ExtTsp,
                                ObjectiveKind::ExtTsp};
        exttsp.source = ProfileSource::Estimated;
        configs.push_back(greedy);
        configs.push_back(exttsp);
    }
    configs.push_back({Arch::PhtDirect, AlignerKind::Greedy});

    auto options_for = [](const ExperimentConfig &config) {
        AlignOptions options;
        options.objective = config.objective;
        options.profileSource = config.source;
        if (config.arch == Arch::BtFnt)
            options.chainOrder = ChainOrderPolicy::BtFntPrecedence;
        return options;
    };

    ThreadPool pool(4);
    RunContext context;
    context.pool = &pool;
    for (const char *name : {"compress", "li", "tomcatv", "spice"}) {
        SCOPED_TRACE(name);
        const PreparedProgram prepared = preparedSuiteProgram(name, 40'000);
        const ExperimentRun run = runConfigs(prepared, configs, {}, context);
        ASSERT_EQ(run.cells.size(), configs.size());

        // Concurrent alignments reading one shared estimate must produce
        // the layouts alignProgram's own copy-and-estimate branch does.
        Program estimated = prepared.program;
        estimateProfile(estimated);
        std::vector<ProgramLayout> separate(configs.size());
        std::vector<ProgramLayout> shared(configs.size());
        pool.parallelFor(configs.size(), [&](std::size_t i) {
            const CostModel model(configs[i].arch);
            AlignOptions options = options_for(configs[i]);
            separate[i] = alignProgram(prepared.program, configs[i].kind,
                                       &model, options);
            options.profileSource = ProfileSource::Measured;
            shared[i] = alignProgram(
                configs[i].source == ProfileSource::Estimated
                    ? estimated
                    : prepared.program,
                configs[i].kind, &model, options);
        });

        for (std::size_t i = 0; i < configs.size(); ++i) {
            const std::string label =
                std::string(archName(configs[i].arch)) + "/" +
                alignerKindName(configs[i].kind) + "/" +
                profileSourceName(configs[i].source);
            EXPECT_EQ(describeLayoutDifference(separate[i], shared[i]), "")
                << label;
            const std::vector<EvalResult> expected =
                runBatchReplay(prepared.program, separate[i],
                               *prepared.batch,
                               {EvalParams::forArch(configs[i].arch)});
            EXPECT_EQ(counters(run.cells[i].eval), counters(expected[0]))
                << label;
        }
    }
}

TEST(BatchReplay, MultiLayoutMatchesOracle)
{
    std::vector<std::pair<std::string, PreparedProgram>> programs;
    for (const char *name : {"compress", "li", "espresso"})
        programs.emplace_back(name, preparedSuiteProgram(name, 30'000));
    std::vector<std::string> corpus;
    for (const auto &entry :
         std::filesystem::directory_iterator(BALIGN_CORPUS_DIR)) {
        if (entry.path().extension() == ".balign")
            corpus.push_back(entry.path().string());
    }
    std::sort(corpus.begin(), corpus.end());
    ASSERT_GE(corpus.size(), 3u);
    for (const std::string &path : corpus) {
        const std::optional<Repro> repro = loadRepro(path);
        ASSERT_TRUE(repro.has_value()) << path;
        programs.emplace_back(std::filesystem::path(path).stem().string(),
                              prepareProgram(repro->program, repro->walk));
    }

    // The paper matrix plus the extension architecture.
    std::vector<ExperimentConfig> configs;
    for (const Arch arch : allArchs()) {
        for (const AlignerKind kind :
             {AlignerKind::Original, AlignerKind::Greedy, AlignerKind::Cost,
              AlignerKind::Try15})
            configs.push_back({arch, kind});
    }

    for (const auto &[label, prepared] : programs) {
        expectMultiLayoutMatchesOracle(prepared, label);

        // runConfigs deals its layouts into one lane block per pool
        // thread, called directly or from inside a pool item; the run
        // must not depend on how many blocks there are.
        const auto serial = runSignature(runConfigs(prepared, configs));
        for (const unsigned threads : {1u, 2u, 4u}) {
            ThreadPool pool(threads);
            RunContext context;
            context.pool = &pool;
            EXPECT_EQ(runSignature(runConfigs(prepared, configs, {}, context)),
                      serial)
                << label << ": " << threads << " threads";
            pool.parallelFor(1, [&](std::size_t) {
                EXPECT_EQ(
                    runSignature(runConfigs(prepared, configs, {}, context)),
                    serial)
                    << label << ": inside a " << threads << "-thread item";
            });
        }
    }
}
