/**
 * @file
 * Batched replay engine (sim/batch_replay.h) unit tests: the branchless
 * counter helpers are pinned to SaturatingCounter exhaustively, single
 * lanes and the replay-free instruction count are pinned to direct
 * ArchEvaluator replays, and the indexed cell() lookup and replay-free
 * origInstrs recovery of runConfigs are covered.
 * SharedEstimate pins the profile-free path: runConfigs estimates once
 * per program and shares that copy with every concurrent alignment, and
 * must match aligning each layout key on its own estimate.
 * The full 24-program x all-configs matrix, pinned to the oracle, lives
 * in test_replay_suite.cc (`ctest -L replay`).
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bpred/cost_model.h"
#include "check/differ.h"
#include "core/align_program.h"
#include "estimate/estimate.h"
#include "layout/layout_diff.h"
#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "sim/cpi.h"
#include "support/saturating_counter.h"
#include "support/thread_pool.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

/// All EvalResult counters, comparable with one EXPECT_EQ.
std::vector<std::uint64_t>
counters(const EvalResult &r)
{
    return {r.instrs,     r.misfetches, r.mispredicts,
            r.condExec,   r.condTaken,  r.condMispredicts,
            r.uncondExec, r.callExec,   r.returnExec,
            r.returnMispredicts, r.indirectExec,
            r.btbHits,    r.btbLookups};
}

PreparedProgram
preparedSuiteProgram(const std::string &name, std::uint64_t budget)
{
    ProgramSpec spec = suiteSpec(name);
    spec.traceInstrs = budget;
    return prepareProgram(spec);
}

}  // namespace

TEST(BatchCounters, BranchlessUpdateMatchesClassExhaustively)
{
    for (unsigned bits = 1; bits <= 8; ++bits) {
        const auto max =
            static_cast<std::uint8_t>((1u << bits) - 1u);
        for (unsigned value = 0; value <= max; ++value) {
            for (const bool taken : {false, true}) {
                SaturatingCounter reference(bits, value);
                EXPECT_EQ(saturatingTaken(static_cast<std::uint8_t>(value),
                                          max),
                          reference.taken())
                    << "bits=" << bits << " value=" << value;
                reference.update(taken);
                EXPECT_EQ(saturatingUpdate(static_cast<std::uint8_t>(value),
                                           max, taken),
                          reference.value())
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
    // Direct ArchEvaluator replays give the ground-truth per-layout
    // instruction counts; batchLayoutInstrs must reproduce each without a
    // sweep.
    const CostModel model(Arch::Fallthrough);
    for (const AlignerKind kind :
         {AlignerKind::Original, AlignerKind::Greedy, AlignerKind::Cost}) {
        const ProgramLayout layout =
            alignProgram(prepared.program, kind, &model);
        ArchEvaluator evaluator(prepared.program, layout,
                                EvalParams::forArch(Arch::Fallthrough));
        prepared.trace->replay(prepared.program, evaluator.sink());
        EXPECT_EQ(batchLayoutInstrs(*prepared.batch, layout),
                  evaluator.result().instrs)
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
        ArchEvaluator evaluator(prepared.program, layout, params);
        prepared.trace->replay(prepared.program, evaluator.sink());
        const std::vector<EvalResult> lanes = runBatchReplay(
            prepared.program, layout, *prepared.batch, {params});
        ASSERT_EQ(lanes.size(), 1u);
        EXPECT_EQ(counters(lanes[0]), counters(evaluator.result()))
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
