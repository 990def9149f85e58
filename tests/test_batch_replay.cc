/**
 * @file
 * Batched replay engine (sim/batch_replay.h) unit tests: the branchless
 * counter helpers are pinned to SaturatingCounter exhaustively, the
 * batched runConfigs path is pinned byte-identical to the per-cell
 * reference engine on a real suite program, and the satellite fixes
 * (indexed cell() lookup, replay-free origInstrs recovery) are covered.
 * SharedEstimate pins the profile-free path: runConfigs estimates once
 * per program and shares that copy with every concurrent alignment, and
 * must match aligning each layout key on its own estimate.
 * The full 24-program x all-configs matrix lives in test_replay_suite.cc
 * (`ctest -L replay`).
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

std::vector<ExperimentConfig>
fullConfigMatrix()
{
    std::vector<ExperimentConfig> configs;
    for (const Arch arch : allArchs()) {
        for (const AlignerKind kind : allAlignerKindsExtended())
            configs.push_back({arch, kind});
    }
    // ExtTSP-priced guided layouts exercise the arch-independent
    // layout-sharing path of the batched grouping too.
    for (const Arch arch : allArchs()) {
        configs.push_back({arch, AlignerKind::Cost, ObjectiveKind::ExtTsp});
        configs.push_back({arch, AlignerKind::Try15, ObjectiveKind::ExtTsp});
    }
    return configs;
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

TEST(BatchReplay, MatchesPerCellEngineOnSuiteProgram)
{
    const PreparedProgram prepared = preparedSuiteProgram("eqntott", 60'000);
    const std::vector<ExperimentConfig> configs = fullConfigMatrix();

    RunContext batched;
    batched.engine = ReplayEngine::Batched;
    RunContext per_cell;
    per_cell.engine = ReplayEngine::PerCell;
    const ExperimentRun fast = runConfigs(prepared, configs, {}, batched);
    const ExperimentRun slow = runConfigs(prepared, configs, {}, per_cell);

    ASSERT_EQ(fast.cells.size(), slow.cells.size());
    EXPECT_EQ(fast.origInstrs, slow.origInstrs);
    for (std::size_t i = 0; i < fast.cells.size(); ++i) {
        EXPECT_EQ(counters(fast.cells[i].eval),
                  counters(slow.cells[i].eval))
            << archName(configs[i].arch) << "/"
            << alignerKindName(configs[i].kind) << "/"
            << objectiveKindName(configs[i].objective);
        EXPECT_EQ(fast.cells[i].relCpi, slow.cells[i].relCpi);
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
    const std::vector<ExperimentConfig> configs = {
        {Arch::Fallthrough, AlignerKind::Original},
        {Arch::Fallthrough, AlignerKind::Greedy},
        {Arch::Fallthrough, AlignerKind::Cost},
    };
    // Per-cell replays give the ground-truth per-layout instruction
    // counts; batchLayoutInstrs must reproduce each without a sweep.
    RunContext per_cell;
    per_cell.engine = ReplayEngine::PerCell;
    const ExperimentRun run = runConfigs(prepared, configs, {}, per_cell);
    const CostModel model(Arch::Fallthrough);
    for (const auto &cell : run.cells) {
        const ProgramLayout layout =
            alignProgram(prepared.program, cell.config.kind, &model);
        EXPECT_EQ(batchLayoutInstrs(*prepared.batch, layout),
                  cell.eval.instrs)
            << alignerKindName(cell.config.kind);
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
    // No buildCellIndex(): the scan path must still find the cell.
    EXPECT_EQ(run.cell(Arch::Likely, AlignerKind::Greedy).eval.instrs,
              123u);
}

TEST(BatchReplay, HandBuiltPreparedProgramStillRuns)
{
    // A PreparedProgram assembled by hand (tests do this) has no recorded
    // trace and no batch form; runConfigs must fall back to walking.
    ProgramSpec spec = suiteSpec("espresso");
    spec.traceInstrs = 20'000;
    PreparedProgram prepared;
    prepared.program = generateProgram(spec);
    prepared.walk.seed = traceSeed(spec);
    prepared.walk.instrBudget = spec.traceInstrs;
    const std::vector<ExperimentConfig> configs = {
        {Arch::PhtDirect, AlignerKind::Greedy},
    };
    const ExperimentRun run = runConfigs(prepared, configs);
    EXPECT_GT(run.origInstrs, 0u);
    EXPECT_GT(run.cells[0].eval.instrs, 0u);
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
