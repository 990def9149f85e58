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
#include "cfg/builder.h"
#include "cfg/validate.h"
#include "check/differ.h"
#include "check/fuzz.h"
#include "check/oracle.h"
#include "core/align_program.h"
#include "estimate/estimate.h"
#include "layout/layout_diff.h"
#include "layout/materialize.h"
#include "layout/proc_order.h"
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

namespace {

/// main's one block (3 instructions) calls `callee` twice at offset 1 and
/// returns; the callee is one returning block. Each run is 5 instructions.
Program
twinCallProgram()
{
    Program program("twin-calls");
    const ProcId main_id = program.addProc("main");
    const ProcId callee_id = program.addProc("callee");
    CfgBuilder(program.proc(callee_id)).block(1, Terminator::Return);
    CfgBuilder main(program.proc(main_id));
    const BlockId body = main.block(3, Terminator::Return);
    main.call(body, callee_id, 1).call(body, callee_id, 1);
    validateOrDie(program);
    return program;
}

/// Bytes every stream and table of @p trace holds at its exact size.
std::size_t
heldBytes(const BatchTrace &trace)
{
    return 4 * trace.blockBase.size() +
           (1 + 4 + 4 + 3 * 8) * std::size_t{trace.totalBlocks} +
           12 * trace.callSites.size() + 8 * trace.indirectEdges.size() +
           8 * trace.returnRows.size() + 4 * trace.ops.size() +
           4 * trace.rasOps.size() + 8 * trace.indirectCount.size();
}

}  // namespace

TEST(BatchReplay, TwoCallsAtOneOffsetShareABtbEntry)
{
    // main's block makes two calls at offset 1, one address, so they are
    // one BTB site. Per run: call, callee return, call, callee return,
    // then main's exit return (a stack pop, no lookup). Run 1's first
    // call and first return miss with correct return-stack predictions
    // (two misfetches); every later lookup hits, the second call
    // included. Were the calls two sites, run 1's second call would miss
    // too.
    const Program program = twinCallProgram();
    constexpr unsigned kRuns = 10;
    WalkOptions walk;
    walk.instrBudget = 5 * kRuns;  // 3 in main, 1 per callee activation

    for (const Arch arch : {Arch::BtbSmall, Arch::BtbLarge}) {
        const EvalResult r = replayBoth(program, originalLayout(program),
                                        walk, EvalParams::forArch(arch));
        EXPECT_EQ(r.callExec, 2 * kRuns) << archName(arch);
        EXPECT_EQ(r.returnExec, 3 * kRuns) << archName(arch);
        EXPECT_EQ(r.btbLookups, 4 * kRuns) << archName(arch);
        EXPECT_EQ(r.btbHits, 4 * kRuns - 2) << archName(arch);
        EXPECT_EQ(r.misfetches, 2u) << archName(arch);
        EXPECT_EQ(r.mispredicts, 0u) << archName(arch);
    }
}

TEST(BatchTrace, DecodesHandBuiltOps)
{
    // Global blocks: main's body is 0, the callee's block 1. Per run:
    // call, callee return, call, callee return, main's exit return.
    const Program program = twinCallProgram();
    WalkOptions walk;
    walk.instrBudget = 5 * 2;
    const BatchTrace trace = walkBatchTrace(program, walk);
    using Op = BatchTrace::Op;
    const std::vector<std::vector<std::uint32_t>> run = {
        {static_cast<std::uint32_t>(Op::Call), 0, 1, 1},
        {static_cast<std::uint32_t>(Op::Ret), 1, 0, 1},
        {static_cast<std::uint32_t>(Op::Call), 0, 1, 1},
        {static_cast<std::uint32_t>(Op::Ret), 1, 0, 1},
        {static_cast<std::uint32_t>(Op::RetExit), 0, 0, 0},
    };
    const std::vector<std::vector<std::uint32_t>> ras = {
        {0, 0, 1}, {1, 0, 1}, {0, 0, 1}, {1, 0, 1}, {2, 0, 0}};
    ASSERT_EQ(trace.ops.size(), 2 * run.size());
    ASSERT_EQ(trace.rasOps.size(), 2 * ras.size());
    for (std::size_t i = 0; i < trace.ops.size(); ++i) {
        const BatchTrace::DecodedOp op = trace.decode(i);
        const auto kind = static_cast<std::uint32_t>(op.op);
        EXPECT_EQ((std::vector<std::uint32_t>{kind, op.a, op.b, op.c}),
                  run[i % run.size()])
            << "op " << i;
        const BatchTrace::DecodedRas entry = trace.decodeRas(i);
        EXPECT_EQ((std::vector<std::uint32_t>{entry.op, entry.block,
                                              entry.offset}),
                  ras[i % ras.size()])
            << "return-stack entry " << i;
    }
    // One call site table row per call line, both at offset 1. The two
    // calls are alike, so both index the first row, and one return row
    // holds every return: the callee's block back to that site.
    ASSERT_EQ(trace.callSites.size(), 2u);
    EXPECT_EQ(trace.callSites[1].offset, 1u);
    ASSERT_EQ(trace.returnRows.size(), 1u);
    EXPECT_EQ(trace.returnRows[0].block, 1u);
    EXPECT_EQ(trace.returnRows[0].site, 0u);
}

TEST(BatchTrace, DecodesHandBuiltIndirectOps)
{
    // main only. Block 0 (2 instructions) jumps indirectly to block 1 or
    // block 2; block 2 (1 instruction) jumps indirectly to block 1 or
    // block 3. The walk draws a target by bias, so the zero-bias edges are
    // never taken: per run 0 -> 2 -> 1, then main's exit return. Indirect
    // edge rows follow block order and then outEdges order: 0 -> 1, 0 -> 2,
    // 2 -> 1, 2 -> 3.
    Program program("indirect-jumps");
    CfgBuilder main(program.proc(program.addProc("main")));
    const BlockId head = main.block(2, Terminator::IndirectJump);
    const BlockId exit = main.block(1, Terminator::Return);
    const BlockId hop = main.block(1, Terminator::IndirectJump);
    const BlockId spare = main.block(1, Terminator::Return);
    main.other(head, exit, 0, 0.0).other(head, hop, 0, 1.0);
    main.other(hop, exit, 0, 1.0).other(hop, spare, 0, 0.0);
    validateOrDie(program);
    constexpr unsigned kRuns = 3;
    WalkOptions walk;
    walk.instrBudget = 4 * kRuns;
    const BatchTrace trace = walkBatchTrace(program, walk);

    using Op = BatchTrace::Op;
    const std::vector<std::vector<std::uint32_t>> run = {
        {static_cast<std::uint32_t>(Op::Indirect), head, hop, 0},
        {static_cast<std::uint32_t>(Op::Indirect), hop, exit, 0},
        {static_cast<std::uint32_t>(Op::RetExit), exit, 0, 0},
    };
    ASSERT_EQ(trace.ops.size(), kRuns * run.size());
    for (std::size_t i = 0; i < trace.ops.size(); ++i) {
        const BatchTrace::DecodedOp op = trace.decode(i);
        EXPECT_EQ((std::vector<std::uint32_t>{static_cast<std::uint32_t>(op.op),
                                              op.a, op.b, op.c}),
                  run[i % run.size()])
            << "op " << i;
    }
    ASSERT_EQ(trace.indirectEdges.size(), 4u);
    const std::vector<std::pair<BlockId, BlockId>> rows = {
        {head, exit}, {head, hop}, {hop, exit}, {hop, spare}};
    for (std::size_t k = 0; k < rows.size(); ++k) {
        EXPECT_EQ(trace.indirectEdges[k].src, rows[k].first) << "row " << k;
        EXPECT_EQ(trace.indirectEdges[k].dst, rows[k].second) << "row " << k;
    }
    EXPECT_EQ(trace.indirectCount,
              (std::vector<std::uint64_t>{0, kRuns, kRuns, 0}));
    EXPECT_EQ(trace.indirectExec, 2 * kRuns);
    EXPECT_TRUE(trace.returnRows.empty());
    EXPECT_EQ(trace.sizeBytes(), heldBytes(trace));
}

TEST(BatchTrace, CallGraphCountsHandBuiltCalls)
{
    // Per run, main (proc 0) calls the callee (proc 1) twice, from one
    // offset of one block; nothing else calls.
    const Program program = twinCallProgram();
    constexpr unsigned kRuns = 7;
    WalkOptions walk;
    walk.instrBudget = 5 * kRuns;
    const CallGraph calls = traceCallGraph(walkBatchTrace(program, walk));
    EXPECT_EQ(calls, (CallGraph{{{0, 1}, 2 * kRuns}}));
}

TEST(BatchTrace, SizeBytesMatchesHeldStreams)
{
    // Hand-built: 2 procs, 2 blocks, 2 call sites, 1 return row, 10 runs
    // of 5 ops and 5 return-stack entries:
    // 8 + 2 * 33 + 2 * 12 + 8 + 50 * 4 + 50 * 4.
    const Program program = twinCallProgram();
    WalkOptions walk;
    walk.instrBudget = 5 * 10;
    const BatchTrace hand = walkBatchTrace(program, walk);
    EXPECT_EQ(hand.ops.size(), 50u);
    EXPECT_EQ(hand.returnRows.size(), 1u);
    EXPECT_EQ(hand.sizeBytes(), 506u);
    EXPECT_EQ(hand.sizeBytes(), heldBytes(hand));

    // espresso's trace holds its streams at their exact size: 4 bytes per
    // op and 4 per return-stack entry, plus per-block tables that stay
    // under a tenth of the streams.
    const PreparedProgram espresso =
        preparedSuiteProgram("espresso", 2'000'000);
    const BatchTrace &trace = *espresso.batch;
    const std::size_t streams =
        4 * trace.ops.size() + 4 * trace.rasOps.size();
    EXPECT_EQ(trace.sizeBytes(), heldBytes(trace));
    EXPECT_GE(trace.sizeBytes(), streams);
    EXPECT_LE(trace.sizeBytes(), streams + streams / 10);
}

TEST(BatchTraceDeathTest, IndexCountPastTheCapIsFatal)
{
    checkTraceIndexCount(kTraceIndexCap, "blocks");
    checkTraceIndexCount(kTraceIndexCap, "call sites");
    EXPECT_EXIT(checkTraceIndexCount(kTraceIndexCap + std::size_t{1},
                                     "blocks"),
                testing::ExitedWithCode(1), "blocks.*kTraceIndexCap");
    EXPECT_EXIT(checkTraceIndexCount(kTraceIndexCap + std::size_t{1},
                                     "call sites"),
                testing::ExitedWithCode(1), "call sites.*kTraceIndexCap");
}

TEST(BatchTraceDeathTest, TableRowsPastTheCapAreFatal)
{
    // An Indirect op indexes the indirect-edge table, a Ret op the
    // return-row table; both indices share an op word with the tag.
    checkTraceIndexCount(kTraceIndexCap, "indirect edges");
    checkTraceIndexCount(kTraceIndexCap, "return rows");
    EXPECT_EXIT(checkTraceIndexCount(kTraceIndexCap + std::size_t{1},
                                     "indirect edges"),
                testing::ExitedWithCode(1), "indirect edges.*kTraceIndexCap");
    EXPECT_EXIT(checkTraceIndexCount(kTraceIndexCap + std::size_t{1},
                                     "return rows"),
                testing::ExitedWithCode(1), "return rows.*kTraceIndexCap");
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
        // the layouts each cell gets from estimating its own copy.
        Program estimated = prepared.program;
        estimateProfile(estimated);
        std::vector<ProgramLayout> separate(configs.size());
        std::vector<ProgramLayout> shared(configs.size());
        pool.parallelFor(configs.size(), [&](std::size_t i) {
            const CostModel model(configs[i].arch);
            const AlignOptions options = options_for(configs[i]);
            Program own = prepared.program;
            if (configs[i].source == ProfileSource::Estimated)
                estimateProfile(own);
            separate[i] =
                alignProgram(own, configs[i].kind, &model, options);
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
