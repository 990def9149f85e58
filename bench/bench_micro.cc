/**
 * @file
 * Micro-benchmarks (google-benchmark): throughput of the core components —
 * the trace walker, the batched predictor replay, the aligners, the
 * materializer and the static profile estimator. These are engineering
 * benchmarks for the library itself, not paper reproductions.
 */

#include <benchmark/benchmark.h>

#include "bpred/cost_model.h"
#include "check/differ.h"
#include "core/align_program.h"
#include "estimate/estimate.h"
#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "sim/cpi.h"
#include "support/log.h"
#include "support/rng.h"
#include "support/saturating_counter.h"
#include "trace/walker.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

ProgramSpec
mediumSpec()
{
    ProgramSpec spec = suiteSpec("espresso");
    spec.traceInstrs = 200'000;
    return spec;
}

void
BM_WalkTrace(benchmark::State &state)
{
    const Program program = generateProgram(mediumSpec());
    WalkOptions options;
    options.instrBudget = 200'000;
    NullSink sink;
    for (auto _ : state) {
        const WalkResult result = walk(program, options, sink);
        benchmark::DoNotOptimize(result.instrs);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 200'000);
}
BENCHMARK(BM_WalkTrace);

void
BM_AlignGreedy(benchmark::State &state)
{
    const PreparedProgram prepared = prepareProgram(mediumSpec());
    for (auto _ : state) {
        const ProgramLayout layout =
            alignProgram(prepared.program, AlignerKind::Greedy, nullptr);
        benchmark::DoNotOptimize(layout.totalInstrs);
    }
}
BENCHMARK(BM_AlignGreedy);

// Same alignment with the translation-validating post-condition
// switched off: the delta against BM_AlignGreedy is the price of
// proving every emitted layout (DESIGN.md §10.4).
void
BM_AlignGreedyNoVerify(benchmark::State &state)
{
    const PreparedProgram prepared = prepareProgram(mediumSpec());
    AlignOptions options;
    options.verify = false;
    for (auto _ : state) {
        const ProgramLayout layout = alignProgram(
            prepared.program, AlignerKind::Greedy, nullptr, options);
        benchmark::DoNotOptimize(layout.totalInstrs);
    }
}
BENCHMARK(BM_AlignGreedyNoVerify);

void
BM_AlignCost(benchmark::State &state)
{
    const PreparedProgram prepared = prepareProgram(mediumSpec());
    const CostModel model(Arch::Fallthrough);
    for (auto _ : state) {
        const ProgramLayout layout =
            alignProgram(prepared.program, AlignerKind::Cost, &model);
        benchmark::DoNotOptimize(layout.totalInstrs);
    }
}
BENCHMARK(BM_AlignCost);

void
BM_AlignTryN(benchmark::State &state)
{
    const PreparedProgram prepared = prepareProgram(mediumSpec());
    const CostModel model(Arch::Fallthrough);
    AlignOptions options;
    options.groupSize = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        const ProgramLayout layout = alignProgram(
            prepared.program, AlignerKind::Try15, &model, options);
        benchmark::DoNotOptimize(layout.totalInstrs);
    }
}
BENCHMARK(BM_AlignTryN)->Arg(5)->Arg(10)->Arg(15);

void
BM_Materialize(benchmark::State &state)
{
    const PreparedProgram prepared = prepareProgram(mediumSpec());
    for (auto _ : state) {
        const ProgramLayout layout = originalLayout(prepared.program);
        benchmark::DoNotOptimize(layout.totalInstrs);
    }
}
BENCHMARK(BM_Materialize);

// The static estimator on the gcc model scaled to range(0) procedures,
// in blocks/s: the two sizes give its growth exponent in blocks.
void
BM_EstimateGcc(benchmark::State &state)
{
    ProgramSpec spec = suiteSpec("gcc");
    spec.numProcs = static_cast<unsigned>(state.range(0));
    Program program = generateProgram(spec);
    std::int64_t blocks = 0;
    for (const Procedure &proc : program.procs())
        blocks += static_cast<std::int64_t>(proc.numBlocks());
    for (auto _ : state) {
        const EstimateReport report = estimateProfile(program);
        benchmark::DoNotOptimize(report.totalStranded);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            blocks);
    state.counters["blocks"] = static_cast<double>(blocks);
}
BENCHMARK(BM_EstimateGcc)->Arg(500)->Arg(4000)->Unit(benchmark::kMillisecond);

// One batched sweep evaluating ALL architectures at once against the
// recorded trace. items_processed counts trace instructions times lanes.
void
BM_ReplayBatched(benchmark::State &state)
{
    const PreparedProgram prepared = prepareProgram(mediumSpec());
    const ProgramLayout layout = originalLayout(prepared.program);
    std::vector<EvalParams> lanes;
    for (const Arch arch : allArchs())
        lanes.push_back(EvalParams::forArch(arch));
    for (auto _ : state) {
        const std::vector<EvalResult> results = runBatchReplay(
            prepared.program, layout, *prepared.batch, lanes);
        benchmark::DoNotOptimize(results[0].instrs);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            200'000 *
                            static_cast<std::int64_t>(lanes.size()));
}
BENCHMARK(BM_ReplayBatched);

/// The 18 layouts the paper matrix (7 architectures x {Original, Greedy,
/// Cost, Try15}) aligns for one program, each with the lanes runConfigs
/// gives it: Original and Greedy carry every architecture but BT/FNT,
/// their BT/FNT-ordered twins carry BT/FNT, and each Cost and Try15
/// layout carries the architecture it was priced for.
struct PaperMatrixLanes
{
    std::vector<ProgramLayout> layouts;
    std::vector<std::vector<EvalParams>> lanes;
    std::int64_t laneCount = 0;
};

PaperMatrixLanes
paperMatrixLanes(const Program &program)
{
    const std::vector<Arch> archs = {
        Arch::Fallthrough,   Arch::BtFnt,    Arch::Likely,  Arch::PhtDirect,
        Arch::PhtCorrelated, Arch::BtbSmall, Arch::BtbLarge};
    PaperMatrixLanes matrix;
    auto add = [&](AlignerKind kind, Arch priced_for,
                   const std::vector<Arch> &lane_archs) {
        const CostModel model(priced_for);
        AlignOptions options;
        if (priced_for == Arch::BtFnt)
            options.chainOrder = ChainOrderPolicy::BtFntPrecedence;
        matrix.layouts.push_back(
            alignProgram(program, kind, &model, options));
        std::vector<EvalParams> lanes;
        for (const Arch arch : lane_archs)
            lanes.push_back(EvalParams::forArch(arch));
        matrix.laneCount += static_cast<std::int64_t>(lanes.size());
        matrix.lanes.push_back(std::move(lanes));
    };
    std::vector<Arch> shared;
    for (const Arch arch : archs) {
        if (arch != Arch::BtFnt)
            shared.push_back(arch);
    }
    for (const AlignerKind kind : {AlignerKind::Original, AlignerKind::Greedy}) {
        add(kind, Arch::Fallthrough, shared);
        add(kind, Arch::BtFnt, {Arch::BtFnt});
    }
    for (const AlignerKind kind : {AlignerKind::Cost, AlignerKind::Try15}) {
        for (const Arch arch : archs)
            add(kind, arch, {arch});
    }
    return matrix;
}

// All 18 paper-matrix layouts in ONE runBatchReplay call (one pass over
// the op stream), vs one call per layout. items_processed counts trace
// instructions times lanes, as BM_ReplayBatched does, so the items/s
// ratio is the one-pass speedup (soft-checked in CI).
void
BM_ReplayMultiLayout(benchmark::State &state)
{
    const PreparedProgram prepared = prepareProgram(mediumSpec());
    const PaperMatrixLanes matrix = paperMatrixLanes(prepared.program);
    std::vector<LayoutLanes> input;
    for (std::size_t k = 0; k < matrix.layouts.size(); ++k)
        input.push_back({&matrix.layouts[k], matrix.lanes[k]});
    for (auto _ : state) {
        const std::vector<std::vector<EvalResult>> results =
            runBatchReplay(prepared.program, input, *prepared.batch);
        benchmark::DoNotOptimize(results[0][0].instrs);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            200'000 * matrix.laneCount);
}
BENCHMARK(BM_ReplayMultiLayout);

void
BM_ReplayPerLayout(benchmark::State &state)
{
    const PreparedProgram prepared = prepareProgram(mediumSpec());
    const PaperMatrixLanes matrix = paperMatrixLanes(prepared.program);
    for (auto _ : state) {
        std::uint64_t instrs = 0;
        for (std::size_t k = 0; k < matrix.layouts.size(); ++k) {
            const std::vector<EvalResult> results =
                runBatchReplay(prepared.program, matrix.layouts[k],
                               *prepared.batch, matrix.lanes[k]);
            instrs += results[0].instrs;
        }
        benchmark::DoNotOptimize(instrs);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            200'000 * matrix.laneCount);
}
BENCHMARK(BM_ReplayPerLayout);

// The branchless saturating-counter update (arithmetic clamp) the SoA
// predictor tables use.
void
BM_CounterBranchless(benchmark::State &state)
{
    Rng rng(7);
    std::vector<std::uint8_t> table(4096, 1);
    std::vector<std::uint32_t> sites(8192);
    std::vector<std::uint8_t> outcomes(8192);
    for (std::size_t i = 0; i < sites.size(); ++i) {
        sites[i] = static_cast<std::uint32_t>(rng.nextBounded(4096));
        outcomes[i] = rng.nextBool(0.6) ? 1 : 0;
    }
    std::uint64_t mispredicts = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < sites.size(); ++i) {
            const std::uint8_t value = table[sites[i]];
            mispredicts += saturatingTaken(value, 3) != (outcomes[i] != 0);
            table[sites[i]] = saturatingUpdate(value, 3, outcomes[i] != 0);
        }
    }
    benchmark::DoNotOptimize(mispredicts);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(sites.size()));
}
BENCHMARK(BM_CounterBranchless);

}  // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
