/**
 * @file
 * Micro-benchmarks (google-benchmark): throughput of the core components —
 * the trace walker, the predictors, the chain set, the aligners and the
 * materializer. These are engineering benchmarks for the library itself,
 * not paper reproductions.
 */

#include <benchmark/benchmark.h>

#include "bpred/btb.h"
#include "check/differ.h"
#include "sim/batch_replay.h"
#include "support/saturating_counter.h"
#include "bpred/evaluator.h"
#include "bpred/gshare.h"
#include "bpred/pht.h"
#include "core/align_program.h"
#include "layout/materialize.h"
#include "sim/cpi.h"
#include "support/log.h"
#include "support/rng.h"
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
BM_PhtPredict(benchmark::State &state)
{
    PhtDirect pht(4096);
    Rng rng(7);
    std::uint64_t penalty = 0;
    for (auto _ : state) {
        const Addr site = rng.nextBounded(1 << 20);
        const bool taken = rng.nextBool(0.6);
        penalty += pht.predict(site) != taken;
        pht.update(site, taken);
    }
    benchmark::DoNotOptimize(penalty);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PhtPredict);

void
BM_GsharePredict(benchmark::State &state)
{
    Gshare gshare(4096, 12);
    Rng rng(7);
    std::uint64_t penalty = 0;
    for (auto _ : state) {
        const Addr site = rng.nextBounded(1 << 20);
        const bool taken = rng.nextBool(0.6);
        penalty += gshare.predict(site) != taken;
        gshare.update(site, taken);
    }
    benchmark::DoNotOptimize(penalty);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GsharePredict);

void
BM_BtbLookupUpdate(benchmark::State &state)
{
    Btb btb(256, 4);
    Rng rng(7);
    std::uint64_t hits = 0;
    for (auto _ : state) {
        const Addr site = rng.nextBounded(1 << 12);
        hits += btb.lookup(site).has_value();
        btb.update(site, true, site + 16);
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BtbLookupUpdate);

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

void
BM_EvaluateTrace(benchmark::State &state)
{
    const PreparedProgram prepared = prepareProgram(mediumSpec());
    const ProgramLayout layout = originalLayout(prepared.program);
    for (auto _ : state) {
        ArchEvaluator eval(prepared.program, layout,
                           EvalParams::forArch(Arch::PhtDirect));
        walk(prepared.program, prepared.walk, eval.sink());
        benchmark::DoNotOptimize(eval.result().instrs);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 200'000);
}
BENCHMARK(BM_EvaluateTrace);

// One batched sweep evaluating ALL architectures at once against the
// recorded trace, vs one streaming ArchEvaluator replay per architecture.
// items_processed counts trace instructions times lanes, so the items/s
// ratio is the per-lane replay speedup (soft-checked in CI).
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

void
BM_ReplayPerCell(benchmark::State &state)
{
    const PreparedProgram prepared = prepareProgram(mediumSpec());
    const ProgramLayout layout = originalLayout(prepared.program);
    for (auto _ : state) {
        std::uint64_t instrs = 0;
        for (const Arch arch : allArchs()) {
            ArchEvaluator eval(prepared.program, layout,
                               EvalParams::forArch(arch));
            prepared.trace->replay(prepared.program, eval.sink());
            instrs += eval.result().instrs;
        }
        benchmark::DoNotOptimize(instrs);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            200'000 *
                            static_cast<std::int64_t>(allArchs().size()));
}
BENCHMARK(BM_ReplayPerCell);

// The branchless saturating-counter update (arithmetic clamp) the SoA
// predictor tables use, vs the compare-and-step member function.
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

void
BM_CounterBranchy(benchmark::State &state)
{
    Rng rng(7);
    std::vector<SaturatingCounter> table(4096);
    std::vector<std::uint32_t> sites(8192);
    std::vector<std::uint8_t> outcomes(8192);
    for (std::size_t i = 0; i < sites.size(); ++i) {
        sites[i] = static_cast<std::uint32_t>(rng.nextBounded(4096));
        outcomes[i] = rng.nextBool(0.6) ? 1 : 0;
    }
    std::uint64_t mispredicts = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < sites.size(); ++i) {
            SaturatingCounter &counter = table[sites[i]];
            mispredicts += counter.taken() != (outcomes[i] != 0);
            counter.update(outcomes[i] != 0);
        }
    }
    benchmark::DoNotOptimize(mispredicts);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(sites.size()));
}
BENCHMARK(BM_CounterBranchy);

}  // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
