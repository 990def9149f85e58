/**
 * @file
 * Hardware sensitivity sweep (extension): the paper contrasts a 64-entry
 * 2-way BTB with a 256-entry 4-way one and observes that alignment helps
 * the small one more. This harness extends that observation into curves:
 * BTB size and PHT size versus the benefit of Try15 alignment, averaged
 * over the SPECint92 models.
 *
 * Execution: programs run in parallel on the experiment runner's thread
 * pool, and within each program one batched replay of the recorded trace
 * evaluates every (structure size, layout) point as a lane. Per-program
 * results are reduced in program order afterwards, so the printed
 * averages are identical for any BALIGN_THREADS.
 */

#include <iostream>

#include "bench_util.h"
#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "sim/runner.h"
#include "support/log.h"
#include "support/table.h"
#include "support/thread_pool.h"

using namespace balign;

namespace {

struct SweepPoint
{
    double orig = 0.0;
    double aligned = 0.0;
    int programs = 0;
};

}  // namespace

int
main()
{
    setVerbose(false);
    const char *names[] = {"compress", "eqntott", "espresso", "gcc", "li",
                           "sc"};
    const std::size_t num_programs = std::size(names);

    // ---- BTB size sweep (ways fixed at 4, except the tiny points). ----
    struct BtbConfig
    {
        std::size_t entries;
        std::size_t ways;
    };
    const BtbConfig btb_configs[] = {{16, 2}, {32, 2}, {64, 2},
                                     {128, 4}, {256, 4}, {1024, 4}};
    std::vector<SweepPoint> btb_points(std::size(btb_configs));

    // ---- PHT size sweep. ----
    const std::size_t pht_sizes[] = {256, 1024, 4096, 16384};
    std::vector<SweepPoint> pht_points(std::size(pht_sizes));

    const bench::WallClock wall;
    PhaseTimes times;
    ThreadPool pool(defaultThreads());

    // Per-program relative CPIs, written to slot [program][point] so the
    // serial reduction below is schedule-independent.
    const std::size_t points_per_program =
        2 * (std::size(btb_configs) + std::size(pht_sizes));
    std::vector<std::vector<double>> rel_cpis(
        num_programs, std::vector<double>(points_per_program, 0.0));

    pool.parallelFor(num_programs, [&](std::size_t prog_index) {
        ProgramSpec spec = suiteSpec(names[prog_index]);
        spec.traceInstrs = 1'000'000;
        if (const char *env = std::getenv("BALIGN_TRACE_INSTRS")) {
            const auto v = std::strtoull(env, nullptr, 10);
            if (v > 0)
                spec.traceInstrs = v;
        }
        PreparedProgram prepared;
        {
            ScopedPhaseTimer timer(&times, "prepare");
            prepared = prepareProgram(spec);
        }

        // Layouts: original and Try15 for each architecture family. The
        // alignment itself uses the default-size cost model, as a real
        // deployment would — the hardware sweep varies the machine, not
        // the compiler.
        const CostModel btb_model(Arch::BtbLarge);
        const CostModel pht_model(Arch::PhtDirect);
        ProgramLayout orig, btb_aligned, pht_aligned;
        {
            ScopedPhaseTimer timer(&times, "align");
            orig = originalLayout(prepared.program);
            btb_aligned = alignProgram(prepared.program, AlignerKind::Try15,
                                       &btb_model);
            pht_aligned = alignProgram(prepared.program, AlignerKind::Try15,
                                       &pht_model);
        }

        // Evaluation points as lanes: the original layout carries every
        // point, each aligned layout the points of its family.
        std::vector<EvalParams> btb_lanes;
        for (const auto &config : btb_configs) {
            EvalParams params = EvalParams::forArch(Arch::BtbLarge);
            params.btbEntries = config.entries;
            params.btbWays = config.ways;
            btb_lanes.push_back(params);
        }
        std::vector<EvalParams> pht_lanes;
        for (std::size_t size : pht_sizes) {
            EvalParams params = EvalParams::forArch(Arch::PhtDirect);
            params.phtEntries = size;
            pht_lanes.push_back(params);
        }
        std::vector<EvalParams> orig_lanes = btb_lanes;
        orig_lanes.insert(orig_lanes.end(), pht_lanes.begin(),
                          pht_lanes.end());

        std::vector<std::vector<EvalResult>> results;
        {
            ScopedPhaseTimer timer(&times, "replay");
            results = runBatchReplay(prepared.program,
                                     {{&orig, orig_lanes},
                                      {&btb_aligned, btb_lanes},
                                      {&pht_aligned, pht_lanes}},
                                     *prepared.batch);
        }

        // The relative-CPI anchor: the original layout's instruction
        // count, identical in every lane.
        const std::uint64_t base = results[0][0].instrs;
        std::vector<double> &out = rel_cpis[prog_index];
        std::size_t index = 0;
        for (std::size_t c = 0; c < btb_lanes.size(); ++c) {
            out[index++] = results[0][c].relativeCpi(base);
            out[index++] = results[1][c].relativeCpi(base);
        }
        for (std::size_t c = 0; c < pht_lanes.size(); ++c) {
            out[index++] = results[0][btb_lanes.size() + c].relativeCpi(base);
            out[index++] = results[2][c].relativeCpi(base);
        }
    });

    // Order-stable reduction: programs in name order, points in sweep order.
    for (std::size_t prog_index = 0; prog_index < num_programs;
         ++prog_index) {
        std::size_t index = 0;
        for (std::size_t c = 0; c < std::size(btb_configs); ++c) {
            btb_points[c].orig += rel_cpis[prog_index][index++];
            btb_points[c].aligned += rel_cpis[prog_index][index++];
            ++btb_points[c].programs;
        }
        for (std::size_t c = 0; c < std::size(pht_sizes); ++c) {
            pht_points[c].orig += rel_cpis[prog_index][index++];
            pht_points[c].aligned += rel_cpis[prog_index][index++];
            ++pht_points[c].programs;
        }
    }

    std::cout << "Hardware sweep: alignment benefit vs predictor size "
                 "(SPECint92 average relative CPI)\n\n";
    Table btb_table({"BTB", "orig", "Try15", "gain"});
    for (std::size_t c = 0; c < std::size(btb_configs); ++c) {
        const auto &point = btb_points[c];
        const double orig = point.orig / point.programs;
        const double aligned = point.aligned / point.programs;
        btb_table.row()
            .cell(std::to_string(btb_configs[c].entries) + "x" +
                  std::to_string(btb_configs[c].ways))
            .cell(orig, 3)
            .cell(aligned, 3)
            .cell(orig - aligned, 3);
    }
    btb_table.print(std::cout);

    std::cout << "\n";
    Table pht_table({"PHT entries", "orig", "Try15", "gain"});
    for (std::size_t c = 0; c < std::size(pht_sizes); ++c) {
        const auto &point = pht_points[c];
        const double orig = point.orig / point.programs;
        const double aligned = point.aligned / point.programs;
        pht_table.row()
            .cell(static_cast<std::uint64_t>(pht_sizes[c]))
            .cell(orig, 3)
            .cell(aligned, 3)
            .cell(orig - aligned, 3);
    }
    pht_table.print(std::cout);
    std::cout << "\n(the smaller the structure, the more alignment helps "
                 "— the paper's small-vs-large BTB point, as a curve)\n";
    std::cerr << bench::timingJson("sweep_hardware", defaultThreads(),
                                   num_programs, wall.seconds(), times)
              << "\n";
    return 0;
}
