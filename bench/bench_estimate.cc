/**
 * @file
 * Static profile estimation: alignment quality and prediction accuracy.
 *
 * Part 1 — CPI. Every suite program is aligned three ways for a 2x2
 * contender matrix (Cost and Try15 under the Table-1 and ExtTSP
 * objectives): on the true measured profile, on the static estimate
 * (estimate/estimate.h — no trace at all), and on a mid-severity
 * degraded profile (sampling 1/16) as the reference point between the
 * two. Evaluation always replays the true recorded trace (BT/FNT). The
 * headline number is the recovery fraction: how much of the
 * true-profile CPI improvement over the original (fall-through) layout
 * the estimate retains. The bench FAILS (exit 1) if estimated-profile
 * alignment is not strictly better than the original layout on
 * suite-mean CPI for any contender — the minimum bar for a profile-free
 * default.
 *
 * Part 2 — accuracy. For every conditional branch the estimator's
 * predicted direction (combined taken-probability >= 0.5) is scored
 * against the true profile, weighted by the branch's execution count —
 * the classic weighted static-prediction hit rate (Ball-Larus report
 * ~70-80% on real programs).
 *
 * Part 3 — throughput. Part 2's estimateProfile call is timed per
 * program: seconds and blocks/s ride along with each program's accuracy,
 * and the suite totals are reported next to the weighted hit rate.
 *
 * Flags:
 *   --quick   cap the per-program trace at 50k instructions (CI smoke;
 *             BALIGN_TRACE_INSTRS still wins when set)
 *   --json    emit one machine-readable JSON document on stdout instead
 *             of the tables
 */

#include <cstring>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "estimate/estimate.h"
#include "sim/runner.h"
#include "support/log.h"
#include "support/table.h"

using namespace balign;

namespace {

constexpr Arch kArch = Arch::BtFnt;

struct Contender
{
    const char *label;
    AlignerKind kind;
    ObjectiveKind objective;
};

const Contender kContenders[] = {
    {"cost/table-cost", AlignerKind::Cost, ObjectiveKind::TableCost},
    {"cost/exttsp", AlignerKind::Cost, ObjectiveKind::ExtTsp},
    {"try15/table-cost", AlignerKind::Try15, ObjectiveKind::TableCost},
    {"try15/exttsp", AlignerKind::Try15, ObjectiveKind::ExtTsp},
};

constexpr std::size_t kNumContenders =
    sizeof(kContenders) / sizeof(kContenders[0]);

/// The three profile sources each contender is aligned on. The degraded
/// reference point is sampling 1/16 — the middle of bench_robustness's
/// severity ladder.
enum SourcePoint { kTrue = 0, kEstimated = 1, kDegraded = 2, kNumSources };

const char *const kSourceLabels[kNumSources] = {"true", "estimated",
                                                "degraded"};

DegradeSpec
degradedReference()
{
    DegradeSpec spec;
    spec.kind = DegradeKind::Sample;
    spec.n = 16;
    spec.seed = 1;
    return spec;
}

/// Weighted static-prediction hit rate of the estimate against the true
/// profile: for every conditional branch, the execution weight of the
/// direction the estimator favours over the branch's total weight.
struct Accuracy
{
    double hits = 0.0;
    double total = 0.0;

    double
    rate() const
    {
        return total > 0.0 ? hits / total : 1.0;
    }
};

Accuracy
scoreEstimate(const Program &truth, const EstimateReport &report)
{
    Accuracy acc;
    for (ProcId p = 0; p < truth.numProcs(); ++p) {
        const Procedure &proc = truth.proc(p);
        for (BlockId b = 0; b < proc.numBlocks(); ++b) {
            if (proc.block(b).term != Terminator::CondBranch)
                continue;
            const std::int64_t taken = proc.takenEdge(b);
            const std::int64_t fall = proc.fallThroughEdge(b);
            if (taken < 0 || fall < 0)
                continue;
            const double wt = static_cast<double>(
                proc.edge(static_cast<std::uint32_t>(taken)).weight);
            const double wf = static_cast<double>(
                proc.edge(static_cast<std::uint32_t>(fall)).weight);
            const double prob =
                report.edgeProbs[p][static_cast<std::size_t>(taken)];
            acc.hits += prob >= 0.5 ? wt : wf;
            acc.total += wt + wf;
        }
    }
    return acc;
}

}  // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    bool quick = false;
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--json") == 0)
            json = true;
        else
            fatal("bench_estimate: unknown flag '%s'", argv[i]);
    }

    std::vector<ProgramSpec> suite = bench::tunedSuite(benchmarkSuite());
    if (quick && std::getenv("BALIGN_TRACE_INSTRS") == nullptr) {
        for (ProgramSpec &spec : suite)
            spec.traceInstrs = 50'000;
    }

    // Part 1: one run per program; cell order mirrors `configs`.
    std::vector<ExperimentConfig> configs;
    configs.push_back({kArch, AlignerKind::Original});
    for (const Contender &contender : kContenders) {
        ExperimentConfig config{kArch, contender.kind, contender.objective};
        configs.push_back(config);  // true profile
        config.source = ProfileSource::Estimated;
        configs.push_back(config);  // static estimate
        config.source = ProfileSource::Measured;
        config.degrade = degradedReference();
        configs.push_back(config);  // degraded reference
    }

    const bench::WallClock wall;
    PhaseTimes times;
    RunnerOptions runner;
    runner.times = &times;
    const std::vector<ExperimentRun> runs = runSuite(suite, configs, runner);

    double original = 0.0;  // the fall-through baseline every row beats
    double cpi[kNumContenders][kNumSources] = {};
    for (const ExperimentRun &run : runs) {
        original += run.cells[0].relCpi;
        std::size_t cell = 1;
        for (std::size_t c = 0; c < kNumContenders; ++c) {
            for (std::size_t s = 0; s < kNumSources; ++s)
                cpi[c][s] += run.cells[cell++].relCpi;
        }
    }
    original /= static_cast<double>(runs.size());
    for (auto &row : cpi) {
        for (double &value : row)
            value /= static_cast<double>(runs.size());
    }

    // Parts 2 and 3: weighted prediction accuracy and estimator
    // throughput per program.
    struct ProgramEstimate
    {
        std::string name;
        double accuracy;
        std::size_t blocks;
        double seconds;
    };
    std::vector<ProgramEstimate> per_program;
    Accuracy overall;
    std::size_t total_blocks = 0;
    double total_seconds = 0.0;
    for (const ProgramSpec &spec : suite) {
        const PreparedProgram prepared = prepareProgram(spec);
        Program estimated = prepared.program;
        const bench::WallClock clock;
        const EstimateReport report = estimateProfile(estimated);
        const double seconds = clock.seconds();
        std::size_t blocks = 0;
        for (const Procedure &proc : estimated.procs())
            blocks += proc.numBlocks();
        const Accuracy acc = scoreEstimate(prepared.program, report);
        per_program.push_back({spec.name, acc.rate(), blocks, seconds});
        overall.hits += acc.hits;
        overall.total += acc.total;
        total_blocks += blocks;
        total_seconds += seconds;
    }
    auto blocks_per_s = [](std::size_t blocks, double seconds) {
        return seconds > 0.0 ? static_cast<double>(blocks) / seconds : 0.0;
    };

    // The endpoint contract: the estimate must beat doing nothing (the
    // original fall-through layout), and the recovery fraction is how
    // much of the true-profile gain over that baseline it retains.
    bool beats_baseline = true;
    double recovery[kNumContenders];
    for (std::size_t c = 0; c < kNumContenders; ++c) {
        beats_baseline = beats_baseline && cpi[c][kEstimated] < original;
        const double true_gain = original - cpi[c][kTrue];
        recovery[c] = true_gain > 0.0
                          ? (original - cpi[c][kEstimated]) / true_gain
                          : 0.0;
    }

    if (json) {
        std::ostream &os = std::cout;
        os << "{\"bench\":\"estimate\",\"arch\":\"" << archName(kArch)
           << "\",\"programs\":" << runs.size()
           << ",\"rel_cpi_original\":" << original << ",\"contenders\":[";
        for (std::size_t c = 0; c < kNumContenders; ++c) {
            const Contender &contender = kContenders[c];
            os << (c ? "," : "") << "{\"aligner\":\""
               << alignerKindName(contender.kind) << "\",\"objective\":\""
               << objectiveKindName(contender.objective) << "\"";
            for (std::size_t s = 0; s < kNumSources; ++s)
                os << ",\"rel_cpi_" << kSourceLabels[s]
                   << "\":" << cpi[c][s];
            os << ",\"delta_vs_true\":" << cpi[c][kEstimated] - cpi[c][kTrue]
               << ",\"recovery_fraction\":" << recovery[c]
               << ",\"beats_baseline\":"
               << (cpi[c][kEstimated] < original ? "true" : "false") << "}";
        }
        os << "],\"weighted_accuracy\":" << overall.rate()
           << ",\"estimate_s\":" << total_seconds
           << ",\"estimate_blocks\":" << total_blocks
           << ",\"estimate_blocks_per_s\":"
           << blocks_per_s(total_blocks, total_seconds)
           << ",\"per_program_accuracy\":[";
        for (std::size_t i = 0; i < per_program.size(); ++i) {
            const ProgramEstimate &pe = per_program[i];
            os << (i ? "," : "") << "{\"program\":\"" << pe.name
               << "\",\"accuracy\":" << pe.accuracy
               << ",\"blocks\":" << pe.blocks
               << ",\"estimate_s\":" << pe.seconds
               << ",\"blocks_per_s\":" << blocks_per_s(pe.blocks, pe.seconds)
               << "}";
        }
        os << "],\"estimate_beats_baseline\":"
           << (beats_baseline ? "true" : "false") << "}\n";
    } else {
        Table table({"Contender", "true CPI", "est CPI", "degraded CPI",
                     "recovery"});
        for (std::size_t c = 0; c < kNumContenders; ++c) {
            table.row()
                .cell(kContenders[c].label)
                .cell(cpi[c][kTrue], 3)
                .cell(cpi[c][kEstimated], 3)
                .cell(cpi[c][kDegraded], 3)
                .cell(recovery[c], 2);
        }
        std::cout << "Static estimation: suite-mean rel CPI, align-on-X / "
                     "measure-on-true (BTFNT); original layout = "
                  << original << "\ndegraded reference = "
                  << degradeSpecLabel(degradedReference()) << "\n\n";
        table.print(std::cout);
        std::cout << "\nweighted static-prediction accuracy vs true "
                     "profile: "
                  << overall.rate() * 100.0 << "%\n";
        std::cout << "estimate beats fall-through baseline: "
                  << (beats_baseline ? "yes" : "NO") << "\n";
        // A wall-clock figure: on stderr, so stdout repeats run to run.
        std::cerr << "estimator throughput: " << total_blocks
                  << " blocks in " << total_seconds << " s ("
                  << blocks_per_s(total_blocks, total_seconds)
                  << " blocks/s)\n";
    }

    std::cerr << bench::timingJson("estimate", defaultThreads(),
                                   suite.size(), wall.seconds(), times)
              << "\n";
    if (!beats_baseline) {
        std::fprintf(stderr, "FAIL: estimated-profile alignment did not "
                             "beat the fall-through baseline\n");
        return 1;
    }
    return 0;
}
