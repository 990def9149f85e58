/**
 * @file
 * Objective comparison: the 1994 Table-1 cost aligners scored by the
 * modern ExtTSP objective (Newell & Pupyrev, arXiv:1809.04676) on the same
 * CFGs, traces and simulator. The ExtTsp configuration is not a column:
 * it lays out Greedy's chains (DESIGN.md §9.2).
 *
 * For every suite program and each of Greedy, Cost and Try15 (guided by
 * the paper's Table-1 objective), the bench reports:
 *
 *   - the ExtTSP score of the layout (higher is better; computed on the
 *     architecture-independent layout, i.e. without the BT/FNT override),
 *   - the dynamic fall-through rate, averaged over all 8 architectures,
 *   - the relative CPI vs. the original layout, averaged over all 8
 *     architectures.
 *
 * Flags:
 *   --quick   cap the per-program trace at 50k instructions (CI smoke;
 *             BALIGN_TRACE_INSTRS still wins when set)
 *   --json    emit one machine-readable JSON document on stdout instead
 *             of the table (per-architecture detail included)
 */

#include <cstring>
#include <iostream>

#include "bench_util.h"
#include "core/align_program.h"
#include "objective/exttsp.h"
#include "sim/runner.h"
#include "support/log.h"
#include "support/table.h"

using namespace balign;

namespace {

struct Contender
{
    const char *label;
    AlignerKind kind;
    ObjectiveKind objective;
};

const Contender kContenders[] = {
    {"greedy", AlignerKind::Greedy, ObjectiveKind::TableCost},
    {"cost", AlignerKind::Cost, ObjectiveKind::TableCost},
    {"try15", AlignerKind::Try15, ObjectiveKind::TableCost},
};

constexpr std::size_t kNumContenders =
    sizeof(kContenders) / sizeof(kContenders[0]);

/// Per-(program, contender) aggregates.
struct Row
{
    double score = 0.0;              ///< ExtTSP score, arch-independent layout
    double meanFallThrough = 0.0;    ///< % of transfers, mean over archs
    double meanRelCpi = 0.0;         ///< vs original, mean over archs
    std::vector<double> fallThrough; ///< per-arch detail (JSON)
    std::vector<double> relCpi;      ///< per-arch detail (JSON)
};

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
            fatal("bench_objective_compare: unknown flag '%s'", argv[i]);
    }

    std::vector<ProgramSpec> suite = bench::tunedSuite(benchmarkSuite());
    if (quick && std::getenv("BALIGN_TRACE_INSTRS") == nullptr) {
        for (ProgramSpec &spec : suite)
            spec.traceInstrs = 50'000;
    }

    std::vector<ExperimentConfig> configs;
    for (const Contender &contender : kContenders) {
        for (const Arch arch : allArchs())
            configs.push_back({arch, contender.kind, contender.objective});
    }

    const bench::WallClock wall;
    PhaseTimes times;
    RunnerOptions runner;
    runner.times = &times;
    const std::vector<ExperimentRun> runs = runSuite(suite, configs, runner);

    // ExtTSP scores come from the architecture-independent layouts (the
    // plain Fallthrough-model alignment, no BT/FNT override) so one score
    // describes each contender's layout per program.
    std::vector<std::vector<Row>> rows(runs.size());
    for (std::size_t r = 0; r < runs.size(); ++r) {
        const ExperimentRun &run = runs[r];
        const ProgramSpec &spec = suite[r];
        // Same generation + profiling walk as runSuite, so the layouts
        // scored here are the ones the experiment evaluated.
        const Program program = prepareProgram(spec).program;
        rows[r].resize(kNumContenders);
        for (std::size_t c = 0; c < kNumContenders; ++c) {
            const Contender &contender = kContenders[c];
            Row &row = rows[r][c];

            const CostModel model(Arch::Fallthrough);
            AlignOptions options;
            options.objective = contender.objective;
            const ProgramLayout layout =
                alignProgram(program, contender.kind, &model, options);
            row.score = extTspScore(program, layout);

            for (const Arch arch : allArchs()) {
                const ExperimentCell &cell =
                    run.cell(arch, contender.kind);
                row.fallThrough.push_back(cell.eval.pctFallThrough());
                row.relCpi.push_back(cell.relCpi);
                row.meanFallThrough += cell.eval.pctFallThrough();
                row.meanRelCpi += cell.relCpi;
            }
            row.meanFallThrough /= static_cast<double>(allArchs().size());
            row.meanRelCpi /= static_cast<double>(allArchs().size());
        }
    }

    if (json) {
        std::ostream &os = std::cout;
        os << "{\"bench\":\"objective_compare\",\"archs\":[";
        for (std::size_t a = 0; a < allArchs().size(); ++a)
            os << (a ? "," : "") << "\"" << archName(allArchs()[a]) << "\"";
        os << "],\"programs\":[";
        for (std::size_t r = 0; r < runs.size(); ++r) {
            os << (r ? "," : "") << "{\"name\":\"" << runs[r].name
               << "\",\"group\":\"" << runs[r].group << "\",\"layouts\":{";
            for (std::size_t c = 0; c < kNumContenders; ++c) {
                const Row &row = rows[r][c];
                os << (c ? "," : "") << "\"" << kContenders[c].label
                   << "\":{\"objective\":\""
                   << objectiveKindName(kContenders[c].objective)
                   << "\",\"exttsp_score\":" << row.score
                   << ",\"fall_through_pct\":" << row.meanFallThrough
                   << ",\"rel_cpi\":" << row.meanRelCpi
                   << ",\"fall_through_by_arch\":[";
                for (std::size_t a = 0; a < row.fallThrough.size(); ++a)
                    os << (a ? "," : "") << row.fallThrough[a];
                os << "],\"rel_cpi_by_arch\":[";
                for (std::size_t a = 0; a < row.relCpi.size(); ++a)
                    os << (a ? "," : "") << row.relCpi[a];
                os << "]}";
            }
            os << "}}";
        }
        os << "]}\n";
    } else {
        Table table({"Program", "Score/Greedy", "Score/Cost", "Score/Try15",
                     "FT%/Greedy", "FT%/Cost", "FT%/Try15", "CPI/Greedy",
                     "CPI/Cost", "CPI/Try15"});
        for (std::size_t r = 0; r < runs.size(); ++r) {
            Table &row = table.row().cell(runs[r].name);
            for (std::size_t c = 0; c < kNumContenders; ++c)
                row.cell(rows[r][c].score, 1);
            for (std::size_t c = 0; c < kNumContenders; ++c)
                row.cell(rows[r][c].meanFallThrough, 1);
            for (std::size_t c = 0; c < kNumContenders; ++c)
                row.cell(rows[r][c].meanRelCpi, 3);
        }
        std::cout << "Objective comparison: Table-1 cost aligners under "
                     "the ExtTSP score\n(score = ExtTSP layout score, higher "
                     "better; FT% and rel CPI averaged over all 8 "
                     "architectures)\n\n";
        table.print(std::cout);
    }

    std::cerr << bench::timingJson("objective_compare", defaultThreads(),
                                   suite.size(), wall.seconds(), times)
              << "\n";
    return 0;
}
