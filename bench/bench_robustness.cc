/**
 * @file
 * Profile robustness: CPI-degradation curves and incremental realignment.
 *
 * Part 1 — curves. Every suite program is aligned on a *degraded* copy of
 * its profile and measured on the true recorded trace (the
 * ExperimentConfig degrade axis), for a 2x2 contender matrix (Cost and
 * Try15 under the Table-1 and ExtTSP objectives) crossed with every
 * degradation family (profile/degrade.h) along a severity ladder:
 * sampling 1/N, stale inputs, multiplicative noise eps, cross-input
 * merges, and adversarial drift t — plus the profile-free endpoint (the
 * static estimate, ProfileSource::Estimated), which is just the far end
 * of the same ladder. The curve value is the suite-mean relative CPI
 * (vs. the original layout, BT/FNT); the true-profile alignment is the
 * zero point every curve is read against.
 *
 * The ExtTSP-vs-Table-1 robustness question is answered per degradation
 * point, not just on suite means: for each ladder point the per-program
 * CPI delta vs. the true-profile alignment is paired across objectives
 * and a two-sided sign test reports whether one objective degrades
 * significantly less than the other under that specific degradation.
 * The sign tests are run per ARCHITECTURE: the full ladder on the
 * headline BT/FNT machine, and a reduced ladder (one representative
 * severity per degradation family plus the static-estimate endpoint) on
 * every other Table-1 architecture, so robustness.json records a
 * p-value per (aligner, arch, degradation) rather than assuming the
 * BT/FNT ordering generalizes. Printed tables stay BT/FNT.
 *
 * Part 2 — incremental realignment. For each program and contender the
 * profile is moved (perturb eps=0.5) and realignProgram sweeps a
 * threshold ladder from 0 (full realignment) to infinity (keep the old
 * layout). Reported per threshold: the fraction of procedures
 * re-laid-out (the cost) and the suite-mean relative CPI of the spliced
 * layout measured on the true recorded trace (the quality), plus
 * byte-identity checks at both endpoints (layout_diff.h).
 *
 * Flags:
 *   --quick   cap the per-program trace at 50k instructions (CI smoke;
 *             BALIGN_TRACE_INSTRS still wins when set)
 *   --json    emit one machine-readable JSON document on stdout instead
 *             of the tables
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/realign.h"
#include "layout/layout_diff.h"
#include "layout/materialize.h"
#include "profile/degrade.h"
#include "sim/batch_replay.h"
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

DegradeSpec
makeSpec(DegradeKind kind, std::uint32_t n, double param,
         std::uint64_t seed)
{
    DegradeSpec spec;
    spec.kind = kind;
    spec.n = n;
    spec.param = param;
    spec.seed = seed;
    return spec;
}

/// The severity ladder for every degradation family; the leading None is
/// the zero point of every curve.
std::vector<DegradeSpec>
severityLadder()
{
    std::vector<DegradeSpec> ladder;
    ladder.push_back(DegradeSpec::none());
    for (const std::uint32_t n : {4u, 16u, 64u, 256u})
        ladder.push_back(makeSpec(DegradeKind::Sample, n, 0.0, 1));
    for (const std::uint64_t seed : {2u, 3u, 4u})
        ladder.push_back(makeSpec(DegradeKind::Stale, 0, 0.0, seed));
    for (const double eps : {0.25, 0.5, 1.0, 2.0})
        ladder.push_back(makeSpec(DegradeKind::Perturb, 0, eps, 1));
    for (const std::uint32_t k : {1u, 3u, 7u})
        ladder.push_back(makeSpec(DegradeKind::Merge, k, 0.0, 1));
    for (const double t : {0.25, 0.5, 0.75, 1.0})
        ladder.push_back(makeSpec(DegradeKind::Drift, 0, t, 1));
    return ladder;
}

/// One representative severity per family — the per-architecture sign
/// tests walk this instead of the full ladder to keep the cell count
/// linear in the number of architectures. The leading None is the
/// delta zero point, as in severityLadder().
std::vector<DegradeSpec>
reducedLadder()
{
    return {DegradeSpec::none(),
            makeSpec(DegradeKind::Sample, 64, 0.0, 1),
            makeSpec(DegradeKind::Stale, 0, 0.0, 2),
            makeSpec(DegradeKind::Perturb, 0, 0.5, 1),
            makeSpec(DegradeKind::Merge, 3, 0.0, 1),
            makeSpec(DegradeKind::Drift, 0, 0.5, 1)};
}

/**
 * Two-sided sign test on @p wins successes out of @p wins + @p losses
 * paired comparisons (ties dropped): the probability under H0 (p = 1/2)
 * of a split at least this lopsided. Exact binomial, small n.
 */
double
signTestPValue(std::size_t wins, std::size_t losses)
{
    const std::size_t n = wins + losses;
    if (n == 0)
        return 1.0;
    const std::size_t extreme = std::max(wins, losses);
    // P(X >= extreme) for X ~ Binomial(n, 1/2), doubled and capped.
    double coeff = 1.0;  // C(n, k) rolling
    double tail = 0.0;
    for (std::size_t k = 0; k <= n; ++k) {
        if (k >= extreme)
            tail += coeff;
        coeff = coeff * static_cast<double>(n - k) /
                static_cast<double>(k + 1);
    }
    const double p = 2.0 * tail * std::pow(0.5, static_cast<double>(n));
    return std::min(p, 1.0);
}

/// Paired per-degradation comparison of the two objectives under one
/// aligner: mean deltas vs. the true-profile zero point and the sign
/// test over the per-program delta pairs.
struct DeltaCompare
{
    double meanDeltaTc = 0.0;  ///< table-cost mean CPI delta vs true
    double meanDeltaXt = 0.0;  ///< exttsp mean CPI delta vs true
    std::size_t winsXt = 0;    ///< programs where exttsp degraded less
    std::size_t winsTc = 0;    ///< programs where table-cost degraded less
    double pValue = 1.0;       ///< two-sided sign test (ties dropped)
};

/// The realignment threshold ladder (labels double as JSON keys).
struct ThresholdStep
{
    const char *label;
    double value;
};

const ThresholdStep kThresholds[] = {
    {"0", 0.0},         {"0.05", 0.05}, {"0.15", 0.15},
    {"0.35", 0.35},     {"0.75", 0.75}, {"inf", kNeverRealign},
};

constexpr std::size_t kNumThresholds =
    sizeof(kThresholds) / sizeof(kThresholds[0]);

/// Per-threshold suite aggregates for one contender.
struct RealignPoint
{
    double realignedFrac = 0.0;  ///< procedures re-laid-out / total
    double relCpi = 0.0;         ///< spliced layout on the moved trace
    bool identicalToFull = true; ///< threshold 0 == full alignProgram
    bool identicalToOld = true;  ///< threshold inf == old layout
};

EvalResult
evalLayout(const PreparedProgram &prepared, const ProgramLayout &layout)
{
    return runBatchReplay(prepared.program, layout, *prepared.batch,
                          {EvalParams::forArch(kArch)})[0];
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
            fatal("bench_robustness: unknown flag '%s'", argv[i]);
    }

    std::vector<ProgramSpec> suite = bench::tunedSuite(benchmarkSuite());
    if (quick && std::getenv("BALIGN_TRACE_INSTRS") == nullptr) {
        for (ProgramSpec &spec : suite)
            spec.traceInstrs = 50'000;
    }

    const std::vector<DegradeSpec> ladder = severityLadder();
    // Points per contender: the degradation ladder plus the profile-free
    // endpoint (the static estimate) as its final rung.
    const std::size_t num_points = ladder.size() + 1;
    std::vector<ExperimentConfig> configs;
    configs.push_back({kArch, AlignerKind::Original});
    for (const Contender &contender : kContenders) {
        for (const DegradeSpec &spec : ladder) {
            ExperimentConfig config{kArch, contender.kind,
                                    contender.objective};
            config.degrade = spec;
            configs.push_back(config);
        }
        ExperimentConfig estimated{kArch, contender.kind,
                                   contender.objective};
        estimated.source = ProfileSource::Estimated;
        configs.push_back(estimated);
    }

    // The per-architecture sign-test cells: every non-headline Table-1
    // architecture walks the reduced ladder (plus the estimate endpoint)
    // under each contender. The headline arch reuses the full-ladder
    // cells above.
    const std::vector<DegradeSpec> reduced = reducedLadder();
    const std::size_t num_reduced = reduced.size() + 1;
    std::vector<Arch> other_archs;
    for (const Arch arch : allArchs()) {
        if (arch != kArch)
            other_archs.push_back(arch);
    }
    for (const Arch arch : other_archs) {
        for (const Contender &contender : kContenders) {
            for (const DegradeSpec &spec : reduced) {
                ExperimentConfig config{arch, contender.kind,
                                        contender.objective};
                config.degrade = spec;
                configs.push_back(config);
            }
            ExperimentConfig estimated{arch, contender.kind,
                                       contender.objective};
            estimated.source = ProfileSource::Estimated;
            configs.push_back(estimated);
        }
    }

    const bench::WallClock wall;
    PhaseTimes times;
    RunnerOptions runner;
    runner.times = &times;
    const std::vector<ExperimentRun> runs = runSuite(suite, configs, runner);

    // Part 1: per-program relative CPI per (contender, ladder point).
    // Cell order inside each run mirrors `configs`.
    std::vector<std::vector<std::vector<double>>> values(
        kNumContenders,
        std::vector<std::vector<double>>(num_points));
    // archValues[a][c][p][program]: the reduced-ladder cells of the
    // non-headline architectures, in `other_archs` order.
    std::vector<std::vector<std::vector<std::vector<double>>>> archValues(
        other_archs.size(),
        std::vector<std::vector<std::vector<double>>>(
            kNumContenders,
            std::vector<std::vector<double>>(num_reduced)));
    for (const ExperimentRun &run : runs) {
        std::size_t cell = 1;  // skip the Original cell
        for (std::size_t c = 0; c < kNumContenders; ++c) {
            for (std::size_t p = 0; p < num_points; ++p)
                values[c][p].push_back(run.cells[cell++].relCpi);
        }
        for (std::size_t a = 0; a < other_archs.size(); ++a) {
            for (std::size_t c = 0; c < kNumContenders; ++c) {
                for (std::size_t p = 0; p < num_reduced; ++p)
                    archValues[a][c][p].push_back(
                        run.cells[cell++].relCpi);
            }
        }
    }
    std::vector<std::vector<double>> curves(
        kNumContenders, std::vector<double>(num_points, 0.0));
    for (std::size_t c = 0; c < kNumContenders; ++c) {
        for (std::size_t p = 0; p < num_points; ++p) {
            for (const double value : values[c][p])
                curves[c][p] += value;
            curves[c][p] /= static_cast<double>(runs.size());
        }
    }

    // Per-degradation objective comparison: pair the per-program deltas
    // (vs. the true-profile zero point) of table-cost and exttsp under
    // the same aligner and sign-test them. Contender layout: pairs are
    // (0, 1) = cost and (2, 3) = try15.
    const std::size_t kPairs[][2] = {{0, 1}, {2, 3}};
    const char *kPairNames[] = {"cost", "try15"};
    std::vector<std::vector<DeltaCompare>> compares(
        2, std::vector<DeltaCompare>(num_points));
    for (std::size_t pair = 0; pair < 2; ++pair) {
        const std::size_t tc = kPairs[pair][0];
        const std::size_t xt = kPairs[pair][1];
        for (std::size_t p = 0; p < num_points; ++p) {
            DeltaCompare &cmp = compares[pair][p];
            for (std::size_t i = 0; i < runs.size(); ++i) {
                const double delta_tc = values[tc][p][i] - values[tc][0][i];
                const double delta_xt = values[xt][p][i] - values[xt][0][i];
                cmp.meanDeltaTc += delta_tc;
                cmp.meanDeltaXt += delta_xt;
                if (delta_xt < delta_tc)
                    ++cmp.winsXt;
                else if (delta_tc < delta_xt)
                    ++cmp.winsTc;
            }
            cmp.meanDeltaTc /= static_cast<double>(runs.size());
            cmp.meanDeltaXt /= static_cast<double>(runs.size());
            cmp.pValue = signTestPValue(cmp.winsXt, cmp.winsTc);
        }
    }
    // The same pairing per non-headline architecture over the reduced
    // ladder.
    std::vector<std::vector<std::vector<DeltaCompare>>> archCompares(
        other_archs.size(),
        std::vector<std::vector<DeltaCompare>>(
            2, std::vector<DeltaCompare>(num_reduced)));
    for (std::size_t a = 0; a < other_archs.size(); ++a) {
        for (std::size_t pair = 0; pair < 2; ++pair) {
            const std::size_t tc = kPairs[pair][0];
            const std::size_t xt = kPairs[pair][1];
            for (std::size_t p = 0; p < num_reduced; ++p) {
                DeltaCompare &cmp = archCompares[a][pair][p];
                for (std::size_t i = 0; i < runs.size(); ++i) {
                    const double delta_tc =
                        archValues[a][tc][p][i] - archValues[a][tc][0][i];
                    const double delta_xt =
                        archValues[a][xt][p][i] - archValues[a][xt][0][i];
                    cmp.meanDeltaTc += delta_tc;
                    cmp.meanDeltaXt += delta_xt;
                    if (delta_xt < delta_tc)
                        ++cmp.winsXt;
                    else if (delta_tc < delta_xt)
                        ++cmp.winsTc;
                }
                cmp.meanDeltaTc /= static_cast<double>(runs.size());
                cmp.meanDeltaXt /= static_cast<double>(runs.size());
                cmp.pValue = signTestPValue(cmp.winsXt, cmp.winsTc);
            }
        }
    }

    // Part 2: the realignment threshold sweep against a moved profile.
    const DegradeSpec moved_spec =
        makeSpec(DegradeKind::Perturb, 0, 0.5, 99);
    std::vector<std::vector<RealignPoint>> realign(
        kNumContenders, std::vector<RealignPoint>(kNumThresholds));
    for (const ProgramSpec &spec : suite) {
        const PreparedProgram prepared = prepareProgram(spec);
        // The moved profile: degraded weights on the same structure. A
        // layout of `moved` is structurally a layout of the original, so
        // quality is measured on the true recorded trace.
        Program moved = prepared.program;
        degradeProfile(moved, prepared.walk, moved_spec);
        const std::uint64_t base =
            evalLayout(prepared, originalLayout(prepared.program)).instrs;

        for (std::size_t c = 0; c < kNumContenders; ++c) {
            const Contender &contender = kContenders[c];
            const CostModel model(kArch);
            AlignOptions options;
            options.objective = contender.objective;
            // realignProgram takes the options alignForArch would apply.
            options = archAlignOptions(kArch, options);
            const ProgramLayout old_layout = alignForArch(
                prepared.program, contender.kind, kArch, options);
            const ProgramLayout full =
                alignForArch(moved, contender.kind, kArch, options);

            for (std::size_t t = 0; t < kNumThresholds; ++t) {
                RealignStats stats;
                const ProgramLayout spliced = realignProgram(
                    prepared.program, old_layout, moved, contender.kind,
                    &model, options, kThresholds[t].value, &stats);
                RealignPoint &point = realign[c][t];
                point.realignedFrac +=
                    static_cast<double>(stats.procsRealigned) /
                    static_cast<double>(stats.procsTotal);
                point.relCpi +=
                    evalLayout(prepared, spliced).relativeCpi(base);
                if (kThresholds[t].value == 0.0)
                    point.identicalToFull = point.identicalToFull &&
                                            layoutsIdentical(full, spliced);
                if (kThresholds[t].value == kNeverRealign)
                    point.identicalToOld =
                        point.identicalToOld &&
                        layoutsIdentical(old_layout, spliced);
            }
        }
    }
    for (auto &points : realign) {
        for (RealignPoint &point : points) {
            point.realignedFrac /= static_cast<double>(suite.size());
            point.relCpi /= static_cast<double>(suite.size());
        }
    }

    bool endpoints_ok = true;
    for (const auto &points : realign) {
        for (const RealignPoint &point : points)
            endpoints_ok =
                endpoints_ok && point.identicalToFull && point.identicalToOld;
    }

    if (json) {
        std::ostream &os = std::cout;
        os << "{\"bench\":\"robustness\",\"arch\":\"" << archName(kArch)
           << "\",\"programs\":" << runs.size() << ",\"curves\":[";
        for (std::size_t c = 0; c < kNumContenders; ++c) {
            const Contender &contender = kContenders[c];
            os << (c ? "," : "") << "{\"aligner\":\""
               << alignerKindName(contender.kind) << "\",\"objective\":\""
               << objectiveKindName(contender.objective)
               << "\",\"points\":[";
            for (std::size_t p = 0; p < num_points; ++p) {
                const bool est = p >= ladder.size();
                os << (p ? "," : "") << "{\"degrade\":\""
                   << (est ? "estimate" : degradeKindName(ladder[p].kind))
                   << "\",\"severity\":\""
                   << (est ? "static" : ladder[p].severityLabel())
                   << "\",\"rel_cpi\":" << curves[c][p]
                   << ",\"delta_vs_true\":" << curves[c][p] - curves[c][0]
                   << "}";
            }
            os << "]}";
        }
        os << "],\"sign_tests\":[";
        const auto emitPoint = [&os](bool first, const char *degrade,
                                     const std::string &severity,
                                     const DeltaCompare &cmp) {
            os << (first ? "" : ",") << "{\"degrade\":\"" << degrade
               << "\",\"severity\":\"" << severity
               << "\",\"mean_delta_table_cost\":" << cmp.meanDeltaTc
               << ",\"mean_delta_exttsp\":" << cmp.meanDeltaXt
               << ",\"wins_exttsp\":" << cmp.winsXt
               << ",\"wins_table_cost\":" << cmp.winsTc
               << ",\"p_value\":" << cmp.pValue << "}";
        };
        bool first_entry = true;
        for (std::size_t pair = 0; pair < 2; ++pair) {
            os << (first_entry ? "" : ",") << "{\"aligner\":\""
               << kPairNames[pair] << "\",\"arch\":\"" << archName(kArch)
               << "\",\"ladder\":\"full\",\"points\":[";
            first_entry = false;
            for (std::size_t p = 0; p < num_points; ++p) {
                const bool est = p >= ladder.size();
                emitPoint(p == 0,
                          est ? "estimate"
                              : degradeKindName(ladder[p].kind),
                          est ? "static" : ladder[p].severityLabel(),
                          compares[pair][p]);
            }
            os << "]}";
        }
        for (std::size_t a = 0; a < other_archs.size(); ++a) {
            for (std::size_t pair = 0; pair < 2; ++pair) {
                os << ",{\"aligner\":\"" << kPairNames[pair]
                   << "\",\"arch\":\"" << archName(other_archs[a])
                   << "\",\"ladder\":\"reduced\",\"points\":[";
                for (std::size_t p = 0; p < num_reduced; ++p) {
                    const bool est = p >= reduced.size();
                    emitPoint(p == 0,
                              est ? "estimate"
                                  : degradeKindName(reduced[p].kind),
                              est ? "static" : reduced[p].severityLabel(),
                              archCompares[a][pair][p]);
                }
                os << "]}";
            }
        }
        os << "],\"realign\":[";
        for (std::size_t c = 0; c < kNumContenders; ++c) {
            const Contender &contender = kContenders[c];
            os << (c ? "," : "") << "{\"aligner\":\""
               << alignerKindName(contender.kind) << "\",\"objective\":\""
               << objectiveKindName(contender.objective)
               << "\",\"moved\":\"" << degradeSpecLabel(moved_spec)
               << "\",\"thresholds\":[";
            for (std::size_t t = 0; t < kNumThresholds; ++t) {
                const RealignPoint &point = realign[c][t];
                os << (t ? "," : "") << "{\"threshold\":\""
                   << kThresholds[t].label
                   << "\",\"realigned_frac\":" << point.realignedFrac
                   << ",\"rel_cpi\":" << point.relCpi;
                if (kThresholds[t].value == 0.0)
                    os << ",\"identical_to_full\":"
                       << (point.identicalToFull ? "true" : "false");
                if (kThresholds[t].value == kNeverRealign)
                    os << ",\"identical_to_old\":"
                       << (point.identicalToOld ? "true" : "false");
                os << "}";
            }
            os << "]}";
        }
        os << "],\"endpoints_byte_identical\":"
           << (endpoints_ok ? "true" : "false") << "}\n";
    } else {
        Table table({"Degradation", "Severity", "cost/tc", "cost/xt",
                     "try15/tc", "try15/xt"});
        for (std::size_t p = 0; p < num_points; ++p) {
            const bool est = p >= ladder.size();
            Table &row =
                table.row()
                    .cell(est ? "estimate" : degradeKindName(ladder[p].kind))
                    .cell(est ? "static" : ladder[p].severityLabel());
            for (std::size_t c = 0; c < kNumContenders; ++c)
                row.cell(curves[c][p], 3);
        }
        std::cout << "Robustness: suite-mean rel CPI, align-on-degraded / "
                     "measure-on-true (BTFNT)\n\n";
        table.print(std::cout);

        Table dtable({"Degradation", "Severity", "cost Dtc", "cost Dxt",
                      "cost p", "try15 Dtc", "try15 Dxt", "try15 p"});
        for (std::size_t p = 1; p < num_points; ++p) {
            const bool est = p >= ladder.size();
            Table &row =
                dtable.row()
                    .cell(est ? "estimate" : degradeKindName(ladder[p].kind))
                    .cell(est ? "static" : ladder[p].severityLabel());
            for (std::size_t pair = 0; pair < 2; ++pair) {
                const DeltaCompare &cmp = compares[pair][p];
                row.cell(cmp.meanDeltaTc, 4)
                    .cell(cmp.meanDeltaXt, 4)
                    .cell(cmp.pValue, 3);
            }
        }
        std::cout << "\nPer-degradation CPI deltas vs the true-profile "
                     "alignment (D = mean delta; p = two-sided sign test, "
                     "exttsp vs table-cost)\n\n";
        dtable.print(std::cout);

        Table rtable({"Threshold", "cost/tc frac", "cost/tc CPI",
                      "try15/tc frac", "try15/tc CPI"});
        for (std::size_t t = 0; t < kNumThresholds; ++t) {
            rtable.row()
                .cell(kThresholds[t].label)
                .cell(realign[0][t].realignedFrac, 2)
                .cell(realign[0][t].relCpi, 3)
                .cell(realign[2][t].realignedFrac, 2)
                .cell(realign[2][t].relCpi, 3);
        }
        std::cout << "\nIncremental realignment after "
                  << degradeSpecLabel(moved_spec)
                  << " (frac = procedures re-laid-out; CPI measured on "
                     "the true trace)\n\n";
        rtable.print(std::cout);
        std::cout << "\nthreshold endpoints byte-identical: "
                  << (endpoints_ok ? "yes" : "NO") << "\n";
    }

    std::cerr << bench::timingJson("robustness", defaultThreads(),
                                   suite.size(), wall.seconds(), times)
              << "\n";
    if (!endpoints_ok) {
        std::fprintf(stderr, "FAIL: a realignment threshold endpoint was "
                             "not byte-identical\n");
        return 1;
    }
    return 0;
}
