/**
 * @file
 * Part of the `ctest -L robust` group: property tests for the profile
 * degradation library (profile/degrade.h).
 *
 *  - Seeded determinism: every transform is a pure function of
 *    (program, spec) — same seed, byte-identical weights; a different
 *    seed moves them.
 *  - Flow conservation: sample keeps a lint-clean profile lint-clean
 *    (prof.* rules) across the whole 24-program suite; merge stays clean
 *    under the slack scaled by the number of constituent walks; drift
 *    conserves every block's outflow and the program total, exactly as
 *    documented in degrade.h.
 *  - Severity monotonicity: the suite-mean CPI degradation curve is
 *    monotone along the drift ladder (align-on-degraded /
 *    measure-on-true via the ExperimentConfig degrade axis).
 *  - Degeneracy: an all-zero profile trips the prof.degenerate note, and
 *    every aligner x objective tolerates it — layouts still verify.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cfg/serialize.h"
#include "check/differ.h"
#include "core/align_program.h"
#include "lint/lint.h"
#include "profile/degrade.h"
#include "sim/batch_replay.h"
#include "sim/cpi.h"
#include "trace/walker.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

constexpr std::uint64_t kBudget = 50'000;

WalkOptions
testWalk()
{
    WalkOptions walk;
    walk.seed = 1;
    walk.instrBudget = kBudget;
    return walk;
}

Program
profiledProgram(const std::string &name)
{
    ProgramSpec spec = suiteSpec(name);
    spec.traceInstrs = kBudget;
    Program program = generateProgram(spec);
    program.clearWeights();
    profileProgram(program, testWalk());
    return program;
}

std::vector<Weight>
allWeights(const Program &program)
{
    std::vector<Weight> weights;
    for (ProcId id = 0; id < program.numProcs(); ++id) {
        for (const Edge &edge : program.proc(id).edges())
            weights.push_back(edge.weight);
    }
    return weights;
}

Weight
totalWeight(const Program &program)
{
    Weight total = 0;
    for (ProcId id = 0; id < program.numProcs(); ++id)
        total += program.proc(id).totalEdgeWeight();
    return total;
}

/// Profile-rules-only lint run (layout/cost rules are covered by their
/// own labelled groups; here only the prof.* flow invariants matter).
LintReport
lintProfileOnly(const Program &program,
                Weight slack = LintOptions{}.flowSlack)
{
    LintRunOptions run;
    run.layoutRules = false;
    run.lint.flowSlack = slack;
    return lintProgram(program, run);
}

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const ProgramSpec &spec : benchmarkSuite())
        names.push_back(spec.name);
    return names;
}

DegradeSpec
spec(DegradeKind kind, std::uint32_t n, double param, std::uint64_t seed)
{
    DegradeSpec s;
    s.kind = kind;
    s.n = n;
    s.param = param;
    s.seed = seed;
    return s;
}

}  // namespace

namespace {

std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xFF;
        hash *= 1099511628211ull;
    }
    return hash;
}

std::uint64_t
hashWeights(std::uint64_t hash, const Program &program)
{
    for (const Procedure &proc : program.procs())
        for (const Edge &edge : proc.edges())
            hash = fnv1a(hash, edge.weight);
    return hash;
}

}  // namespace

// Pins the walks degrade runs itself: per suite program at a
// 200k-instruction budget, one FNV-1a digest over every edge weight
// after staleProfile and then after mergeProfiles with two extra inputs,
// so a rewrite of the profiling path must reproduce both bit for bit.
TEST(DegradeSuite, MatchesPinnedDigest)
{
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"alvinn", 0x664e065b340f416dull},
        {"doduc", 0x92322045e045298full},
        {"ear", 0x48446da40abf430ull},
        {"fpppp", 0x26580bd629df6f7aull},
        {"hydro2d", 0x9d23dd54317e7251ull},
        {"mdljsp2", 0x833ad13ddd393435ull},
        {"nasa7", 0x6b692ceaee420280ull},
        {"ora", 0x99ec07934bd9fe18ull},
        {"spice", 0x74365ddaef2ac7d5ull},
        {"su2cor", 0xb022617c669641ceull},
        {"swm256", 0xcbb81a4c602a3044ull},
        {"tomcatv", 0xe3e72683a3366b3ull},
        {"wave5", 0xf8f7d83c3d6dafa4ull},
        {"compress", 0xe184d30e186c7daeull},
        {"eqntott", 0x311d9d29ed24607eull},
        {"espresso", 0xc37c9a4895848206ull},
        {"gcc", 0xf75277e890905093ull},
        {"li", 0x7410d25b6a08ed3cull},
        {"sc", 0x27974dff0eaa18e2ull},
        {"cfront", 0xbe858b40988e8a7aull},
        {"db++", 0xefaf4c2cb0fb5ab6ull},
        {"groff", 0x602e6b41ee0e6b6ull},
        {"idl", 0x69e3ed8600c75f2ull},
        {"tex", 0xfd637869eaab960bull},
    };
    ASSERT_EQ(std::size(pinned), benchmarkSuite().size());
    for (const auto &[name, digest] : pinned) {
        ProgramSpec spec = suiteSpec(name);
        spec.traceInstrs = 200'000;
        const PreparedProgram prepared = prepareProgram(spec);
        std::uint64_t hash = 14695981039346656037ull;
        Program stale = prepared.program;
        staleProfile(stale, prepared.walk, 3);
        hash = hashWeights(hash, stale);
        Program merged = prepared.program;
        mergeProfiles(merged, prepared.walk, 2, 5);
        hash = hashWeights(hash, merged);
        EXPECT_EQ(hash, digest) << name << ": 0x" << std::hex << hash << "ull";
    }
}

TEST(DegradeDeterminism, SameSeedSameWeightsDifferentSeedMoves)
{
    const Program base = profiledProgram("compress");
    const std::vector<DegradeSpec> specs = {
        spec(DegradeKind::Sample, 8, 0.0, 42),
        spec(DegradeKind::Stale, 0, 0.0, 42),
        spec(DegradeKind::Perturb, 0, 0.5, 42),
        spec(DegradeKind::Merge, 3, 0.0, 42),
        spec(DegradeKind::Drift, 0, 0.5, 42),
    };
    for (const DegradeSpec &s : specs) {
        Program first = base;
        Program second = base;
        degradeProfile(first, testWalk(), s);
        degradeProfile(second, testWalk(), s);
        EXPECT_EQ(allWeights(first), allWeights(second))
            << degradeSpecLabel(s);

        // A different seed must actually change the outcome (drift is
        // seedless by design — the ladder is its param).
        if (s.kind == DegradeKind::Drift)
            continue;
        Program other = base;
        DegradeSpec reseeded = s;
        reseeded.seed = 43;
        degradeProfile(other, testWalk(), reseeded);
        EXPECT_NE(allWeights(first), allWeights(other))
            << degradeSpecLabel(s);
    }
}

TEST(DegradeDeterminism, NoneAndUnitSampleAreIdentity)
{
    const Program base = profiledProgram("eqntott");
    Program none = base;
    degradeProfile(none, testWalk(), DegradeSpec::none());
    EXPECT_EQ(allWeights(none), allWeights(base));

    Program unit = base;
    sampleProfile(unit, 1, 7);
    EXPECT_EQ(allWeights(unit), allWeights(base));
}

TEST(DegradeFlow, SampleKeepsSuiteLintClean)
{
    for (const std::string &name : suiteNames()) {
        Program program = profiledProgram(name);
        sampleProfile(program, 8, 1);
        const LintReport report = lintProfileOnly(program);
        EXPECT_EQ(report.errors(), 0u) << name;
        EXPECT_EQ(report.warnings(), 0u) << name;
    }
}

TEST(DegradeFlow, HeavySampleKeepsSuiteLintClean)
{
    // 1/1024 thins most programs to near-zero weight; flow conservation
    // must survive even when whole procedures go dark.
    for (const std::string &name : suiteNames()) {
        Program program = profiledProgram(name);
        sampleProfile(program, 1024, 1);
        const LintReport report = lintProfileOnly(program);
        EXPECT_EQ(report.errors(), 0u) << name;
    }
}

TEST(DegradeFlow, MergeKeepsSuiteLintCleanUnderScaledSlack)
{
    constexpr std::uint32_t kExtraInputs = 3;
    for (const std::string &name : suiteNames()) {
        Program program = profiledProgram(name);
        mergeProfiles(program, testWalk(), kExtraInputs, 1);
        // Each constituent walk strands up to flowSlack activations.
        const LintReport report =
            lintProfileOnly(program, 65 * (kExtraInputs + 1));
        EXPECT_EQ(report.errors(), 0u) << name;
        EXPECT_EQ(report.warnings(), 0u) << name;
    }
}

TEST(DegradeFlow, DriftPreservesEveryBlockOutflow)
{
    // Drift only trades weight between out-edges of the same block, so
    // per-block outflow (and the program total) is invariant at every t.
    // Successor inflows move — the anti-profile is deliberately an
    // impossible execution — so no lint-clean claim is made here.
    auto outflows = [](const Program &program) {
        std::vector<Weight> flows;
        for (ProcId id = 0; id < program.numProcs(); ++id) {
            const Procedure &proc = program.proc(id);
            std::vector<Weight> per_block(proc.numBlocks(), 0);
            for (const Edge &edge : proc.edges())
                per_block[edge.src] += edge.weight;
            flows.insert(flows.end(), per_block.begin(), per_block.end());
        }
        return flows;
    };
    for (const std::string &name : suiteNames()) {
        Program program = profiledProgram(name);
        const std::vector<Weight> before = outflows(program);
        const Weight total = totalWeight(program);
        driftProfile(program, 1.0);
        EXPECT_EQ(outflows(program), before) << name;
        EXPECT_EQ(totalWeight(program), total) << name;
    }
}

TEST(DegradeDegenerate, HugePerturbClampsAtTheProfileCeiling)
{
    // eps = 1e30 scales every executed edge far past 2^63; each weight
    // must stop at the profile ceiling instead of wrapping in the cast.
    Program program = profiledProgram("compress");
    perturbProfile(program, 1e30, 7);
    std::size_t clamped = 0;
    for (const Weight weight : allWeights(program)) {
        EXPECT_LE(weight, kMaxProfileWeight);
        clamped += weight == kMaxProfileWeight ? 1 : 0;
    }
    EXPECT_GT(clamped, 0u);
}

TEST(DegradeDegenerate, ZeroProfileTripsNoteAndAlignersTolerateIt)
{
    Program program = profiledProgram("li");
    program.clearWeights();

    LintRunOptions run;
    run.layoutRules = false;
    const LintReport report = lintProgram(program, run);
    bool found = false;
    for (const Diagnostic &diag : report.diagnostics) {
        if (diag.rule == "prof.degenerate") {
            EXPECT_EQ(diag.severity, Severity::Note);
            found = true;
        }
    }
    EXPECT_TRUE(found) << "prof.degenerate did not fire on a zero profile";
    EXPECT_EQ(report.errors(), 0u);

    // Every aligner must fall back to a structural order rather than
    // crash, and the result must still pass the translation validator
    // (AlignOptions.verify defaults to on).
    const CostModel model(Arch::BtFnt);
    for (const AlignerKind kind : allAlignerKinds()) {
        for (const ObjectiveKind objective : allObjectiveKinds()) {
            AlignOptions options;
            options.objective = objective;
            const ProgramLayout layout =
                alignProgram(program, kind, &model, options);
            EXPECT_EQ(layout.procs.size(), program.numProcs())
                << alignerKindName(kind) << "/"
                << objectiveKindName(objective);
        }
    }
}

TEST(DegradeCurves, DriftLadderDegradesCpiMonotonically)
{
    // Align-on-degraded / measure-on-true: the further the alignment
    // profile drifts toward the anti-profile, the worse (or at best
    // equal) the measured suite-mean relative CPI must get. Drift is the
    // adversarial direction, so this curve is the one with a guaranteed
    // slope; the tolerance absorbs per-program ties.
    constexpr double kTolerance = 1e-6;
    const std::vector<double> ladder = {0.0, 0.5, 1.0};

    std::vector<double> mean(ladder.size(), 0.0);
    std::size_t programs = 0;
    for (const std::string &name : suiteNames()) {
        ProgramSpec program_spec = suiteSpec(name);
        program_spec.traceInstrs = kBudget;
        const PreparedProgram prepared = prepareProgram(program_spec);

        std::vector<ExperimentConfig> configs;
        configs.push_back({Arch::BtFnt, AlignerKind::Original});
        for (const double t : ladder) {
            ExperimentConfig config{Arch::BtFnt, AlignerKind::Try15};
            config.degrade = spec(DegradeKind::Drift, 0, t, 1);
            configs.push_back(config);
        }
        const ExperimentRun run = runConfigs(prepared, configs);
        ASSERT_EQ(run.cells.size(), configs.size()) << name;
        for (std::size_t i = 0; i < ladder.size(); ++i)
            mean[i] += run.cells[i + 1].relCpi;
        ++programs;
    }
    ASSERT_EQ(programs, 24u);
    for (double &value : mean)
        value /= static_cast<double>(programs);
    for (std::size_t i = 1; i < mean.size(); ++i) {
        EXPECT_GE(mean[i] + kTolerance, mean[i - 1])
            << "suite-mean rel CPI not monotone at drift t="
            << ladder[i];
    }
    // The full adversary must measurably hurt: strictly worse than the
    // true-profile alignment, not merely tied.
    EXPECT_GT(mean.back(), mean.front() + 1e-4);
}
