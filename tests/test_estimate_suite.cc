/**
 * @file
 * The `ctest -L estimate` full-suite group: the static profile estimator
 * run over all 24 benchmark models.
 *
 * Determinism is a documented contract (estimate/estimate.h): the same
 * program must produce byte-identical estimated weights on every run,
 * regardless of BALIGN_THREADS — the estimator never touches the thread
 * pool, and this suite pins that down by serializing the estimated
 * program under different env settings and comparing bytes.
 *
 * Drop-in validity is the other contract: an estimated profile must pass
 * the same prof.* and layout.* lint rules a measured profile does, and the
 * layouts aligned against it must still verify (translation validation),
 * so profile-free alignment can never ship a layout a trace-driven run
 * would reject.
 *
 * Agreement with earlier output is the third: MatchesPinnedDigest hashes
 * the estimated program and its JSON report for every suite model (plus
 * the gcc model scaled to 500 procedures) and compares the digests with
 * tests/corpus/estimate/suite-digests.txt, so a change meant to make the
 * estimator faster cannot move a single weight or report byte. Regenerate
 * with BALIGN_REGEN_ESTIMATE_GOLDEN=1 after an intentional change.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bpred/cost_model.h"
#include "cfg/serialize.h"
#include "core/align_program.h"
#include "estimate/estimate.h"
#include "lint/lint.h"
#include "sim/batch_replay.h"
#include "trace/walker.h"
#include "verify/verify.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

constexpr std::uint64_t kSuiteBudget = 100'000;

/// Procedures in the scaled gcc model the digest test adds to the suite.
constexpr std::size_t kScaledGccProcs = 500;

/// Generates the model and gives it the measured profile the estimator
/// is expected to discard (the realistic starting state).
Program
specProgram(const ProgramSpec &spec)
{
    Program program = generateProgram(spec);
    WalkOptions options;
    options.seed = 1;
    options.instrBudget = kSuiteBudget;
    profileProgram(program, options);
    return program;
}

Program
suiteProgram(const std::string &name)
{
    return specProgram(suiteSpec(name));
}

/// 64-bit FNV-1a over @p text.
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/// Digest of everything the estimator produces for @p program: the
/// estimated program text followed by the JSON report.
std::string
estimateDigest(Program program)
{
    const EstimateReport report = estimateProfile(program);
    std::ostringstream json;
    writeEstimateReportJson(report, program, json);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(programToString(program) + json.str())));
    return hex;
}

/// Runs the estimator with BALIGN_THREADS set to @p threads and returns
/// the serialized estimated program (weights + provenance tag included).
std::string
estimateWithThreads(const Program &original, const char *threads)
{
    const char *saved = std::getenv("BALIGN_THREADS");
    const std::string saved_value = saved != nullptr ? saved : "";
    ::setenv("BALIGN_THREADS", threads, 1);
    Program copy = original;
    estimateProfile(copy);
    if (saved != nullptr)
        ::setenv("BALIGN_THREADS", saved_value.c_str(), 1);
    else
        ::unsetenv("BALIGN_THREADS");
    return programToString(copy);
}

class EstimateSuite : public testing::TestWithParam<std::string>
{
};

}  // namespace

TEST_P(EstimateSuite, ByteIdenticalAcrossThreadsAndRuns)
{
    const Program original = suiteProgram(GetParam());
    const std::string first = estimateWithThreads(original, "1");
    const std::string again = estimateWithThreads(original, "1");
    const std::string wide = estimateWithThreads(original, "13");
    EXPECT_EQ(first, again) << "repeated estimation drifted";
    EXPECT_EQ(first, wide) << "BALIGN_THREADS changed the estimate";
    EXPECT_NE(first.find("profile estimated"), std::string::npos)
        << "serialized estimated program must carry its provenance tag";
}

TEST_P(EstimateSuite, EstimatedProfileLintsClean)
{
    Program program = suiteProgram(GetParam());
    estimateProfile(program);
    ASSERT_EQ(program.profileProvenance(), ProfileProvenance::Estimated);

    // Two architectures keep the layout matrix cheap; prof.* / est.* /
    // cost.* are architecture-independent and run either way.
    LintRunOptions run;
    run.sweep.archs = {Arch::BtFnt, Arch::PhtDirect};
    const LintReport report = lintProgram(program, run);
    EXPECT_EQ(report.profileProvenance, "estimated");
    if (report.errors() != 0)
        ADD_FAILURE() << formatLintReport(report, GetParam());
}

TEST_P(EstimateSuite, EstimatedLayoutsVerify)
{
    Program program = suiteProgram(GetParam());
    estimateProfile(program);

    const CostModel model(Arch::BtFnt);
    AlignOptions options;
    options.verify = false;  // verify explicitly below, as findings
    for (const AlignerKind kind : {AlignerKind::Cost, AlignerKind::Try15}) {
        const ProgramLayout layout =
            alignProgram(program, kind, &model, options);
        const VerifyResult result = verifyLayout(program, layout);
        for (const VerifyFailure &failure : result.failures)
            ADD_FAILURE() << GetParam() << " "
                          << alignerKindName(kind) << ": "
                          << formatVerifyFailure(failure);
    }
}

TEST(EstimateSuite, MatchesPinnedDigest)
{
    std::ostringstream actual;
    actual << "# FNV-1a 64 of programToString + writeEstimateReportJson "
              "after estimateProfile.\n";
    for (const ProgramSpec &spec : benchmarkSuite())
        actual << spec.name << ' ' << estimateDigest(specProgram(spec))
               << '\n';
    ProgramSpec scaled = suiteSpec("gcc");
    scaled.numProcs = kScaledGccProcs;
    actual << "gcc@" << kScaledGccProcs << ' '
           << estimateDigest(specProgram(scaled)) << '\n';

    const std::string golden_path =
        std::string(BALIGN_CORPUS_DIR) + "/estimate/suite-digests.txt";
    if (std::getenv("BALIGN_REGEN_ESTIMATE_GOLDEN") != nullptr) {
        std::ofstream(golden_path) << actual.str();
        return;
    }
    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good())
        << "missing golden " << golden_path
        << " (regenerate with BALIGN_REGEN_ESTIMATE_GOLDEN=1)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(actual.str(), golden.str())
        << "estimated weights or reports drifted from the pinned digests";
}

TEST(EstimateSuite, MaterializedDirectionsFollowProbabilities)
{
    // The integer profile must not invert a branch: wherever a branch
    // runs often enough for rounding not to matter and its estimate
    // leans one way, the heavier out-edge is the side it favours.
    std::size_t checked = 0;
    for (const ProgramSpec &spec : benchmarkSuite()) {
        Program program = specProgram(spec);
        const EstimateReport report = estimateProfile(program);
        for (const BranchEstimate &branch : report.branches) {
            const Procedure &proc = program.proc(branch.proc);
            const std::int64_t taken = proc.takenEdge(branch.block);
            const std::int64_t fall = proc.fallThroughEdge(branch.block);
            if (taken < 0 || fall < 0 ||
                std::abs(branch.takenProb - 0.5) < 0.01)
                continue;
            const Weight wt =
                proc.edge(static_cast<std::uint32_t>(taken)).weight;
            const Weight wf =
                proc.edge(static_cast<std::uint32_t>(fall)).weight;
            if (wt + wf < 64)
                continue;
            ++checked;
            const bool favours_taken = branch.takenProb > 0.5;
            EXPECT_TRUE(favours_taken ? wt > wf : wf > wt)
                << spec.name << " proc " << branch.proc << " block "
                << branch.block << ": p " << branch.takenProb
                << " but taken " << wt << " vs fall-through " << wf;
        }
    }
    EXPECT_GT(checked, 2000u) << "too few branches to mean anything";
}

INSTANTIATE_TEST_SUITE_P(Suite24, EstimateSuite, [] {
    std::vector<std::string> names;
    for (const ProgramSpec &spec : benchmarkSuite())
        names.push_back(spec.name);
    return testing::ValuesIn(names);
}(), [](const testing::TestParamInfo<std::string> &param) {
    std::string name = param.param;
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
});
