/**
 * @file
 * Unit tests for the static profile estimator (estimate/estimate.h):
 * Dempster-Shafer evidence algebra, heuristic firing on the hand-minimized
 * estimate corpus cases, and pinned golden `balign estimate --json`
 * reports (tests/corpus/estimate/<name>.est.json) so any drift in the
 * heuristics, the combiner or the propagation shows up as a readable
 * JSON diff. Regenerate with BALIGN_REGEN_ESTIMATE_GOLDEN=1 after an
 * intentional change. The shape tests pin the materialized integer
 * profile on the CFG shapes its loop-forest walk treats specially.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cfg/serialize.h"
#include "check/fuzz.h"
#include "estimate/estimate.h"
#include "lint/lint.h"

using namespace balign;

namespace {

std::string
corpusPath(const std::string &name)
{
    return std::string(BALIGN_CORPUS_DIR) + "/" + name;
}

Program
loadCorpus(const std::string &name)
{
    const std::optional<Repro> repro = loadRepro(corpusPath(name));
    if (!repro.has_value())
        ADD_FAILURE() << "cannot load corpus file " << name;
    return repro.has_value() ? repro->program : Program();
}

/// The CLI's `balign estimate <file> --json` framing for one input.
std::string
estimateJsonFor(const std::string &name)
{
    Program program = loadCorpus(name);
    const EstimateReport report = estimateProfile(program);
    std::ostringstream os;
    os << "[\n";
    writeEstimateReportJson(report, program, os);
    os << "\n]\n";
    return os.str();
}

const BranchEstimate *
findBranch(const EstimateReport &report, ProcId proc, BlockId block)
{
    for (const BranchEstimate &branch : report.branches) {
        if (branch.proc == proc && branch.block == block)
            return &branch;
    }
    return nullptr;
}

bool
hasVote(const BranchEstimate &branch, const std::string &heuristic)
{
    for (const HeuristicVote &vote : branch.votes) {
        if (heuristic == vote.heuristic)
            return true;
    }
    return false;
}

/// Parses one `balign-program v1` procedure body (blocks and edges) as
/// the single procedure `main`.
Program
shapeProgram(const std::string &body)
{
    const ParseResult parsed = programFromString(
        "balign-program v1\nprogram shape\nmain 0\nproc 0 main entry 0\n" +
        body + "endproc\n");
    if (!parsed.ok())
        ADD_FAILURE() << "line " << parsed.errorLine << ": " << parsed.error;
    return parsed.ok() ? *parsed.program : Program();
}

/// Estimates @p program and checks the materialized profile's contract:
/// every interior block conserves flow except where a trap absorbs it,
/// the absorbed total is the reported stranding and fits the budget, the
/// entry emits exactly its entry count, no weight exceeds the ceiling,
/// and the result lints clean. Returns the largest weight placed.
Weight
checkMaterialized(Program &program)
{
    const EstimateReport report = estimateProfile(program);
    Weight absorbed = 0, largest = 0;
    for (const Procedure &proc : program.procs()) {
        for (const Edge &edge : proc.edges())
            largest = std::max(largest, edge.weight);
        for (const BasicBlock &block : proc.blocks()) {
            Weight in = 0, out = 0;
            for (const std::uint32_t e : block.inEdges)
                in += proc.edge(e).weight;
            for (const std::uint32_t e : block.outEdges)
                out += proc.edge(e).weight;
            if (block.id == proc.entry()) {
                EXPECT_EQ(out - in, report.procs[proc.id()].entryCount)
                    << "entry of proc " << proc.id();
            } else if (!block.outEdges.empty()) {
                EXPECT_GE(in, out) << "block " << block.id;
                absorbed += in - out;
            }
        }
    }
    EXPECT_EQ(absorbed, report.totalStranded);
    EXPECT_LE(report.totalStranded, kEstimateStrandBudget);
    EXPECT_LE(largest, kEstimateWeightCeiling);
    const LintReport lint = lintProgram(program, LintRunOptions{});
    EXPECT_EQ(lint.errors(), 0u) << formatLintReport(lint, "shape");
    return largest;
}

}  // namespace

TEST(CombineEvidence, NeutralElementIsHalf)
{
    for (const double p : {0.02, 0.2, 0.5, 0.62, 0.88, 0.98}) {
        EXPECT_NEAR(combineEvidence(0.5, p), p, 1e-12);
        EXPECT_NEAR(combineEvidence(p, 0.5), p, 1e-12);
    }
}

TEST(CombineEvidence, SymmetricAndAssociative)
{
    const double a = 0.8, b = 0.3, c = 0.62;
    EXPECT_NEAR(combineEvidence(a, b), combineEvidence(b, a), 1e-12);
    EXPECT_NEAR(combineEvidence(combineEvidence(a, b), c),
                combineEvidence(a, combineEvidence(b, c)), 1e-12);
}

TEST(CombineEvidence, AgreementAmplifiesConflictAttenuates)
{
    // Two agreeing pieces of evidence are stronger than either alone.
    EXPECT_GT(combineEvidence(0.8, 0.8), 0.8);
    EXPECT_LT(combineEvidence(0.2, 0.2), 0.2);
    // Perfectly opposed evidence cancels back to neutral.
    EXPECT_NEAR(combineEvidence(0.8, 0.2), 0.5, 1e-12);
}

TEST(EstimateCorpus, IrreducibleCaseTakesFallback)
{
    Program program = loadCorpus("est-irreducible.balign");
    const EstimateReport report = estimateProfile(program);

    ASSERT_EQ(report.procs.size(), 1u);
    EXPECT_TRUE(report.procs[0].irreducibleFallback)
        << "the 1<->2 two-entry cycle must defeat closed-form propagation";
    EXPECT_EQ(program.profileProvenance(), ProfileProvenance::Estimated);

    // The fallback still synthesizes a conserving profile: the est.* and
    // prof.* rules must hold on the estimated program.
    LintRunOptions run;
    const LintReport lint = lintProgram(program, run);
    EXPECT_EQ(lint.errors(), 0u)
        << formatLintReport(lint, "est-irreducible");
    EXPECT_EQ(lint.profileProvenance, "estimated");
}

TEST(EstimateCorpus, TieCaseCombinesOpposingHeuristics)
{
    Program program = loadCorpus("est-tie.balign");
    const EstimateReport report = estimateProfile(program);

    ASSERT_EQ(report.conditionals, 1u);
    const BranchEstimate *branch = findBranch(report, 0, 2);
    ASSERT_NE(branch, nullptr);
    ASSERT_EQ(branch->votes.size(), 2u);
    EXPECT_TRUE(hasVote(*branch, "loop-exit"));
    EXPECT_TRUE(hasVote(*branch, "call"));

    // D-S of the conflict: 0.2 (stay in loop) vs 0.78 (avoid the call)
    // = 0.156 / (0.156 + 0.176) — just on the fall side of neutral.
    EXPECT_NEAR(branch->takenProb, 0.2 * 0.78 / (0.2 * 0.78 + 0.8 * 0.22),
                1e-9);
    EXPECT_LT(branch->takenProb, 0.5);
    EXPECT_GT(branch->takenProb, 0.4);
}

TEST(EstimateCorpus, PatternMetadataDrivesTightLoop)
{
    Program program = loadCorpus("tight-loop.balign");
    const EstimateReport report = estimateProfile(program);

    // Block 0 carries `pattern 4 7`: 3 taken outcomes in a period of 4.
    const BranchEstimate *branch = findBranch(report, 0, 0);
    ASSERT_NE(branch, nullptr);
    EXPECT_TRUE(hasVote(*branch, "pattern"));
    EXPECT_TRUE(hasVote(*branch, "loop-branch"));
    EXPECT_GT(branch->takenProb, 0.5)
        << "self-loop back edge plus a 3/4 pattern must predict taken";
}

TEST(EstimateCorpus, GoldenJsonReportsMatch)
{
    const bool regen =
        std::getenv("BALIGN_REGEN_ESTIMATE_GOLDEN") != nullptr;
    for (const std::string name : {"est-irreducible", "est-tie"}) {
        const std::string json = estimateJsonFor(name + ".balign");
        const std::string golden_path =
            std::string(BALIGN_CORPUS_DIR) + "/estimate/" + name +
            ".est.json";
        if (regen) {
            std::filesystem::create_directories(
                std::filesystem::path(golden_path).parent_path());
            std::ofstream out(golden_path);
            out << json;
            continue;
        }
        std::ifstream in(golden_path);
        ASSERT_TRUE(in.good())
            << "missing golden " << golden_path
            << " (regenerate with BALIGN_REGEN_ESTIMATE_GOLDEN=1)";
        std::ostringstream golden;
        golden << in.rdbuf();
        EXPECT_EQ(json, golden.str())
            << "estimate report for " << name
            << " drifted from its golden";
    }
}

TEST(EstimateShapes, LoopHeadedAtEntry)
{
    // The invocation itself enters the loop: its back edge must carry
    // the iterations, not be starved because no CFG edge enters.
    Program program = shapeProgram("block 0 2 cond\nblock 1 3 uncond\n"
                                   "block 2 1 return\n"
                                   "edge 0 1 taken 0 0.5\n"
                                   "edge 0 2 fall 0 0.5\n"
                                   "edge 1 0 taken 0 1\n");
    checkMaterialized(program);
    const Procedure &proc = program.proc(0);
    EXPECT_GT(proc.edge(2).weight, 0u) << "back edge to the entry is cold";
    EXPECT_EQ(proc.edge(1).weight, 1u << 16);  // every invocation returns
}

TEST(EstimateShapes, SelfLoopAtEntry)
{
    Program program = shapeProgram("block 0 3 cond\nblock 1 1 return\n"
                                   "edge 0 0 taken 0 0.9\n"
                                   "edge 0 1 fall 0 0.1\n");
    checkMaterialized(program);
    const Procedure &proc = program.proc(0);
    EXPECT_GT(proc.edge(0).weight, proc.edge(1).weight);
}

TEST(EstimateShapes, ReturnInsideLoop)
{
    // Block 1 heads the loop; block 3 returns straight out of its body.
    Program program = shapeProgram("block 0 1 uncond\nblock 1 2 cond\n"
                                   "block 2 2 cond\nblock 3 1 return\n"
                                   "block 4 1 return\n"
                                   "edge 0 1 taken 0 1\n"
                                   "edge 1 3 taken 0 0.2\n"
                                   "edge 1 2 fall 0 0.8\n"
                                   "edge 2 1 taken 0 0.8\n"
                                   "edge 2 4 fall 0 0.2\n");
    checkMaterialized(program);
    const Procedure &proc = program.proc(0);
    EXPECT_EQ(proc.edge(1).weight + proc.edge(4).weight, 1u << 16);
    EXPECT_GT(proc.edge(1).weight, 0u);
    EXPECT_GT(proc.edge(4).weight, 0u);
}

TEST(EstimateShapes, TwoLatchLoop)
{
    Program program = shapeProgram("block 0 1 uncond\nblock 1 2 cond\n"
                                   "block 2 2 uncond\nblock 3 2 cond\n"
                                   "block 4 1 return\n"
                                   "edge 0 1 taken 0 1\n"
                                   "edge 1 2 taken 0 0.5\n"
                                   "edge 1 3 fall 0 0.5\n"
                                   "edge 2 1 taken 0 1\n"
                                   "edge 3 1 taken 0 0.7\n"
                                   "edge 3 4 fall 0 0.3\n");
    checkMaterialized(program);
    const Procedure &proc = program.proc(0);
    EXPECT_GT(proc.edge(3).weight, 0u) << "first latch is cold";
    EXPECT_GT(proc.edge(4).weight, 0u) << "second latch is cold";
}

TEST(EstimateShapes, DeepNestSaturatesAtCeiling)
{
    // Twelve nested loops: header h_i = block i enters h_{i+1}; latch
    // l_i = block 12 + i closes loop i or falls out to l_{i-1}. Header
    // counts multiply down the nest far past the ceiling.
    constexpr int kDepth = 12;
    std::ostringstream body;
    body << "block 0 1 uncond\n";
    for (int i = 1; i <= kDepth; ++i)
        body << "block " << i << " 1 uncond\n";
    for (int i = 1; i <= kDepth; ++i)
        body << "block " << kDepth + i << " 1 cond\n";
    body << "block " << 2 * kDepth + 1 << " 1 return\n";
    body << "edge 0 1 taken 0 1\n";
    for (int i = 1; i < kDepth; ++i)
        body << "edge " << i << ' ' << i + 1 << " taken 0 1\n";
    body << "edge " << kDepth << ' ' << 2 * kDepth << " taken 0 1\n";
    for (int i = 1; i <= kDepth; ++i) {
        const int latch = kDepth + i;
        body << "edge " << latch << ' ' << i << " taken 0 0.9\n";
        body << "edge " << latch << ' '
             << (i == 1 ? 2 * kDepth + 1 : latch - 1) << " fall 0 0.1\n";
    }
    Program program = shapeProgram(body.str());
    EXPECT_EQ(checkMaterialized(program), kEstimateWeightCeiling);
}

TEST(EstimateShapes, TrapSccAbsorbsWithinBudget)
{
    // Blocks 1 <-> 2 form an inescapable cycle entered from block 0.
    Program program = shapeProgram("block 0 2 cond\nblock 1 2 uncond\n"
                                   "block 2 2 uncond\nblock 3 1 return\n"
                                   "edge 0 1 taken 0 0.5\n"
                                   "edge 0 3 fall 0 0.5\n"
                                   "edge 1 2 taken 0 1\n"
                                   "edge 2 1 taken 0 1\n");
    checkMaterialized(program);
    const Procedure &proc = program.proc(0);
    EXPECT_GT(proc.edge(0).weight, 0u) << "nothing entered the trap";
    EXPECT_GT(proc.edge(3).weight, proc.edge(0).weight)
        << "the trap's cycle should circulate before it strands";
}

TEST(EstimateShapes, IrreducibleRegionConserves)
{
    Program program = loadCorpus("est-irreducible.balign");
    checkMaterialized(program);
}
