/**
 * @file
 * Part of the `ctest -L robust` group: differential coverage for
 * incremental realignment (core/realign.h).
 *
 * The contract under test, pinned byte-for-byte:
 *  - threshold 0 realigns every procedure and reproduces a full
 *    alignProgram of the new profile exactly — every layout field and,
 *    replayed under BOTH the batched engine and the oracle, every
 *    EvalResult counter;
 *  - threshold kNeverRealign keeps the old layout verbatim (re-based),
 *    again field- and counter-identical;
 *  - a mid-threshold splice passes the translation validator
 *    (AlignOptions.verify stays on, so a bad splice panics the test).
 *
 * profileDivergence's metric properties (scale invariance, zero-profile
 * poles) are covered directly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "check/differ.h"
#include "check/fuzz.h"
#include "core/align_program.h"
#include "core/realign.h"
#include "layout/layout_diff.h"
#include "profile/degrade.h"
#include "replay_util.h"
#include "sim/cpi.h"
#include "workload/suite.h"

using namespace balign;

namespace {

constexpr std::uint64_t kBudget = 50'000;

PreparedProgram
preparedSuiteProgram(const std::string &name)
{
    ProgramSpec spec = suiteSpec(name);
    spec.traceInstrs = kBudget;
    return prepareProgram(spec);
}

/// The moved profile: the true profile perturbed hard enough that most
/// procedures diverge (deterministic; structure untouched).
Program
movedProfile(const PreparedProgram &prepared)
{
    Program moved = prepared.program;
    DegradeSpec spec;
    spec.kind = DegradeKind::Perturb;
    spec.param = 0.5;
    spec.seed = 99;
    degradeProfile(moved, prepared.walk, spec);
    return moved;
}

/// Batched engine: a single-lane sweep over the same trace.
EvalResult
evalBatched(const PreparedProgram &prepared, const ProgramLayout &layout,
            const EvalParams &params)
{
    return runBatchReplay(prepared.program, layout, *prepared.batch,
                          {params})[0];
}

}  // namespace

TEST(ProfileDivergence, MetricProperties)
{
    const PreparedProgram prepared = preparedSuiteProgram("compress");
    const Procedure &proc = prepared.program.proc(0);
    ASSERT_GT(proc.totalEdgeWeight(), 0u);

    // Identity.
    EXPECT_DOUBLE_EQ(profileDivergence(proc, proc), 0.0);

    // Scale invariance: the metric reads the weight *distribution*.
    Procedure scaled = proc;
    for (Edge &edge : scaled.edges())
        edge.weight *= 3;
    EXPECT_DOUBLE_EQ(profileDivergence(proc, scaled), 0.0);

    // Zero-profile poles: no information at all is maximal divergence
    // from any real profile, and zero-to-zero is no movement.
    Procedure dark = proc;
    for (Edge &edge : dark.edges())
        edge.weight = 0;
    EXPECT_DOUBLE_EQ(profileDivergence(proc, dark), 2.0);
    EXPECT_DOUBLE_EQ(profileDivergence(dark, dark), 0.0);

    // A genuine perturbation lands strictly inside the (0, 2] range.
    const Program moved = movedProfile(prepared);
    double max_divergence = 0.0;
    for (ProcId id = 0; id < prepared.program.numProcs(); ++id) {
        const double d = profileDivergence(prepared.program.proc(id),
                                           moved.proc(id));
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, 2.0);
        max_divergence = std::max(max_divergence, d);
    }
    EXPECT_GT(max_divergence, 0.0);
}

TEST(LayoutDiff, IdenticalAgreesWithDescription)
{
    // layoutsIdentical compares with ==, describeLayoutDifference field
    // by field; a change to any single field must register in both.
    const PreparedProgram prepared = preparedSuiteProgram("espresso");
    const CostModel model(Arch::PhtDirect);
    const ProgramLayout base =
        alignProgram(prepared.program, AlignerKind::Greedy, &model, {});
    EXPECT_TRUE(layoutsIdentical(base, base));
    const ProcId p = 1;
    ASSERT_GT(base.procs[p].order.size(), 1u);
    const BlockId b = base.procs[p].order.back();
    const std::vector<void (*)(ProgramLayout &, ProcId, BlockId)> edits = {
        [](ProgramLayout &l, ProcId, BlockId) { ++l.totalInstrs; },
        [](ProgramLayout &l, ProcId q, BlockId) {
            std::swap(l.procs[q].order.front(), l.procs[q].order.back());
        },
        [](ProgramLayout &l, ProcId q, BlockId) { ++l.procs[q].base; },
        [](ProgramLayout &l, ProcId q, BlockId) { ++l.procs[q].totalInstrs; },
        [](ProgramLayout &l, ProcId q, BlockId) {
            ++l.procs[q].jumpsInserted;
        },
        [](ProgramLayout &l, ProcId q, BlockId) { ++l.procs[q].jumpsRemoved; },
        [](ProgramLayout &l, ProcId q, BlockId) {
            ++l.procs[q].sensesInverted;
        },
        [](ProgramLayout &l, ProcId q, BlockId c) {
            ++l.procs[q].blocks[c].addr;
        },
        [](ProgramLayout &l, ProcId q, BlockId c) {
            ++l.procs[q].blocks[c].orderIndex;
        },
        [](ProgramLayout &l, ProcId q, BlockId c) {
            ++l.procs[q].blocks[c].finalInstrs;
        },
        [](ProgramLayout &l, ProcId q, BlockId c) {
            ++l.procs[q].blocks[c].baseInstrs;
        },
        [](ProgramLayout &l, ProcId q, BlockId c) {
            BlockLayout &block = l.procs[q].blocks[c];
            block.cond = block.cond == CondRealization::FallAdjacent
                             ? CondRealization::TakenAdjacent
                             : CondRealization::FallAdjacent;
        },
        [](ProgramLayout &l, ProcId q, BlockId c) {
            l.procs[q].blocks[c].jumpInserted ^= true;
        },
        [](ProgramLayout &l, ProcId q, BlockId c) {
            l.procs[q].blocks[c].jumpRemoved ^= true;
        },
        [](ProgramLayout &l, ProcId q, BlockId c) {
            ++l.procs[q].blocks[c].branchAddr;
        },
        [](ProgramLayout &l, ProcId q, BlockId c) {
            ++l.procs[q].blocks[c].jumpAddr;
        },
    };
    for (std::size_t i = 0; i < edits.size(); ++i) {
        ProgramLayout edited = base;
        edits[i](edited, p, b);
        EXPECT_FALSE(layoutsIdentical(base, edited)) << "edit " << i;
        EXPECT_NE(describeLayoutDifference(base, edited), "") << "edit " << i;
    }
}

TEST(Realign, ThresholdEndpointsAreByteIdentical)
{
    for (const std::string name : {"compress", "espresso", "li"}) {
        const PreparedProgram prepared = preparedSuiteProgram(name);
        const Program moved = movedProfile(prepared);
        const CostModel model(Arch::BtFnt);
        for (const AlignerKind kind : allAlignerKinds()) {
            for (const ObjectiveKind objective : allObjectiveKinds()) {
                AlignOptions options;
                options.objective = objective;
                const std::string label =
                    std::string(name) + "/" + alignerKindName(kind) + "/" +
                    objectiveKindName(objective);

                const ProgramLayout old_layout = alignProgram(
                    prepared.program, kind, &model, options);
                const ProgramLayout full =
                    alignProgram(moved, kind, &model, options);

                RealignStats all_stats;
                const ProgramLayout incremental = realignProgram(
                    prepared.program, old_layout, moved, kind, &model,
                    options, 0.0, &all_stats);
                EXPECT_EQ(describeLayoutDifference(full, incremental), "")
                    << label;
                EXPECT_EQ(all_stats.procsRealigned, all_stats.procsTotal)
                    << label;

                RealignStats none_stats;
                const ProgramLayout kept = realignProgram(
                    prepared.program, old_layout, moved, kind, &model,
                    options, kNeverRealign, &none_stats);
                EXPECT_EQ(describeLayoutDifference(old_layout, kept), "")
                    << label;
                EXPECT_EQ(none_stats.procsRealigned, 0u) << label;
                EXPECT_EQ(none_stats.procsTotal,
                          prepared.program.numProcs())
                    << label;
            }
        }
    }
}

TEST(Realign, CountersByteIdenticalAcrossBothEngines)
{
    // The layout-level identity above implies counter identity, but the
    // replay engines are the instruments the robustness bench trusts —
    // pin every EvalResult counter of the spliced layouts under both.
    const PreparedProgram prepared = preparedSuiteProgram("compress");
    ASSERT_NE(prepared.trace, nullptr);
    ASSERT_NE(prepared.batch, nullptr);
    const Program moved = movedProfile(prepared);
    const CostModel model(Arch::BtFnt);
    const EvalParams params = EvalParams::forArch(Arch::BtFnt);

    for (const AlignerKind kind :
         {AlignerKind::Greedy, AlignerKind::Try15}) {
        AlignOptions options;
        const std::string label = alignerKindName(kind);
        const ProgramLayout old_layout =
            alignProgram(prepared.program, kind, &model, options);
        const ProgramLayout full = alignProgram(moved, kind, &model,
                                                options);
        const ProgramLayout incremental =
            realignProgram(prepared.program, old_layout, moved, kind,
                           &model, options, 0.0);
        const ProgramLayout kept =
            realignProgram(prepared.program, old_layout, moved, kind,
                           &model, options, kNeverRealign);

        // Threshold 0 == full alignment, threshold infinity == old
        // layout, on every counter, under each engine — and the two
        // engines agree with each other on the spliced layouts.
        EXPECT_EQ(counters(oracleReplay(prepared, incremental, params)),
                  counters(oracleReplay(prepared, full, params))) << label;
        EXPECT_EQ(counters(evalBatched(prepared, incremental, params)),
                  counters(evalBatched(prepared, full, params))) << label;
        EXPECT_EQ(counters(oracleReplay(prepared, kept, params)),
                  counters(oracleReplay(prepared, old_layout, params)))
            << label;
        EXPECT_EQ(counters(evalBatched(prepared, kept, params)),
                  counters(evalBatched(prepared, old_layout, params)))
            << label;
        EXPECT_EQ(counters(evalBatched(prepared, incremental, params)),
                  counters(oracleReplay(prepared, incremental, params)))
            << label;
        EXPECT_EQ(counters(evalBatched(prepared, kept, params)),
                  counters(oracleReplay(prepared, kept, params))) << label;
    }
}

TEST(Realign, MidThresholdSpliceVerifiesAndSavesWork)
{
    const PreparedProgram prepared = preparedSuiteProgram("espresso");
    const Program moved = movedProfile(prepared);
    const CostModel model(Arch::BtFnt);
    AlignOptions options;  // verify stays on: a bad splice panics

    const ProgramLayout old_layout =
        alignProgram(prepared.program, AlignerKind::Try15, &model, options);
    RealignStats stats;
    const ProgramLayout spliced = realignProgram(
        prepared.program, old_layout, moved, AlignerKind::Try15, &model,
        options, 0.25, &stats);

    EXPECT_EQ(stats.procsTotal, prepared.program.numProcs());
    EXPECT_GT(stats.maxDivergence, 0.0);
    EXPECT_LE(stats.procsRealigned, stats.procsTotal);
    EXPECT_EQ(spliced.procs.size(), prepared.program.numProcs());

    // The spliced layout is contiguous in id order.
    Addr base = 0;
    for (const ProcLayout &proc : spliced.procs) {
        EXPECT_EQ(proc.base, base);
        base += proc.totalInstrs;
    }
    EXPECT_EQ(spliced.totalInstrs, base);
}

TEST(Realign, CorpusReprosPassTheRealignGate)
{
    // Every checked-in repro — including the hand-minimized
    // realign-split shape — must satisfy the fuzzer's Realign gate:
    // threshold endpoints byte-identical, mid-threshold splice verified,
    // across all five aligners and both objectives.
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(BALIGN_CORPUS_DIR)) {
        if (entry.path().extension() == ".balign")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    ASSERT_GE(files.size(), 3u);

    ConfigSweep options;
    options.objectives = allObjectiveKinds();
    for (const std::string &path : files) {
        const std::optional<Repro> repro = loadRepro(path);
        ASSERT_TRUE(repro.has_value()) << path;
        const PreparedProgram prepared =
            prepareProgram(repro->program, repro->walk);
        const std::optional<Divergence> finding =
            realignGateCheck(prepared.program, prepared.walk, options);
        if (finding.has_value())
            ADD_FAILURE() << path << "\n" << formatDivergence(*finding);
    }
}
