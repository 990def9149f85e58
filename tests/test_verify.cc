/**
 * @file
 * Layout-verifier tests. The verifier is only trustworthy if it (a)
 * proves every layout the real aligners produce and (b) rejects every
 * corrupted one while naming the exact obligation that broke — so each
 * proof obligation gets an injection test in the style of test_differ.cc:
 * align a clean fixture, corrupt exactly one invariant, and require the
 * right obligation among the failures. The fuzzer's verify pre-gate and
 * its shrinker are exercised end to end through FuzzOptions::layoutMutator.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bpred/static_cost.h"
#include "cfg/builder.h"
#include "cfg/validate.h"
#include "check/differ.h"
#include "check/fuzz.h"
#include "core/align_program.h"
#include "emit/relax.h"
#include "objective/objective.h"
#include "sim/batch_replay.h"
#include "trace/walker.h"
#include "verify/driver.h"
#include "verify/verify.h"

using namespace balign;

namespace {

/**
 * A loop plus a diamond across two procedures — enough structure that the
 * aligners invert senses, insert jumps and remove one, so every
 * obligation has real instances to check.
 *
 *   main: b0 cond --taken--> b2 (exit path, returns)
 *            \--fall--> b1 uncond --> b0   (hot back edge)
 *   leaf: b0 cond -> {b1 fall -> b3, b2 fall -> b3}, b3 return
 *
 * In leaf, b1 and b2 BOTH fall through into b3, so at most one of them
 * can be layout-adjacent to it: every layout of every aligner contains at
 * least one inserted jump, keeping the jump-targets obligation exercised.
 */
Program
verifyBase()
{
    Program program("verify-base");
    const ProcId main_id = program.addProc("main");
    const ProcId leaf_id = program.addProc("leaf");
    {
        CfgBuilder b(program.proc(main_id));
        const BlockId b0 = b.block(3, Terminator::CondBranch);
        const BlockId b1 = b.block(4, Terminator::UncondBranch);
        const BlockId b2 = b.block(2, Terminator::Return);
        b.taken(b0, b2, 0, 0.1);
        b.fallThrough(b0, b1, 0, 0.9);
        b.taken(b1, b0, 0);
        b.call(b0, leaf_id, 1);
    }
    {
        CfgBuilder b(program.proc(leaf_id));
        const BlockId b0 = b.block(2, Terminator::CondBranch);
        const BlockId b1 = b.block(3, Terminator::FallThrough);
        const BlockId b2 = b.block(5, Terminator::FallThrough);
        const BlockId b3 = b.block(1, Terminator::Return);
        b.taken(b0, b1, 0, 0.6);
        b.fallThrough(b0, b2, 0, 0.4);
        b.fallThrough(b1, b3, 0);
        b.fallThrough(b2, b3, 0);
    }
    validateOrDie(program);

    WalkOptions options;
    options.seed = 11;
    options.instrBudget = 5'000;
    profileProgram(program, options);
    return program;
}

/// Aligns the fixture under one architecture (post-condition included).
ProgramLayout
alignedBase(const Program &program, AlignerKind kind)
{
    const CostModel model(Arch::Fallthrough);
    return alignProgram(program, kind, &model);
}

std::set<Obligation>
failedObligations(const VerifyResult &result)
{
    std::set<Obligation> failed;
    for (const VerifyFailure &failure : result.failures)
        failed.insert(failure.obligation);
    return failed;
}

}  // namespace

TEST(Verify, ObligationNamesAreStableAndDistinct)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < kNumObligations; ++i) {
        const auto obligation = static_cast<Obligation>(i);
        const std::string name = obligationName(obligation);
        EXPECT_FALSE(name.empty());
        EXPECT_EQ(name.find(' '), std::string::npos)
            << name << " must be kebab-case";
        EXPECT_NE(obligationSummary(obligation)[0], '\0');
        names.insert(name);
    }
    EXPECT_EQ(names.size(), kNumObligations);
    EXPECT_EQ(std::string(obligationName(Obligation::SuccPreservation)),
              "succ-preservation");
}

TEST(Verify, CleanLayoutsProveForEveryAligner)
{
    const Program program = verifyBase();
    for (const AlignerKind kind : allAlignerKinds()) {
        const ProgramLayout layout = alignedBase(program, kind);
        VerifyResult result = verifyLayout(program, layout);
        EXPECT_TRUE(result.verified()) << alignerKindName(kind) << ": "
            << (result.failures.empty()
                    ? std::string()
                    : formatVerifyFailure(result.failures.front()));
        // The relaxed byte-layout obligations live in their own proof;
        // merge them the way the sweep driver does so the coverage
        // assertion below spans all kNumObligations.
        for (const EncodingModelKind encoding : allEncodingModelKinds()) {
            const EncodingModel &model = encodingModel(encoding);
            const VerifyResult relaxed = verifyRelaxedLayout(
                program, layout, relaxLayout(program, layout, model),
                model);
            EXPECT_TRUE(relaxed.verified())
                << alignerKindName(kind) << "/"
                << encodingModelKindName(encoding) << ": "
                << (relaxed.failures.empty()
                        ? std::string()
                        : formatVerifyFailure(relaxed.failures.front()));
            for (std::size_t i = 0; i < kNumObligations; ++i)
                result.obligations[i].checks +=
                    relaxed.obligations[i].checks;
        }
        // Every obligation must actually be exercised, not vacuously
        // skipped.
        for (const ObligationRecord &record : result.obligations)
            EXPECT_GT(record.checks, 0u) << alignerKindName(kind);
    }
}

TEST(Verify, MissingProcLayoutBreaksProcBijection)
{
    const Program program = verifyBase();
    ProgramLayout layout = alignedBase(program, AlignerKind::Original);
    layout.procs.pop_back();
    const VerifyResult result = verifyLayout(program, layout);
    ASSERT_FALSE(result.verified());
    EXPECT_TRUE(failedObligations(result).count(Obligation::ProcBijection));
}

TEST(Verify, DuplicatedOrderEntryBreaksBlockBijection)
{
    const Program program = verifyBase();
    ProgramLayout layout = alignedBase(program, AlignerKind::Original);
    ASSERT_GE(layout.procs[0].order.size(), 2u);
    layout.procs[0].order[1] = layout.procs[0].order[0];
    const VerifyResult result = verifyLayout(program, layout);
    ASSERT_FALSE(result.verified());
    EXPECT_TRUE(
        failedObligations(result).count(Obligation::BlockBijection));
}

TEST(Verify, DisplacedEntryBlockBreaksEntryFirst)
{
    const Program program = verifyBase();
    ProgramLayout layout = alignedBase(program, AlignerKind::Original);
    ProcLayout &proc = layout.procs[0];
    ASSERT_GE(proc.order.size(), 2u);
    // Swap the first two blocks and reflow start addresses / positions so
    // the permutation stays internally consistent; the entry simply no
    // longer sits at the procedure's base address.
    std::swap(proc.order[0], proc.order[1]);
    Addr addr = proc.base;
    for (std::uint32_t i = 0; i < proc.order.size(); ++i) {
        BlockLayout &block = proc.blocks[proc.order[i]];
        block.orderIndex = i;
        block.addr = addr;
        addr += block.finalInstrs;
    }
    const VerifyResult result = verifyLayout(program, layout);
    ASSERT_FALSE(result.verified());
    EXPECT_TRUE(failedObligations(result).count(Obligation::EntryFirst));
}

TEST(Verify, ShiftedBlockAddressBreaksContiguity)
{
    const Program program = verifyBase();
    ProgramLayout layout = alignedBase(program, AlignerKind::Cost);
    ProcLayout &proc = layout.procs[0];
    ASSERT_GE(proc.order.size(), 2u);
    proc.blocks[proc.order[1]].addr += 1;
    const VerifyResult result = verifyLayout(program, layout);
    ASSERT_FALSE(result.verified());
    EXPECT_TRUE(
        failedObligations(result).count(Obligation::AddressContiguity));
}

TEST(Verify, InflatedBlockSizeBreaksSizeAccounting)
{
    const Program program = verifyBase();
    ProgramLayout layout = alignedBase(program, AlignerKind::Greedy);
    layout.procs[0].blocks[layout.procs[0].order[0]].finalInstrs += 1;
    const VerifyResult result = verifyLayout(program, layout);
    ASSERT_FALSE(result.verified());
    EXPECT_TRUE(
        failedObligations(result).count(Obligation::SizeAccounting));
}

TEST(Verify, RetargetedSuccessorEdgeIsCaughtByName)
{
    // The acceptance-criterion mutation: corrupt exactly one successor
    // edge of an already-laid-out program. The proof must fail, every
    // failure must name succ-preservation, and the rendering must carry
    // that name for the human reading the report. The corrupted edge is
    // the fall-through, which the layout realizes by adjacency — the
    // retarget makes the laid-out binary fall into the wrong block.
    Program program = verifyBase();
    const ProgramLayout layout =
        alignedBase(program, AlignerKind::Original);

    Procedure &main = program.proc(0);
    const std::int64_t fall = main.fallThroughEdge(0);
    ASSERT_GE(fall, 0);
    ASSERT_EQ(main.edge(static_cast<std::uint32_t>(fall)).dst, 1u);
    main.edge(static_cast<std::uint32_t>(fall)).dst = 2;  // retarget

    const VerifyResult result = verifyLayout(program, layout);
    ASSERT_FALSE(result.verified());
    for (const VerifyFailure &failure : result.failures) {
        EXPECT_EQ(failure.obligation, Obligation::SuccPreservation);
        EXPECT_EQ(failure.proc, 0u);
        EXPECT_EQ(failure.block, 0u);
        EXPECT_NE(formatVerifyFailure(failure).find("succ-preservation"),
                  std::string::npos);
    }
}

TEST(Verify, TotalOnMalformedLayouts)
{
    const Program program = verifyBase();
    // An empty layout is maximally malformed input: the proof fails at
    // the bijection layer without touching anything else — and without
    // crashing.
    const VerifyResult result = verifyLayout(program, ProgramLayout{});
    EXPECT_FALSE(result.verified());
    EXPECT_TRUE(failedObligations(result).count(Obligation::ProcBijection));
}

TEST(VerifyDriver, SweepProvesFullMatrixWithArchDedup)
{
    const Program program = verifyBase();
    VerifyRunOptions options;
    options.sweep.objectives = allObjectiveKinds();
    const VerifyRunReport report = verifyProgramLayouts(program, options);

    EXPECT_TRUE(report.verified())
        << formatVerifyReport(report, "verify-base");
    // Original and Greedy have one layout for BT/FNT and one
    // representative (empty arch context) for the rest. Cost and Try15
    // have BT/FNT's plus one per cost class of the rest (5 in all) under
    // the arch-dependent table-cost and size-aware, and Greedy's two under
    // exttsp.
    EXPECT_EQ(report.layoutsVerified, 2u * (2u + 2u + 5u + 5u) + 4u * 2u);
    EXPECT_EQ(report.failedLayouts, 0u);
    EXPECT_GT(report.totalChecks(), 0u);

    std::size_t representatives = 0;
    for (const VerifyCertificate &certificate : report.certificates) {
        EXPECT_TRUE(certificate.result.verified());
        if (certificate.arch.empty()) {
            ++representatives;
            EXPECT_TRUE(certificate.objective == "exttsp" ||
                        certificate.aligner == "original" ||
                        certificate.aligner == "greedy")
                << certificate.aligner << " / " << certificate.objective;
        }
    }
    EXPECT_EQ(representatives, 2u * 2u + 4u);
}

TEST(VerifyDriver, MutatorFailuresLandInReportAndCertificates)
{
    const Program program = verifyBase();
    VerifyRunOptions options;
    options.sweep.archs = {Arch::Fallthrough};
    options.sweep.kinds = {AlignerKind::Cost};
    options.mutate = [](ProgramLayout &layout, Arch, AlignerKind,
                        ObjectiveKind) {
        layout.procs[0].blocks[layout.procs[0].order[1]].addr += 1;
    };
    const VerifyRunReport report = verifyProgramLayouts(program, options);
    EXPECT_FALSE(report.verified());
    EXPECT_EQ(report.failedLayouts, 1u);
    const std::string text = formatVerifyReport(report, "verify-base");
    EXPECT_NE(text.find("address-contiguity"), std::string::npos);
    EXPECT_NE(text.find("1 failed"), std::string::npos);
}

TEST(VerifyDriver, CertificateJsonCarriesSchemaAndObligations)
{
    const Program program = verifyBase();
    VerifyRunOptions options;
    options.sweep.archs = {Arch::BtFnt};
    options.sweep.kinds = {AlignerKind::Greedy};
    const VerifyRunReport report = verifyProgramLayouts(program, options);
    ASSERT_EQ(report.certificates.size(), 1u);

    std::ostringstream os;
    writeCertificateJson(report.certificates.front(), os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(json.find("\"verified\":true"), std::string::npos);
    EXPECT_NE(json.find("\"aligner\":\"greedy\""), std::string::npos);
    for (std::size_t i = 0; i < kNumObligations; ++i) {
        EXPECT_NE(json.find(obligationName(static_cast<Obligation>(i))),
                  std::string::npos);
    }

    std::ostringstream report_os;
    writeVerifyReportJson(report, "verify-base", report_os);
    EXPECT_NE(report_os.str().find("\"schema_version\":1"),
              std::string::npos);
    EXPECT_NE(report_os.str().find("\"certificates\":["),
              std::string::npos);
}

TEST(VerifyGate, CleanProgramPassesCorruptedLayoutFails)
{
    const Program program = verifyBase();
    ConfigSweep sweep;
    sweep.archs = {Arch::Fallthrough};
    sweep.kinds = {AlignerKind::Greedy};

    EXPECT_FALSE(verifyGateCheck(program, sweep).has_value());

    const auto finding = verifyGateCheck(
        program, sweep,
        [](ProgramLayout &layout, Arch, AlignerKind, ObjectiveKind) {
            layout.procs[0].blocks[layout.procs[0].order[1]].addr += 1;
        });
    ASSERT_TRUE(finding.has_value());
    EXPECT_EQ(finding->kind, DivergenceKind::Verify);
    EXPECT_EQ(finding->arch, Arch::Fallthrough);
    EXPECT_EQ(finding->aligner, AlignerKind::Greedy);
    EXPECT_NE(finding->detail.find("address-contiguity"),
              std::string::npos);
}

TEST(VerifyGate, FuzzCampaignCatchesAndShrinksInjectedFailure)
{
    // End to end: an injected layout corruption must surface as a
    // DivergenceKind::Verify finding, and the shrinker must boil the
    // repro down to the smallest program the mutator can still corrupt —
    // one procedure of two minimum-size blocks.
    FuzzOptions options;
    options.seeds = 1;
    options.walkInstrs = 2'000;
    options.sweep.archs = {Arch::Fallthrough};
    options.sweep.kinds = {AlignerKind::Greedy};
    options.sweep.objectives = {ObjectiveKind::TableCost};
    options.corpusDir = testing::TempDir() + "balign-verify-gate";
    std::filesystem::create_directories(options.corpusDir);
    options.layoutMutator = [](ProgramLayout &layout, Arch, AlignerKind,
                               ObjectiveKind) {
        for (ProcLayout &proc : layout.procs) {
            if (proc.order.size() > 1) {
                proc.blocks[proc.order[1]].addr += 1;
                return;
            }
        }
    };

    const FuzzReport report = runFuzz(options);
    EXPECT_EQ(report.programsRun, 1u);
    EXPECT_EQ(report.count(DivergenceKind::Verify), 1u);
    ASSERT_EQ(report.divergences.size(), 1u);
    EXPECT_EQ(report.divergences.front().kind, DivergenceKind::Verify);
    EXPECT_NE(report.divergences.front().detail.find("address-contiguity"),
              std::string::npos);

    ASSERT_EQ(report.reproPaths.size(), 1u);
    const auto repro = loadRepro(report.reproPaths.front());
    ASSERT_TRUE(repro.has_value());
    EXPECT_EQ(repro->program.numProcs(), 1u);
    const Procedure &main = repro->program.proc(repro->program.mainProc());
    EXPECT_GE(main.numBlocks(), 2u);  // one block would dodge the mutator
    EXPECT_LE(main.numBlocks(), 3u);
    for (const BasicBlock &block : main.blocks())
        EXPECT_EQ(block.numInstrs, 1u);
}
