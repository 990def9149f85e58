/**
 * @file
 * Lint-rule tests. A rule that never fires is worthless, so every rule in
 * the catalog gets an injection test: start from a known-good profiled
 * program (or a legal layout of it), corrupt exactly one invariant the
 * way test_differ.cc corrupts materializer bookkeeping, and require a
 * diagnostic with the exact rule id and location. Clean fixtures must
 * lint clean first, so a firing rule is evidence of detection rather
 * than of a noisy fixture.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bpred/static_cost.h"
#include "cfg/builder.h"
#include "cfg/validate.h"
#include "check/fuzz.h"
#include "core/align_program.h"
#include "layout/materialize.h"
#include "lint/lint.h"
#include "objective/table_cost.h"
#include "sim/batch_replay.h"
#include "trace/walker.h"

using namespace balign;

namespace {

/**
 * Two procedures exercising every terminator the rules care about:
 *
 *   main: b0 cond --taken--> b2 uncond --> b3 return
 *            \--fall--> b1 fall (calls leaf) --> b3
 *   leaf: b0 fall --> b1 return
 */
Program
baseProgram()
{
    Program program("lint-base");
    const ProcId main_id = program.addProc("main");
    const ProcId leaf_id = program.addProc("leaf");
    {
        CfgBuilder b(program.proc(main_id));
        const BlockId b0 = b.block(3, Terminator::CondBranch);
        const BlockId b1 = b.block(4, Terminator::FallThrough);
        const BlockId b2 = b.block(2, Terminator::UncondBranch);
        const BlockId b3 = b.block(1, Terminator::Return);
        b.taken(b0, b2, 0, 0.7);
        b.fallThrough(b0, b1, 0, 0.3);
        b.fallThrough(b1, b3, 0);
        b.taken(b2, b3, 0);
        b.call(b1, leaf_id, 1);
    }
    {
        CfgBuilder b(program.proc(leaf_id));
        const BlockId b0 = b.block(2, Terminator::FallThrough);
        const BlockId b1 = b.block(1, Terminator::Return);
        b.fallThrough(b0, b1, 0);
    }
    validateOrDie(program);
    return program;
}

/// baseProgram() with a recorded edge profile (the prof.* rules read it).
Program
profiledBase()
{
    Program program = baseProgram();
    WalkOptions options;
    options.seed = 7;
    options.instrBudget = 2'000;
    profileProgram(program, options);
    return program;
}

std::vector<Diagnostic>
cfgDiags(const Program &program)
{
    std::vector<Diagnostic> sink;
    lintCfg(program, sink);
    return sink;
}

std::vector<Diagnostic>
profDiags(const Program &program)
{
    std::vector<Diagnostic> sink;
    lintProfile(program, LintOptions{}, sink);
    return sink;
}

std::vector<Diagnostic>
layoutDiags(const Program &program, const ProgramLayout &layout)
{
    std::vector<Diagnostic> sink;
    lintLayout(program, layout, "test-arch", "test-algo", sink);
    return sink;
}

/// Requires at least one diagnostic with exactly this rule and location.
testing::AssertionResult
hasRule(const std::vector<Diagnostic> &diags, const std::string &rule,
        ProcId proc = kNoProc, BlockId block = kNoBlock)
{
    for (const Diagnostic &diagnostic : diags) {
        if (diagnostic.rule == rule && diagnostic.loc.proc == proc &&
            diagnostic.loc.block == block)
            return testing::AssertionSuccess();
    }
    testing::AssertionResult result = testing::AssertionFailure();
    result << "no [" << rule << "] diagnostic at proc=" << proc
           << " block=" << block << "; got " << diags.size() << ":";
    for (const Diagnostic &diagnostic : diags)
        result << "\n  " << formatDiagnostic(diagnostic);
    return result;
}

}  // namespace

// ---------------------------------------------------------------------
// Catalog and clean fixtures.

TEST(Lint, CatalogHasStableUniqueIds)
{
    const std::vector<RuleInfo> &rules = allLintRules();
    EXPECT_GE(rules.size(), 10u);
    std::set<std::string> ids;
    for (const RuleInfo &rule : rules) {
        EXPECT_TRUE(ids.insert(rule.id).second)
            << "duplicate rule id " << rule.id;
        const RuleInfo *found = findLintRule(rule.id);
        ASSERT_NE(found, nullptr);
        EXPECT_STREQ(found->id, rule.id);
    }
    EXPECT_EQ(findLintRule("cfg.no-such-rule"), nullptr);
}

TEST(Lint, CleanProgramLintsClean)
{
    const Program program = profiledBase();
    EXPECT_TRUE(cfgDiags(program).empty());
    EXPECT_TRUE(profDiags(program).empty());
    EXPECT_TRUE(layoutDiags(program, originalLayout(program)).empty());

    const LintReport report = lintProgram(program);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.warnings(), 0u);
    EXPECT_EQ(report.layoutsChecked, 32u);   // 8 archs x 4 aligners
    EXPECT_EQ(report.costPairsChecked, 16u); // 8 archs x {cost, try15}
}

// ---------------------------------------------------------------------
// cfg.* injections.

TEST(Lint, EntryFiresOnOutOfRangeEntry)
{
    Program program = baseProgram();
    program.proc(0).setEntry(99);
    EXPECT_TRUE(hasRule(cfgDiags(program), "cfg.entry", 0));
}

TEST(Lint, EntryFiresOnEmptyProgram)
{
    const Program program("empty");
    EXPECT_TRUE(hasRule(cfgDiags(program), "cfg.entry"));
}

TEST(Lint, EdgeTargetsFiresOnDanglingEndpoint)
{
    Program program = baseProgram();
    program.proc(0).edge(0).dst = 99;
    std::vector<Diagnostic> diags = cfgDiags(program);
    bool found = false;
    for (const Diagnostic &diagnostic : diags) {
        if (diagnostic.rule == "cfg.edge-targets" &&
            diagnostic.loc.proc == 0 && diagnostic.loc.edge == 0)
            found = true;
    }
    EXPECT_TRUE(found) << "cfg.edge-targets did not pin edge 0";
}

TEST(Lint, TerminatorArityFiresOnKindMismatch)
{
    Program program = baseProgram();
    // An unconditional branch suddenly claiming to be conditional has a
    // taken edge but no fall-through successor.
    program.proc(0).block(2).term = Terminator::CondBranch;
    EXPECT_TRUE(hasRule(cfgDiags(program), "cfg.terminator-arity", 0, 2));
}

TEST(Lint, CallSiteFiresOnUnknownCallee)
{
    Program program = baseProgram();
    program.proc(0).block(1).calls.push_back({99, 0});
    EXPECT_TRUE(hasRule(cfgDiags(program), "cfg.call-site", 0, 1));
}

TEST(Lint, CallSiteFiresOnTerminatorOverlap)
{
    Program program = baseProgram();
    // Block 0 has 3 instructions and a branch terminator: offsets 0-1
    // are legal, the terminator slot at 2 is not.
    program.proc(0).block(0).calls.push_back({1, 2});
    EXPECT_TRUE(hasRule(cfgDiags(program), "cfg.call-site", 0, 0));
}

TEST(Lint, BlockSizeFiresOnZeroInstrs)
{
    Program program = baseProgram();
    program.proc(0).block(3).numInstrs = 0;
    EXPECT_TRUE(hasRule(cfgDiags(program), "cfg.block-size", 0, 3));
}

TEST(Lint, UnreachableBlockWarnsWithoutSpoilingCleanBill)
{
    Program program = baseProgram();
    CfgBuilder b(program.proc(1));
    const BlockId orphan = b.block(2, Terminator::Return);
    const std::vector<Diagnostic> diags = cfgDiags(program);
    EXPECT_TRUE(hasRule(diags, "cfg.unreachable-block", 1, orphan));
    for (const Diagnostic &diagnostic : diags)
        EXPECT_EQ(diagnostic.severity, Severity::Warning)
            << formatDiagnostic(diagnostic);
    EXPECT_TRUE(lintProgram(program).clean());
}

TEST(Lint, DeadEndWarnsOnSuccessorlessFallThrough)
{
    Program program("dead-end");
    const ProcId main_id = program.addProc("main");
    CfgBuilder b(program.proc(main_id));
    const BlockId head = b.block(2, Terminator::CondBranch);
    const BlockId stuck = b.block(3, Terminator::FallThrough);
    const BlockId exit = b.block(1, Terminator::Return);
    b.taken(head, stuck, 0, 0.5);
    b.fallThrough(head, exit, 0, 0.5);
    const std::vector<Diagnostic> diags = cfgDiags(program);
    EXPECT_TRUE(hasRule(diags, "cfg.dead-end", 0, stuck));
    for (const Diagnostic &diagnostic : diags)
        EXPECT_EQ(diagnostic.severity, Severity::Warning)
            << formatDiagnostic(diagnostic);
}

TEST(Lint, IrreducibleFiresOnMultiEntryLoop)
{
    // b1 and b2 cycle through each other and BOTH are entered from the
    // head: neither dominates the other, so no natural loop exists and
    // the retreating edge b2 -> b1 witnesses the irreducible region.
    Program program("irreducible");
    const ProcId main_id = program.addProc("main");
    CfgBuilder b(program.proc(main_id));
    const BlockId head = b.block(2, Terminator::CondBranch);
    const BlockId left = b.block(3, Terminator::UncondBranch);
    const BlockId right = b.block(2, Terminator::CondBranch);
    const BlockId exit = b.block(1, Terminator::Return);
    b.taken(head, left, 0, 0.5);
    b.fallThrough(head, right, 0, 0.5);
    b.taken(left, right, 0);
    b.taken(right, left, 0, 0.5);
    b.fallThrough(right, exit, 0, 0.5);

    const std::vector<Diagnostic> diags = cfgDiags(program);
    EXPECT_TRUE(hasRule(diags, "cfg.irreducible", 0, right));
    // The region is a warning, not an error: the program is executable,
    // it just defeats the header-anchored layout heuristics.
    EXPECT_EQ(findLintRule("cfg.irreducible")->severity,
              Severity::Warning);
}

// ---------------------------------------------------------------------
// prof.* injections.

TEST(Lint, FlowConservationFiresOnOverOutflow)
{
    Program program = profiledBase();
    // Block 1 suddenly emits 1000 activations it never received.
    Procedure &proc = program.proc(0);
    proc.edge(proc.outEdges(1).front()).weight += 1'000;
    EXPECT_TRUE(hasRule(profDiags(program), "prof.flow-conservation", 0, 1));
}

TEST(Lint, FlowConservationFiresOnExcessInflow)
{
    Program program = profiledBase();
    // Inflate block 1's inflow past the truncated-walk allowance.
    Procedure &proc = program.proc(0);
    proc.edge(proc.inEdges(1).front()).weight += 1'000;
    EXPECT_TRUE(hasRule(profDiags(program), "prof.flow-conservation", 0, 1));
}

TEST(Lint, UnreachableWeightFiresOnPhantomProfile)
{
    Program program = profiledBase();
    // An unreachable two-block cycle carrying weight: flow conserves
    // locally, but no walk can ever have recorded it.
    CfgBuilder b(program.proc(1));
    const BlockId u = b.block(2, Terminator::UncondBranch);
    const BlockId w = b.block(2, Terminator::UncondBranch);
    b.taken(u, w, 5);
    b.taken(w, u, 5);
    const std::vector<Diagnostic> diags = profDiags(program);
    EXPECT_TRUE(hasRule(diags, "prof.unreachable-weight", 1, u));
    EXPECT_TRUE(hasRule(diags, "prof.unreachable-weight", 1, w));
}

TEST(Lint, UncalledProcWeightFiresOnBrokenCallGraph)
{
    Program program = profiledBase();
    ASSERT_GT(program.proc(1).totalEdgeWeight(), 0u)
        << "fixture must execute the leaf procedure";
    // Deleting the only call site leaves the leaf's recorded weight
    // unexplainable by the call graph.
    program.proc(0).block(1).calls.clear();
    EXPECT_TRUE(hasRule(profDiags(program), "prof.uncalled-proc", 1));
}

TEST(Lint, BiasRangeFiresOnNonProbability)
{
    Program program = profiledBase();
    program.proc(0).edge(0).bias = 1.5;
    EXPECT_TRUE(hasRule(profDiags(program), "prof.bias-range", 0,
                        program.proc(0).edge(0).src));
}

TEST(Lint, DegenerateProfileFiresOnAllZeroWeights)
{
    // Edges exist but carry no recorded weight at all (e.g. after heavy
    // sampling): a program-wide Note, located nowhere in particular.
    Program program = profiledBase();
    program.clearWeights();
    const std::vector<Diagnostic> diags = profDiags(program);
    EXPECT_TRUE(hasRule(diags, "prof.degenerate"));
    for (const Diagnostic &diagnostic : diags) {
        if (diagnostic.rule == "prof.degenerate") {
            EXPECT_EQ(diagnostic.severity, Severity::Note);
        }
    }
    // A single surviving activation is enough information to clear it.
    program.proc(0).edge(0).weight = 1;
    EXPECT_FALSE(hasRule(profDiags(program), "prof.degenerate"));
}

TEST(Lint, LoopFlowFiresWhenLoopEmitsMoreThanEntered)
{
    // A loop whose recorded exit weight exceeds its entry weight: every
    // path into a reducible loop passes through the header, so such a
    // profile cannot have been recorded by any single walk. The weights
    // are written by hand — this is precisely the inconsistency a real
    // profiler can never produce.
    Program program("loop-flow");
    const ProcId main_id = program.addProc("main");
    CfgBuilder b(program.proc(main_id));
    const BlockId entry = b.block(2, Terminator::FallThrough);
    const BlockId head = b.block(2, Terminator::CondBranch);
    const BlockId body = b.block(3, Terminator::UncondBranch);
    const BlockId exit = b.block(1, Terminator::Return);
    b.fallThrough(entry, head, 0);          // the loop is never entered...
    b.taken(head, body, 10, 0.5);
    b.fallThrough(head, exit, 10, 0.5);     // ...yet emits weight 10
    b.taken(body, head, 10);

    EXPECT_TRUE(hasRule(profDiags(program), "prof.flow", 0, head));
}

TEST(Lint, LoopFlowFiresWhenLoopSwallowsPastTheSlack)
{
    // Entries far exceed exits: more activations are stranded inside the
    // loop than any truncated walk could account for.
    Program program("loop-swallow");
    const ProcId main_id = program.addProc("main");
    CfgBuilder b(program.proc(main_id));
    const BlockId entry = b.block(2, Terminator::FallThrough);
    const BlockId head = b.block(2, Terminator::CondBranch);
    const BlockId body = b.block(3, Terminator::UncondBranch);
    const BlockId exit = b.block(1, Terminator::Return);
    b.fallThrough(entry, head, 1'000);
    b.taken(head, body, 900, 0.5);
    b.fallThrough(head, exit, 2, 0.5);      // 998 activations vanish
    b.taken(body, head, 900);

    EXPECT_TRUE(hasRule(profDiags(program), "prof.flow", 0, head));
}

TEST(Lint, LoopFlowQuietOnTruncatedWalkResidue)
{
    // The same shape with the imbalance inside the allowance (one
    // activation stranded by the budget) must not fire.
    Program program("loop-residue");
    const ProcId main_id = program.addProc("main");
    CfgBuilder b(program.proc(main_id));
    const BlockId entry = b.block(2, Terminator::FallThrough);
    const BlockId head = b.block(2, Terminator::CondBranch);
    const BlockId body = b.block(3, Terminator::UncondBranch);
    const BlockId exit = b.block(1, Terminator::Return);
    b.fallThrough(entry, head, 10);
    b.taken(head, body, 500, 0.5);
    b.fallThrough(head, exit, 9, 0.5);
    b.taken(body, head, 500);

    EXPECT_FALSE(hasRule(profDiags(program), "prof.flow", 0, head));
}

// ---------------------------------------------------------------------
// layout.* injections (each corrupts a legal original layout).

TEST(Lint, EntryFirstFiresOnDisplacedEntry)
{
    const Program program = baseProgram();
    ProgramLayout layout = originalLayout(program);
    ProcLayout &pl = layout.procs[0];
    std::swap(pl.order[0], pl.order[1]);
    pl.blocks[pl.order[0]].orderIndex = 0;
    pl.blocks[pl.order[1]].orderIndex = 1;
    EXPECT_TRUE(hasRule(layoutDiags(program, layout), "layout.entry-first",
                        0, pl.order[0]));
}

TEST(Lint, PermutationFiresOnDuplicateBlock)
{
    const Program program = baseProgram();
    ProgramLayout layout = originalLayout(program);
    layout.procs[0].order[2] = layout.procs[0].order[1];
    EXPECT_TRUE(hasRule(layoutDiags(program, layout), "layout.permutation",
                        0, layout.procs[0].order[1]));
}

TEST(Lint, AddressesFiresOnShiftedBlock)
{
    const Program program = baseProgram();
    ProgramLayout layout = originalLayout(program);
    layout.procs[0].blocks[2].addr += 3;
    EXPECT_TRUE(hasRule(layoutDiags(program, layout), "layout.addresses",
                        0, 2));
}

TEST(Lint, AddressesFiresOnCorruptProcTotal)
{
    const Program program = baseProgram();
    ProgramLayout layout = originalLayout(program);
    layout.procs[0].totalInstrs += 1;
    EXPECT_TRUE(hasRule(layoutDiags(program, layout), "layout.addresses",
                        0));
}

TEST(Lint, SizesFiresOnCorruptBaseInstrs)
{
    const Program program = baseProgram();
    ProgramLayout layout = originalLayout(program);
    layout.procs[0].blocks[0].baseInstrs += 1;
    EXPECT_TRUE(hasRule(layoutDiags(program, layout), "layout.sizes", 0, 0));
}

TEST(Lint, BranchPolarityFiresOnBogusRealization)
{
    const Program program = baseProgram();
    ProgramLayout layout = originalLayout(program);
    // Block 0's taken successor (block 2) is not next in the identity
    // order, so claiming TakenAdjacent lies about the polarity.
    ASSERT_EQ(layout.procs[0].blocks[0].cond,
              CondRealization::FallAdjacent);
    layout.procs[0].blocks[0].cond = CondRealization::TakenAdjacent;
    EXPECT_TRUE(hasRule(layoutDiags(program, layout),
                        "layout.branch-polarity", 0, 0));
}

TEST(Lint, JumpNeededFiresOnKeptAdjacentJump)
{
    const Program program = baseProgram();
    ProgramLayout layout = originalLayout(program);
    // Block 2's unconditional jump targets the adjacent block 3; the
    // materializer must have removed it, so claiming otherwise is a lie.
    ASSERT_TRUE(layout.procs[0].blocks[2].jumpRemoved);
    layout.procs[0].blocks[2].jumpRemoved = false;
    EXPECT_TRUE(hasRule(layoutDiags(program, layout), "layout.jump-needed",
                        0, 2));
}

TEST(Lint, LoopSplitNotesHotLoopSpreadAcrossSlots)
{
    // A hot two-block loop (header + latch, back-edge weight well past
    // kHotLoopWeight) whose latch is exiled to the end of the layout: the
    // two hot blocks span three slots, costing a taken transfer per
    // iteration.
    Program program("loop-split");
    const ProcId main_id = program.addProc("main");
    CfgBuilder b(program.proc(main_id));
    const BlockId head = b.block(2, Terminator::CondBranch);
    const BlockId body = b.block(3, Terminator::UncondBranch);
    const BlockId exit = b.block(1, Terminator::Return);
    b.taken(head, body, 5'000, 0.9);
    b.fallThrough(head, exit, 100, 0.1);
    b.taken(body, head, 5'000);

    ProgramLayout layout = originalLayout(program);
    ProcLayout &pl = layout.procs[0];
    // head, body, exit -> head, exit, body. Addresses are reflowed and
    // the header's realization updated to the new adjacency, so the
    // layout is exactly what a (bad) aligner would legally produce — the
    // split is the only finding.
    pl.order = {head, exit, body};
    pl.blocks[head].cond = CondRealization::FallAdjacent;
    Addr addr = pl.base;
    for (std::uint32_t i = 0; i < pl.order.size(); ++i) {
        const BlockId id = pl.order[i];
        BlockLayout &bl = pl.blocks[id];
        bl.orderIndex = i;
        bl.addr = addr;
        bl.branchAddr =
            addr + program.proc(main_id).block(id).numInstrs - 1;
        addr += bl.finalInstrs;
    }

    const std::vector<Diagnostic> diags = layoutDiags(program, layout);
    EXPECT_TRUE(hasRule(diags, "layout.loop-split", 0, head));
    EXPECT_EQ(diags.size(), 1u);
    EXPECT_EQ(findLintRule("layout.loop-split")->severity, Severity::Note);
    // The pristine original layout keeps the loop contiguous: no note.
    EXPECT_FALSE(hasRule(layoutDiags(program, originalLayout(program)),
                         "layout.loop-split", 0, head));
}

TEST(Lint, LayoutRulesCarryArchAlignerContext)
{
    const Program program = baseProgram();
    ProgramLayout layout = originalLayout(program);
    layout.procs[0].blocks[0].baseInstrs += 1;
    const std::vector<Diagnostic> diags = layoutDiags(program, layout);
    ASSERT_FALSE(diags.empty());
    EXPECT_EQ(diags.front().arch, "test-arch");
    EXPECT_EQ(diags.front().aligner, "test-algo");
}

// ---------------------------------------------------------------------
// cost.* injection.

TEST(Lint, CostMonotoneFiresOnRegression)
{
    Program program("hot-loop");
    const ProcId main_id = program.addProc("main");
    CfgBuilder b(program.proc(main_id));
    const BlockId head = b.block(2, Terminator::CondBranch);
    const BlockId body = b.block(3, Terminator::UncondBranch);
    const BlockId exit = b.block(1, Terminator::Return);
    b.taken(head, body, 900, 0.9);
    b.fallThrough(head, exit, 100, 0.1);
    b.taken(body, head, 900);
    validateOrDie(program);

    const CostModel model(Arch::Fallthrough);
    const ProgramLayout baseline =
        alignProgram(program, AlignerKind::Greedy, &model, {});
    // A deliberately hostile order: the cold exit splits the hot loop.
    const ProgramLayout candidate = materializeProgram(
        program, {{head, exit, body}});
    ASSERT_GT(modeledBranchCost(program, candidate, model),
              modeledBranchCost(program, baseline, model))
        << "fixture must actually regress for the rule to be provable";

    const TableCostObjective objective(model);
    std::vector<Diagnostic> sink;
    lintCostMonotone(program, objective, archName(model.arch()), baseline,
                     "greedy", candidate, "hostile", sink);
    EXPECT_TRUE(hasRule(sink, "cost.monotone"));
    ASSERT_FALSE(sink.empty());
    EXPECT_EQ(sink.front().aligner, "hostile");
}

TEST(Lint, CostMonotoneQuietOnIdenticalLayouts)
{
    const Program program = profiledBase();
    const CostModel model(Arch::BtFnt);
    const ProgramLayout layout =
        alignProgram(program, AlignerKind::Greedy, &model, {});
    const TableCostObjective objective(model);
    std::vector<Diagnostic> sink;
    lintCostMonotone(program, objective, archName(model.arch()), layout,
                     "greedy", layout, "greedy", sink);
    EXPECT_TRUE(sink.empty());
}

// ---------------------------------------------------------------------
// The fuzzer's lint pre-gate.

TEST(Lint, GateReportsCorruptionAsLintDivergence)
{
    Program program = profiledBase();
    Procedure &proc = program.proc(0);
    proc.edge(proc.outEdges(1).front()).weight += 1'000;
    const std::optional<Divergence> divergence = lintGateCheck(program);
    ASSERT_TRUE(divergence.has_value());
    EXPECT_EQ(divergence->kind, DivergenceKind::Lint);
    EXPECT_NE(divergence->detail.find("prof.flow-conservation"),
              std::string::npos)
        << divergence->detail;
}

TEST(Lint, GatePassesCleanProgram)
{
    EXPECT_FALSE(lintGateCheck(profiledBase()).has_value());
}

TEST(Lint, FuzzCampaignWithGateStaysClean)
{
    FuzzOptions options;
    options.seeds = 5;
    options.firstSeed = 1;
    options.walkInstrs = 2'000;
    const FuzzReport report = runFuzz(options);
    EXPECT_EQ(report.count(DivergenceKind::Lint), 0u);
    EXPECT_TRUE(report.divergences.empty());
}
