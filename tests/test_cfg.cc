/**
 * @file
 * Unit tests for the CFG IR: blocks, edges, procedures, programs, the
 * fluent builder, and structural validation.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "cfg/builder.h"
#include "cfg/program.h"
#include "cfg/validate.h"
#include "lint/rules.h"

using namespace balign;

namespace {

/// diamond: 0 -> (1 | 2) -> 3(return); fall edges 0->1, 2->3.
Procedure
makeDiamond()
{
    Procedure proc(0, "diamond");
    CfgBuilder b(proc);
    const BlockId head = b.block(3, Terminator::CondBranch);
    const BlockId then_blk = b.block(4, Terminator::UncondBranch);
    const BlockId else_blk = b.block(5, Terminator::FallThrough);
    const BlockId join = b.block(2, Terminator::Return);
    b.fallThrough(head, then_blk, 70);
    b.taken(head, else_blk, 30);
    b.taken(then_blk, join, 70);
    b.fallThrough(else_blk, join, 30);
    return proc;
}

std::vector<std::uint32_t>
listed(EdgeList list)
{
    return {list.begin(), list.end()};
}

}  // namespace

// The edge lists live in the Procedure: a block is its payload only, with
// no padding between fields (48 bytes where a vector header is 24).
static_assert(sizeof(BasicBlock) <= 48, "BasicBlock grew");

TEST(Procedure, AddBlockAssignsDenseIds)
{
    Procedure proc(0, "p");
    EXPECT_EQ(proc.addBlock(1, Terminator::FallThrough), 0u);
    EXPECT_EQ(proc.addBlock(2, Terminator::Return), 1u);
    EXPECT_EQ(proc.numBlocks(), 2u);
    EXPECT_EQ(proc.block(0).numInstrs, 1u);
    EXPECT_EQ(proc.block(1).term, Terminator::Return);
}

TEST(Procedure, EdgeWiring)
{
    const Procedure proc = makeDiamond();
    EXPECT_EQ(proc.numEdges(), 4u);
    EXPECT_EQ(proc.outEdges(0).size(), 2u);
    EXPECT_EQ(proc.inEdges(3).size(), 2u);
    const auto taken = proc.takenEdge(0);
    ASSERT_GE(taken, 0);
    EXPECT_EQ(proc.edge(static_cast<std::uint32_t>(taken)).dst, 2u);
    const auto fall = proc.fallThroughEdge(0);
    ASSERT_GE(fall, 0);
    EXPECT_EQ(proc.edge(static_cast<std::uint32_t>(fall)).dst, 1u);
}

TEST(Procedure, ListsKeepInsertionOrderWithInterleavedBlocks)
{
    Procedure proc(0, "p");
    proc.addBlock(1, Terminator::IndirectJump);
    proc.addBlock(1, Terminator::Return);
    const std::uint32_t e0 = proc.addEdge(0, 1, EdgeKind::Other);
    proc.addBlock(1, Terminator::IndirectJump);
    const std::uint32_t e1 = proc.addEdge(0, 2, EdgeKind::Other);
    const std::uint32_t e2 = proc.addEdge(2, 1, EdgeKind::Other);
    proc.addBlock(1, Terminator::Return);
    const std::uint32_t e3 = proc.addEdge(0, 3, EdgeKind::Other);
    const std::uint32_t e4 = proc.addEdge(2, 3, EdgeKind::Other);
    const std::uint32_t e5 = proc.addEdge(0, 1, EdgeKind::Other);

    EXPECT_EQ(listed(proc.outEdges(0)),
              (std::vector<std::uint32_t>{e0, e1, e3, e5}));
    EXPECT_EQ(listed(proc.outEdges(2)), (std::vector<std::uint32_t>{e2, e4}));
    EXPECT_TRUE(proc.outEdges(1).empty());
    EXPECT_TRUE(proc.outEdges(3).empty());
    EXPECT_TRUE(proc.inEdges(0).empty());
    EXPECT_EQ(listed(proc.inEdges(1)),
              (std::vector<std::uint32_t>{e0, e2, e5}));
    EXPECT_EQ(listed(proc.inEdges(2)), (std::vector<std::uint32_t>{e1}));
    EXPECT_EQ(listed(proc.inEdges(3)), (std::vector<std::uint32_t>{e3, e4}));
    EXPECT_EQ(proc.outEdges(0).front(), e0);
    EXPECT_EQ(proc.outEdges(0).size(), 4u);
}

TEST(Procedure, JoinWithManyInEdgesListsThemInOrder)
{
    constexpr std::uint32_t kPreds = 100'000;
    Procedure proc(0, "join");
    for (std::uint32_t i = 0; i < kPreds; ++i)
        proc.addBlock(1, Terminator::UncondBranch);
    const BlockId join = proc.addBlock(1, Terminator::Return);
    for (BlockId b = 0; b < kPreds; ++b)
        proc.addEdge(b, join, EdgeKind::Taken, b);

    std::uint32_t expected = 0;
    for (const std::uint32_t index : proc.inEdges(join)) {
        ASSERT_EQ(index, expected);
        ASSERT_EQ(proc.edge(index).src, expected);
        ++expected;
    }
    EXPECT_EQ(expected, kPreds);
    EXPECT_EQ(proc.blockWeight(join),
              Weight{kPreds} * (kPreds - 1) / 2);
    EXPECT_EQ(proc.outEdges(kPreds - 1).front(), kPreds - 1);
    EXPECT_TRUE(validate(proc).empty());
}

TEST(Procedure, CopyAndMoveKeepTheLists)
{
    const Procedure original = makeDiamond();
    const auto check = [](const Procedure &proc) {
        EXPECT_EQ(listed(proc.outEdges(0)),
                  (std::vector<std::uint32_t>{0, 1}));
        EXPECT_EQ(listed(proc.inEdges(3)),
                  (std::vector<std::uint32_t>{2, 3}));
        EXPECT_EQ(listed(proc.inEdges(1)), (std::vector<std::uint32_t>{0}));
        EXPECT_TRUE(proc.outEdges(3).empty());
    };
    Procedure copy = original;
    check(copy);
    // The copy's lists are its own: growing it leaves the original's.
    copy.addEdge(2, 3, EdgeKind::Taken);
    EXPECT_EQ(listed(copy.inEdges(3)), (std::vector<std::uint32_t>{2, 3, 4}));
    check(original);

    Procedure moved = std::move(copy);
    EXPECT_EQ(listed(moved.inEdges(3)),
              (std::vector<std::uint32_t>{2, 3, 4}));
    Procedure assigned;
    assigned = original;
    check(assigned);
}

TEST(Procedure, RetargetedEdgeRaisesEdgeTargets)
{
    Procedure proc = makeDiamond();
    // Edge 2 (1 -> 3) now claims 1 -> 2: block 2 exists, but the lists
    // still file the edge under block 3's in-edges.
    proc.edge(2).dst = 2;
    std::vector<Diagnostic> diagnostics;
    lintCfgProcErrors(proc, nullptr, diagnostics);
    unsigned missing = 0, stale = 0;
    for (const Diagnostic &diagnostic : diagnostics) {
        if (diagnostic.rule != "cfg.edge-targets")
            continue;
        EXPECT_EQ(diagnostic.loc.edge, 2u);
        if (diagnostic.loc.block == 2)
            ++missing;  // absent from block 2's in-edges
        if (diagnostic.loc.block == 3)
            ++stale;  // block 3 lists an edge that no longer enters it
    }
    EXPECT_EQ(missing, 1u);
    EXPECT_EQ(stale, 1u);
    EXPECT_FALSE(validate(proc).empty());
}

TEST(Procedure, FindMissingEdgeReturnsNegative)
{
    const Procedure proc = makeDiamond();
    EXPECT_LT(proc.takenEdge(2), 0);   // fall-through block has no taken
    EXPECT_LT(proc.fallThroughEdge(1), 0);  // uncond has no fall-through
}

TEST(Procedure, TotalInstrs)
{
    const Procedure proc = makeDiamond();
    EXPECT_EQ(proc.totalInstrs(), 3u + 4u + 5u + 2u);
}

TEST(Procedure, TotalEdgeWeightAndClear)
{
    Procedure proc = makeDiamond();
    EXPECT_EQ(proc.totalEdgeWeight(), 200u);
    proc.clearWeights();
    EXPECT_EQ(proc.totalEdgeWeight(), 0u);
}

TEST(Procedure, BlockWeightSumsInEdges)
{
    const Procedure proc = makeDiamond();
    EXPECT_EQ(proc.blockWeight(3), 100u);
    EXPECT_EQ(proc.blockWeight(0), 0u);  // entry: no in-edges
}

TEST(Program, AddProcAssignsIds)
{
    Program program("prog");
    EXPECT_EQ(program.addProc("a"), 0u);
    EXPECT_EQ(program.addProc("b"), 1u);
    EXPECT_EQ(program.proc(1).name(), "b");
    EXPECT_EQ(program.mainProc(), 0u);
}

TEST(Program, TotalInstrsAcrossProcs)
{
    Program program("prog");
    program.addProc("a");
    program.addProc("b");
    program.proc(0).addBlock(5, Terminator::Return);
    program.proc(1).addBlock(7, Terminator::Return);
    EXPECT_EQ(program.totalInstrs(), 12u);
}

TEST(TerminatorName, AllNamed)
{
    EXPECT_STREQ(terminatorName(Terminator::FallThrough), "fallthrough");
    EXPECT_STREQ(terminatorName(Terminator::CondBranch), "cond");
    EXPECT_STREQ(terminatorName(Terminator::UncondBranch), "uncond");
    EXPECT_STREQ(terminatorName(Terminator::IndirectJump), "indirect");
    EXPECT_STREQ(terminatorName(Terminator::Return), "return");
}

// ---- CfgBuilder rule enforcement -------------------------------------------

using CfgBuilderDeath = ::testing::Test;

TEST(CfgBuilderDeath, RejectsSecondTakenEdge)
{
    Procedure proc(0, "p");
    CfgBuilder b(proc);
    const BlockId u = b.block(2, Terminator::UncondBranch);
    const BlockId r = b.block(1, Terminator::Return);
    b.taken(u, r);
    EXPECT_DEATH(b.taken(u, r), "already has a taken edge");
}

TEST(CfgBuilderDeath, RejectsTakenFromFallThroughBlock)
{
    Procedure proc(0, "p");
    CfgBuilder b(proc);
    const BlockId f = b.block(2, Terminator::FallThrough);
    const BlockId r = b.block(1, Terminator::Return);
    EXPECT_DEATH(b.taken(f, r), "may only have a fall-through edge");
}

TEST(CfgBuilderDeath, RejectsEdgeFromReturnBlock)
{
    Procedure proc(0, "p");
    CfgBuilder b(proc);
    const BlockId r = b.block(1, Terminator::Return);
    const BlockId x = b.block(1, Terminator::Return);
    EXPECT_DEATH(b.taken(r, x), "may not have out-edges");
}

TEST(CfgBuilderDeath, RejectsZeroInstrBlock)
{
    Procedure proc(0, "p");
    CfgBuilder b(proc);
    EXPECT_DEATH(b.block(0, Terminator::Return), "at least one instruction");
}

TEST(CfgBuilderDeath, RejectsCallBeyondBlock)
{
    Procedure proc(0, "p");
    CfgBuilder b(proc);
    const BlockId blk = b.block(3, Terminator::FallThrough);
    EXPECT_DEATH(b.call(blk, 0, 3), "beyond block");
}

TEST(CfgBuilder, OtherEdgesOnIndirect)
{
    Procedure proc(0, "p");
    CfgBuilder b(proc);
    const BlockId sw = b.block(2, Terminator::IndirectJump);
    const BlockId c1 = b.block(1, Terminator::Return);
    const BlockId c2 = b.block(1, Terminator::Return);
    b.other(sw, c1).other(sw, c2);
    EXPECT_EQ(proc.outEdges(sw).size(), 2u);
}

// ---- validate ----------------------------------------------------------------

TEST(Validate, AcceptsWellFormedProgram)
{
    Program program("ok");
    const ProcId pid = program.addProc("diamond");
    program.proc(pid) = makeDiamond();
    program.proc(pid).setId(pid);
    EXPECT_TRUE(validate(program).empty());
}

TEST(Validate, EmptyProgramRejected)
{
    Program program("empty");
    EXPECT_FALSE(validate(program).empty());
}

TEST(Validate, EmptyProcedureRejected)
{
    Program program("p");
    program.addProc("empty");
    const auto errors = validate(program);
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors.front().message.find("no blocks"), std::string::npos);
}

TEST(Validate, CondBlockMissingFallThrough)
{
    Program program("p");
    Procedure &proc = program.proc(program.addProc("q"));
    const BlockId c = proc.addBlock(2, Terminator::CondBranch);
    const BlockId r = proc.addBlock(1, Terminator::Return);
    proc.addEdge(c, r, EdgeKind::Taken);
    EXPECT_FALSE(validate(program).empty());
}

TEST(Validate, UncondBlockWithTwoEdges)
{
    Program program("p");
    Procedure &proc = program.proc(program.addProc("q"));
    const BlockId u = proc.addBlock(2, Terminator::UncondBranch);
    const BlockId r = proc.addBlock(1, Terminator::Return);
    proc.addEdge(u, r, EdgeKind::Taken);
    proc.addEdge(u, r, EdgeKind::Taken);
    EXPECT_FALSE(validate(program).empty());
}

TEST(Validate, IndirectWithoutTargets)
{
    Program program("p");
    Procedure &proc = program.proc(program.addProc("q"));
    proc.addBlock(2, Terminator::IndirectJump);
    EXPECT_FALSE(validate(program).empty());
}

TEST(Validate, CallToUnknownProcedure)
{
    Program program("p");
    Procedure &proc = program.proc(program.addProc("q"));
    const BlockId blk = proc.addBlock(3, Terminator::Return);
    proc.block(blk).calls.push_back(CallSite{99, 0});
    const auto errors = validate(program);
    bool found = false;
    for (const auto &error : errors)
        found |= error.message.find("unknown procedure") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(Validate, CallOverlappingTerminator)
{
    Program program("p");
    program.addProc("callee");
    Procedure &proc = program.proc(program.addProc("q"));
    const BlockId blk = proc.addBlock(3, Terminator::Return);
    // Return instruction occupies slot 2; a call there is invalid.
    proc.block(blk).calls.push_back(CallSite{0, 2});
    const auto errors = validate(program);
    bool found = false;
    for (const auto &error : errors)
        found |= error.message.find("overlaps the terminator") !=
                 std::string::npos;
    EXPECT_TRUE(found);
}

TEST(Validate, EntryOutOfRange)
{
    Program program("p");
    Procedure &proc = program.proc(program.addProc("q"));
    proc.addBlock(1, Terminator::Return);
    proc.setEntry(5);
    EXPECT_FALSE(validate(program).empty());
}

TEST(ValidateDeath, ValidateOrDiePanicsOnBadProgram)
{
    Program program("bad");
    program.addProc("empty");
    EXPECT_DEATH(validateOrDie(program), "failed validation");
}
