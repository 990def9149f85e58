/**
 * @file
 * Tests for procedure positioning (the Pettis–Hansen extension) and
 * ordered program materialization.
 */

#include <gtest/gtest.h>

#include "cfg/builder.h"
#include "layout/proc_order.h"
#include "sim/batch_replay.h"
#include "sim/cpi.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

Program
threeProcs()
{
    Program program("three");
    for (int i = 0; i < 3; ++i) {
        std::string name = "p";
        name += std::to_string(i);
        Procedure &proc = program.proc(program.addProc(name));
        CfgBuilder b(proc);
        b.block(4 + i, Terminator::Return);
    }
    return program;
}

std::vector<std::vector<BlockId>>
identityOrders(const Program &program)
{
    std::vector<std::vector<BlockId>> orders;
    for (const auto &proc : program.procs()) {
        std::vector<BlockId> order(proc.numBlocks());
        for (BlockId b = 0; b < proc.numBlocks(); ++b)
            order[b] = b;
        orders.push_back(order);
    }
    return orders;
}

}  // namespace

TEST(ProcOrder, MainGroupComesFirst)
{
    const Program program = threeProcs();
    CallGraph calls;
    calls[{1, 2}] = 1000;  // hottest pair excludes main
    const auto order = orderProcsByCallGraph(program, calls);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order.front(), program.mainProc());
}

TEST(ProcOrder, HotPairsPlacedAdjacent)
{
    const Program program = threeProcs();
    CallGraph calls;
    calls[{0, 2}] = 1000;
    calls[{0, 1}] = 10;
    const auto order = orderProcsByCallGraph(program, calls);
    // 0 and 2 merge first; the orientation search then reverses the pair
    // so that 0 and 1 can also sit adjacent: [2, 0, 1] keeps BOTH call
    // pairs at distance one.
    const auto pos = [&](ProcId p) {
        for (std::size_t i = 0; i < order.size(); ++i)
            if (order[i] == p)
                return i;
        return order.size();
    };
    EXPECT_EQ(pos(2) + 1, pos(0));
    EXPECT_EQ(pos(0) + 1, pos(1));
}

TEST(ProcOrder, PermutationForRealCallGraph)
{
    ProgramSpec spec = suiteSpec("li");
    spec.traceInstrs = 100'000;
    const PreparedProgram prepared = prepareProgram(spec);
    const Program &program = prepared.program;

    const auto order =
        orderProcsByCallGraph(program, traceCallGraph(*prepared.batch));
    ASSERT_EQ(order.size(), program.numProcs());
    std::vector<bool> seen(program.numProcs(), false);
    for (ProcId p : order) {
        ASSERT_LT(p, program.numProcs());
        EXPECT_FALSE(seen[p]);
        seen[p] = true;
    }
}

TEST(ProcOrder, TraceCallGraphMatchesPinnedDigest)
{
    // The graph the walk's own call events counted (a sink that added one
    // per onCall, keyed by the calling procedure) for li at 100k
    // instructions: 31 pairs, 298 calls.
    ProgramSpec spec = suiteSpec("li");
    spec.traceInstrs = 100'000;
    const CallGraph calls = traceCallGraph(*prepareProgram(spec).batch);

    std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a 64
    auto fold = [&hash](std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (value >> (8 * byte)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    };
    Weight total = 0;
    for (const auto &[pair, count] : calls) {
        fold(pair.first);
        fold(pair.second);
        fold(count);
        total += count;
    }
    EXPECT_EQ(calls.size(), 31u);
    EXPECT_EQ(total, 298u);
    EXPECT_EQ(hash, 0x5a823f59052012c6ull)
        << "0x" << std::hex << hash << "ull";
}

TEST(ProcOrder, EmptyCallGraphKeepsAllProcs)
{
    const Program program = threeProcs();
    const auto order = orderProcsByCallGraph(program, CallGraph{});
    EXPECT_EQ(order.size(), 3u);
    EXPECT_EQ(order.front(), 0u);
}

TEST(ProcOrder, OrderedMaterializationMovesBases)
{
    const Program program = threeProcs();  // sizes 4, 5, 6
    const auto orders = identityOrders(program);
    const std::vector<ProcId> proc_order{2, 0, 1};
    const ProgramLayout layout = materializeProgramOrdered(
        program, orders, proc_order);
    EXPECT_EQ(layout.procs[2].base, 0u);
    EXPECT_EQ(layout.procs[0].base, 6u);
    EXPECT_EQ(layout.procs[1].base, 10u);
    EXPECT_EQ(layout.totalInstrs, 15u);
    EXPECT_EQ(layout.procEntryAddr(0), 6u);
}

TEST(ProcOrderDeath, RejectsBadOrder)
{
    const Program program = threeProcs();
    const auto orders = identityOrders(program);
    EXPECT_DEATH(materializeProgramOrdered(program, orders, {0, 0, 1}),
                 "bad procedure order");
    EXPECT_DEATH(materializeProgramOrdered(program, orders, {0, 1}),
                 "size mismatch");
}

TEST(ProcOrder, IdOrderEquivalentToPlainMaterialization)
{
    ProgramSpec spec = suiteSpec("compress");
    spec.traceInstrs = 50'000;
    const Program program = generateProgram(spec);
    const auto orders = identityOrders(program);
    std::vector<ProcId> id_order(program.numProcs());
    for (ProcId p = 0; p < program.numProcs(); ++p)
        id_order[p] = p;

    const ProgramLayout plain =
        materializeProgram(program, orders);
    const ProgramLayout ordered = materializeProgramOrdered(
        program, orders, id_order);
    ASSERT_EQ(plain.totalInstrs, ordered.totalInstrs);
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        EXPECT_EQ(plain.procs[p].base, ordered.procs[p].base);
        EXPECT_EQ(plain.procs[p].order, ordered.procs[p].order);
    }
}
