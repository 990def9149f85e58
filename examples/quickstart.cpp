/**
 * @file
 * Quickstart: build a small CFG by hand, profile it with a seeded walk,
 * align it with the Greedy and Try15 algorithms, and compare branch costs
 * on the FALLTHROUGH architecture.
 *
 * This walks through the full public API surface:
 *   CfgBuilder -> prepareProgram (walk -> batched trace -> profile)
 *   -> runConfigs (alignProgram + the batched replay engine).
 */

#include <cstdio>

#include "cfg/builder.h"
#include "cfg/dot.h"
#include "core/align_program.h"
#include "sim/cpi.h"
#include "trace/walker.h"

using namespace balign;

int
main()
{
    // 1. Build a program: a hot loop whose back edge is taken (the layout
    //    a compiler would naturally emit), plus a cold error path.
    Program program("quickstart");
    const ProcId pid = program.addProc("kernel");
    CfgBuilder b(program.proc(pid));

    const BlockId entry = b.block(3, Terminator::FallThrough);
    const BlockId head = b.block(2, Terminator::CondBranch);   // loop test
    const BlockId body = b.block(8, Terminator::CondBranch);   // hot work
    const BlockId error = b.block(4, Terminator::UncondBranch);  // cold
    const BlockId latch = b.block(2, Terminator::UncondBranch);
    const BlockId exit = b.block(5, Terminator::Return);

    b.fallThrough(entry, head, 0, 1.0);
    b.fallThrough(head, body, 0, 0.98);   // stay in the loop
    b.taken(head, exit, 0, 0.02);
    b.fallThrough(body, error, 0, 0.01);  // rare error check
    b.taken(body, latch, 0, 0.99);
    b.taken(error, latch, 0, 1.0);
    b.taken(latch, head, 0, 1.0);         // loop back

    // 2. Profile: one deterministic walk fills the edge weights.
    WalkOptions walk_options;
    walk_options.seed = 42;
    walk_options.instrBudget = 200'000;
    const PreparedProgram prepared =
        prepareProgram(std::move(program), walk_options);

    std::printf("profiled: %llu instrs, %.1f%% of conditional branches "
                "taken in the original layout\n",
                static_cast<unsigned long long>(prepared.stats.instrsTraced),
                prepared.stats.pctTaken());

    // 3. Align for the FALLTHROUGH architecture and evaluate Original,
    //    Greedy and Try15 on the same trace.
    const std::vector<ExperimentConfig> configs = {
        {Arch::Fallthrough, AlignerKind::Original},
        {Arch::Fallthrough, AlignerKind::Greedy},
        {Arch::Fallthrough, AlignerKind::Try15},
    };
    const ExperimentRun run = runConfigs(prepared, configs);

    std::printf("\n%-10s %12s %14s %12s\n", "layout", "rel. CPI",
                "fall-through%", "BEP cycles");
    for (const auto &cell : run.cells) {
        std::printf("%-10s %12.3f %14.1f %12.0f\n",
                    alignerKindName(cell.config.kind), cell.relCpi,
                    cell.eval.pctFallThrough(), cell.eval.bep());
    }

    // 4. Export the CFG for inspection (paper-style: fall-through edges
    //    bold, taken edges dashed).
    std::printf("\nGraphviz of the profiled CFG:\n%s",
                toDot(prepared.program.proc(pid)).c_str());
    return 0;
}
