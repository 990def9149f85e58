/**
 * @file
 * Paper Figure 1 walk-through: the fragment of ESPRESSO's elim_lowering
 * routine. Shows, for each static prediction architecture, which edges are
 * mispredicted or misfetched in the original layout and how the Try15
 * alignment transforms the code (paper §3, Figure 1).
 *
 * Block ids map to the paper's node labels: 0 = entry stub, 1..8 = nodes
 * 25..32.
 */

#include <cstdio>

#include "cfg/dot.h"
#include "core/align_program.h"
#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "trace/walker.h"
#include "workload/paper_figures.h"

using namespace balign;

namespace {

const char *
nodeName(BlockId id)
{
    static const char *names[] = {"entry", "25", "26", "27", "28",
                                  "29",    "30", "31", "32"};
    return id < 9 ? names[id] : "?";
}

void
describeLayout(const Program &program, const ProgramLayout &layout)
{
    const Procedure &proc = program.proc(0);
    const ProcLayout &pl = layout.procs[0];
    std::printf("  block order:");
    for (BlockId id : pl.order)
        std::printf(" %s", nodeName(id));
    std::printf("\n  jumps inserted %u, removed %u, senses inverted %u\n",
                pl.jumpsInserted, pl.jumpsRemoved, pl.sensesInverted);

    // Realized taken edges (the "dotted" edges of the paper figure).
    std::printf("  realized taken edges:");
    for (const auto &block : proc.blocks()) {
        if (block.term != Terminator::CondBranch)
            continue;
        const EdgeKind kind = branchTargetKind(pl.blocks[block.id].cond);
        const auto index = static_cast<std::uint32_t>(
            kind == EdgeKind::Taken ? proc.takenEdge(block.id)
                                    : proc.fallThroughEdge(block.id));
        std::printf(" %s->%s", nodeName(block.id),
                    nodeName(proc.edge(index).dst));
    }
    std::printf("\n");
}

}  // namespace

int
main()
{
    const Program program = figure1Espresso();
    std::printf("Figure 1: ESPRESSO elim_lowering fragment\n");
    std::printf("(weights are per-mille of procedure transitions x 100; "
                "edge 31->25 is the paper's '16')\n\n");

    const ProgramLayout original = originalLayout(program);
    std::printf("Original layout:\n");
    describeLayout(program, original);

    // Evaluate each static architecture on the same stochastic trace.
    WalkOptions walk_options;
    walk_options.seed = 1994;
    walk_options.instrBudget = 500'000;
    const BatchTrace trace(program, recordTrace(program, walk_options));

    std::printf("\n%-12s %14s %14s %12s %12s\n", "architecture",
                "orig mispred", "orig misfetch", "try15 mis", "try15 mf");
    for (Arch arch : {Arch::Fallthrough, Arch::BtFnt, Arch::Likely}) {
        const CostModel model(arch);
        const ProgramLayout aligned =
            alignProgram(program, AlignerKind::Try15, &model);

        const std::vector<EvalParams> lanes = {EvalParams::forArch(arch)};
        const std::vector<std::vector<EvalResult>> results = runBatchReplay(
            program, {{&original, lanes}, {&aligned, lanes}}, trace);
        const EvalResult &orig_eval = results[0][0];
        const EvalResult &aligned_eval = results[1][0];

        std::printf("%-12s %14llu %14llu %12llu %12llu\n", archName(arch),
                    static_cast<unsigned long long>(orig_eval.mispredicts),
                    static_cast<unsigned long long>(orig_eval.misfetches),
                    static_cast<unsigned long long>(aligned_eval.mispredicts),
                    static_cast<unsigned long long>(aligned_eval.misfetches));
    }

    const CostModel ft(Arch::Fallthrough);
    const ProgramLayout aligned =
        alignProgram(program, AlignerKind::Try15, &ft);
    std::printf("\nTry15/FALLTHROUGH transformed layout "
                "(node 25 becomes the fall-through of 31, paper Fig 1b):\n");
    describeLayout(program, aligned);

    std::printf("\nGraphviz (render with `dot -Tpng`):\n%s",
                toDot(program.proc(0)).c_str());
    return 0;
}
