/**
 * @file
 * Loop-unrolling walkthrough (the paper's §3 proposal): duplicate a hot
 * single-block loop so that most iterations continue by falling through,
 * then align. Shows the CFG surgery, the profile before/after, and the
 * branch-cost effect on FALLTHROUGH and BT/FNT.
 */

#include <cstdio>

#include "cfg/dot.h"
#include "core/align_program.h"
#include "core/unroll.h"
#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "trace/profiler.h"
#include "trace/walker.h"
#include "workload/paper_figures.h"

using namespace balign;

namespace {

/// Profiles and evaluates a program on one architecture with its Try15
/// alignment; returns BEP per thousand instructions.
double
bepPerKiloInstr(Program &program, Arch arch, std::uint64_t seed)
{
    WalkOptions options;
    options.seed = seed;
    options.instrBudget = 500'000;

    program.clearWeights();
    Profiler profiler(program);
    walk(program, options, profiler);

    const CostModel model(arch);
    const ProgramLayout layout =
        alignProgram(program, AlignerKind::Try15, &model);
    const EvalResult result = runBatchReplay(
        program, layout, BatchTrace(program, recordTrace(program, options)),
        {EvalParams::forArch(arch)})[0];
    return 1000.0 * result.bep() / static_cast<double>(result.instrs);
}

}  // namespace

int
main()
{
    std::printf("Loop unrolling by block duplication (paper §3)\n\n");

    Program plain = figure2Alvinn();
    Program unrolled = figure2Alvinn();

    UnrollOptions options;
    options.factor = 4;
    const unsigned loops = unrollSelfLoops(unrolled, options);
    std::printf("unrolled %u loop(s), factor %u: %zu blocks -> %zu "
                "blocks, %llu -> %llu instructions\n",
                loops, options.factor, plain.proc(0).numBlocks(),
                unrolled.proc(0).numBlocks(),
                static_cast<unsigned long long>(plain.totalInstrs()),
                static_cast<unsigned long long>(unrolled.totalInstrs()));

    std::printf("\naligned branch penalty (cycles per 1000 instructions):"
                "\n%-14s %10s %10s\n", "", "plain", "unrolled");
    for (Arch arch : {Arch::Fallthrough, Arch::BtFnt, Arch::PhtDirect}) {
        const double before = bepPerKiloInstr(plain, arch, 77);
        const double after = bepPerKiloInstr(unrolled, arch, 77);
        std::printf("%-14s %10.1f %10.1f\n", archName(arch), before,
                    after);
    }

    std::printf("\nunrolled CFG (note the fall-through chain of copies):\n"
                "%s",
                toDot(unrolled.proc(0)).c_str());
    return 0;
}
