/**
 * @file
 * Ablation (extension): Pettis–Hansen procedure positioning on top of
 * intra-procedure branch alignment. The paper deliberately only reorders
 * blocks within procedures; this harness measures what the cited
 * procedure-ordering technique adds on the Alpha 21064 pipeline model,
 * where instruction-cache locality matters (biggest footprints: gcc,
 * cfront, tex).
 */

#include <iostream>

#include "bench_util.h"
#include "core/align_program.h"
#include "core/greedy.h"
#include "layout/proc_order.h"
#include "sim/cpi.h"
#include "sim/pipeline.h"
#include "support/log.h"
#include "support/table.h"
#include "workload/suite.h"

using namespace balign;

int
main()
{
    setVerbose(false);
    Table table({"Program", "aligned", "aligned+procorder", "I$ miss before",
                 "I$ miss after", "footprint KB"});

    const char *names[] = {"espresso", "gcc", "li", "cfront", "groff",
                           "tex"};
    for (const char *name : names) {
        ProgramSpec spec = suiteSpec(name);
        spec.traceInstrs = bench::traceInstrs(spec.traceInstrs);
        const PreparedProgram prepared = prepareProgram(spec);
        const Program &program = prepared.program;

        // Block orders from the Greedy aligner (shared by both layouts).
        GreedyAligner aligner;
        std::vector<std::vector<BlockId>> orders;
        for (const auto &proc : program.procs()) {
            orders.push_back(orderChains(proc, aligner.alignProc(proc),
                                         ChainOrderPolicy::HotFirst));
        }

        const ProgramLayout by_id =
            materializeProgram(program, orders);
        const std::vector<ProcId> proc_order =
            orderProcsByCallGraph(program, traceCallGraph(*prepared.batch));
        const ProgramLayout by_calls = materializeProgramOrdered(
            program, orders, proc_order);

        Alpha21064Model base_model(program, by_id);
        Alpha21064Model ordered_model(program, by_calls);
        MultiSink fanout;
        fanout.add(&base_model.sink());
        fanout.add(&ordered_model.sink());
        prepared.trace->replay(program, fanout);

        table.row()
            .cell(name)
            .cell(1.0, 3)
            .cell(ordered_model.cycles() / base_model.cycles(), 3)
            .cell(base_model.icacheMisses(), true)
            .cell(ordered_model.icacheMisses(), true)
            .cell(static_cast<double>(program.totalInstrs()) * 4.0 /
                      1024.0,
                  1);
    }

    std::cout << "Ablation: procedure positioning (Pettis-Hansen) on the "
                 "Alpha 21064 model\n(cycles relative to greedy-aligned "
                 "code with procedures in id order)\n\n";
    table.print(std::cout);
    return 0;
}
