#include "sim/exec_time.h"

#include "core/align_program.h"
#include "layout/materialize.h"
#include "sim/cpi.h"
#include "trace/recorder.h"
#include "trace/walker.h"
#include "workload/generator.h"

namespace balign {

ExecTimeResult
runExecTime(const ProgramSpec &spec, PhaseTimes *times)
{
    Program generated;
    {
        ScopedPhaseTimer timer(times, "generate");
        generated = generateProgram(spec);
    }
    WalkOptions walk_options;
    walk_options.seed = traceSeed(spec);
    walk_options.instrBudget = spec.traceInstrs;
    PreparedProgram prepared;
    {
        ScopedPhaseTimer timer(times, "profile");
        prepared =
            prepareProgram(std::move(generated), walk_options, spec.name);
    }
    const Program &program = prepared.program;

    // Layouts: the greedy alignment used everywhere, and the Try15/BTB
    // alignment (paper §6.1).
    ProgramLayout orig, greedy, try15;
    {
        ScopedPhaseTimer timer(times, "align");
        orig = originalLayout(program);
        greedy = alignProgram(program, AlignerKind::Greedy, nullptr);
        try15 = alignForArch(program, AlignerKind::Try15, Arch::PhtDirect);
    }

    Alpha21064Model orig_model(program, orig);
    Alpha21064Model greedy_model(program, greedy);
    Alpha21064Model try15_model(program, try15);
    {
        // One independent replay (a re-walk) of the profiling walk per
        // pipeline model.
        ScopedPhaseTimer timer(times, "replay");
        prepared.trace->replay(program, orig_model.sink());
        prepared.trace->replay(program, greedy_model.sink());
        prepared.trace->replay(program, try15_model.sink());
    }

    ExecTimeResult result;
    result.name = spec.name;
    result.originalCycles = orig_model.cycles();
    result.greedyRelative = greedy_model.cycles() / orig_model.cycles();
    result.try15Relative = try15_model.cycles() / orig_model.cycles();
    result.origMispredicts = orig_model.mispredicts();
    result.greedyMispredicts = greedy_model.mispredicts();
    result.try15Mispredicts = try15_model.mispredicts();
    result.origICacheMisses = orig_model.icacheMisses();
    result.try15ICacheMisses = try15_model.icacheMisses();
    result.origMisfetches = orig_model.misfetches();
    result.try15Misfetches = try15_model.misfetches();
    result.origCyclesTotal = orig_model.cycles();
    result.origInstrs = orig_model.instrs();
    return result;
}

}  // namespace balign
