#include "trace/profiler.h"

namespace balign {

void
Profiler::onBlock(ProcId proc, BlockId block)
{
    partial_.instrsTraced += program_.proc(proc).block(block).numInstrs;
    curProc_ = proc;
    curBlock_ = block;
}

void
Profiler::onCall(ProcId, BlockId, const CallSite &)
{
    ++partial_.calls;
}

void
Profiler::noteReturn()
{
    if (curProc_ == kNoProc)
        return;
    const auto &block = program_.proc(curProc_).block(curBlock_);
    if (block.term == Terminator::Return)
        ++partial_.returns;
}

void
Profiler::onReturn(ProcId proc, BlockId block, const CallSite &site)
{
    (void)site;
    noteReturn();
    // Execution resumes in the caller's block.
    curProc_ = proc;
    curBlock_ = block;
}

void
Profiler::onEdge(ProcId proc, std::uint32_t edge_index)
{
    Procedure &procedure = program_.proc(proc);
    Edge &edge = procedure.edge(edge_index);
    ++edge.weight;

    switch (procedure.block(edge.src).term) {
      case Terminator::CondBranch:
        ++partial_.condBranches;
        if (edge.kind == EdgeKind::Taken)
            ++partial_.takenCondBranches;
        break;
      case Terminator::UncondBranch:
        ++partial_.uncondBranches;
        break;
      case Terminator::IndirectJump:
        ++partial_.indirectJumps;
        break;
      case Terminator::FallThrough:
      case Terminator::Return:
        break;
    }
}

void
Profiler::onExit()
{
    noteReturn();
    curProc_ = kNoProc;
    curBlock_ = kNoBlock;
}

ProgramStats
Profiler::stats() const
{
    ProgramStats stats = partial_;
    fillStaticStats(program_, stats);
    return stats;
}

}  // namespace balign
