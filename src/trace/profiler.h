/**
 * @file
 * Profiler: an EventSink that accumulates edge execution weights into the
 * program's CFG (the paper's ATOM-derived edge profile) and gathers the
 * dynamic halves of the Table-2 program statistics.
 */

#ifndef BALIGN_TRACE_PROFILER_H
#define BALIGN_TRACE_PROFILER_H

#include "cfg/cfg_stats.h"
#include "cfg/program.h"
#include "trace/event.h"

namespace balign {

/**
 * Accumulates edge weights and break-type counts. The program is mutated
 * (edge weights incremented); call Program::clearWeights() first to start a
 * fresh profile.
 */
class Profiler : public EventSink
{
  public:
    explicit Profiler(Program &program) : program_(program)
    {
        program_.setProfileProvenance(ProfileProvenance::Measured);
    }

    void onBlock(ProcId proc, BlockId block) override;
    void onCall(ProcId proc, BlockId block, const CallSite &site) override;
    void onReturn(ProcId proc, BlockId block, const CallSite &site) override;
    void onEdge(ProcId proc, std::uint32_t edge_index) override;
    void onExit() override;

    /**
     * Finished statistics: dynamic counters from this profile run plus the
     * CFG-derived static fields (fillStaticStats).
     */
    ProgramStats stats() const;

  private:
    /// Counts a return if the currently executing block ends in Return.
    void noteReturn();

    Program &program_;
    ProgramStats partial_;

    ProcId curProc_ = kNoProc;
    BlockId curBlock_ = kNoBlock;
};

}  // namespace balign

#endif  // BALIGN_TRACE_PROFILER_H
