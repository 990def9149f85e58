/**
 * @file
 * Record-once trace engine.
 *
 * Walking a program model is the experiment pipeline's hot path: the walker
 * re-executes CFG control flow, draws from the RNG at every conditional and
 * indirect terminator, and (via MultiSink) pays one virtual call per sink
 * per event — millions of events per program, repeated for every
 * (layout, architecture) configuration. The recorder removes all of that
 * repeated work: one walk is captured into a compact structure-of-arrays
 * event buffer, and every subsequent evaluation replays the buffer with a
 * tight loop that does nothing but dispatch events to a single sink.
 *
 * Replays are completely independent of each other — no shared mutable
 * state — so the parallel experiment runner (sim/runner.h) schedules them
 * freely across threads while remaining bit-identical to a serial run.
 *
 * Storage: 9 bytes per event (1-byte opcode + two 32-bit operands in
 * parallel arrays) plus 4 bytes per call/return for the call-site index.
 * Call sites are stored by index and resolved against the Program at replay
 * time, so a RecordedTrace holds no pointers into the program and stays
 * valid across Program moves; the replayed program must simply have the
 * same CFG shape as the recorded one (same blocks, edges and call sites).
 */

#ifndef BALIGN_TRACE_RECORDER_H
#define BALIGN_TRACE_RECORDER_H

#include <cstdint>
#include <vector>

#include "cfg/program.h"
#include "trace/event.h"
#include "trace/walker.h"

namespace balign {

/// A captured walk: the full event stream in replayable form.
class RecordedTrace
{
  public:
    /// Replays the captured stream into @p sink, event for event.
    /// @p program must be CFG-identical to the recorded program.
    void replay(const Program &program, EventSink &sink) const;

    /// Number of captured events.
    std::size_t numEvents() const { return ops_.size(); }

    /// Approximate heap footprint of the buffers, in bytes.
    std::size_t sizeBytes() const;

    /// The WalkResult of the recorded walk.
    const WalkResult &walkResult() const { return walkResult_; }

    /// Same events, call sites and walk summary.
    bool operator==(const RecordedTrace &other) const = default;

  private:
    friend class TraceRecorder;

    enum class Op : std::uint8_t { Block, Call, Return, Edge, Exit };

    // Structure-of-arrays event buffer; entry i of ops_/procs_/args_ is one
    // event. args_ holds the block (Block/Call/Return) or the edge index
    // (Edge). sites_ is a side array consumed in order by Call/Return.
    std::vector<std::uint8_t> ops_;
    std::vector<std::uint32_t> procs_;
    std::vector<std::uint32_t> args_;
    std::vector<std::uint32_t> sites_;
    WalkResult walkResult_;
};

/**
 * EventSink that captures the stream into a RecordedTrace. Drive it with
 * walk() (directly or via MultiSink, e.g. alongside the Profiler so a
 * single walk both profiles and records), then take() the buffer.
 */
class TraceRecorder : public EventSink
{
  public:
    /// @p program is used to derive call-site indices; it must be the same
    /// program the walk runs over.
    explicit TraceRecorder(const Program &program) : program_(program) {}

    void onBlock(ProcId proc, BlockId block) override;
    void onCall(ProcId proc, BlockId block, const CallSite &site) override;
    void onReturn(ProcId proc, BlockId block, const CallSite &site) override;
    void onEdge(ProcId proc, std::uint32_t edge_index) override;
    void onExit() override;

    /// Records the walk summary (usually the return value of walk()).
    void setWalkResult(const WalkResult &result)
    {
        trace_.walkResult_ = result;
    }

    /// Moves the captured trace out; the recorder is empty afterwards.
    RecordedTrace take() { return std::move(trace_); }

  private:
    void push(RecordedTrace::Op op, std::uint32_t proc, std::uint32_t arg);

    const Program &program_;
    RecordedTrace trace_;
};

/**
 * Convenience: walks @p program once with @p options and returns the
 * captured trace (walk summary included).
 */
RecordedTrace recordTrace(const Program &program, const WalkOptions &options);

}  // namespace balign

#endif  // BALIGN_TRACE_RECORDER_H
