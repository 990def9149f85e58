/**
 * @file
 * A recorded walk, kept as the walk's identity rather than its events.
 *
 * The walker (trace/walker.h) draws only from the program's static edge
 * biases, branch patterns and correlations and from its seeded RNG, so a
 * walk is fully determined by the program's CFG and its WalkOptions. A
 * RecordedTrace therefore stores those options and the walk's summary
 * (WalkResult, event count included) and holds no event buffer: replay()
 * walks the program again and delivers the identical event stream.
 *
 * prepareProgram (sim/cpi.h) is the one place that makes one: its
 * profiling walk builds the batched trace (walkBatchTrace,
 * sim/batch_replay.h), whose counts are the profile, and the walk's
 * options and summary become PreparedProgram::trace. Only the readers
 * that need individual events (the pipeline timing model, the differ's
 * event stage and the tests) re-walk through replay().
 *
 * Edge weights never steer the walk, so a program may be replayed after
 * it has been profiled, degraded or moved. replay() panics when the
 * re-walk's summary differs from the recorded one, i.e. when it is given
 * a program whose CFG or biases are not those of the walked program.
 */

#ifndef BALIGN_TRACE_RECORDER_H
#define BALIGN_TRACE_RECORDER_H

#include <cstddef>

#include "cfg/program.h"
#include "trace/event.h"
#include "trace/walker.h"

namespace balign {

/// A walk of a program: its options and its summary.
class RecordedTrace
{
  public:
    RecordedTrace(const WalkOptions &options, const WalkResult &result)
        : options_(options), result_(result)
    {
    }

    /// Walks @p program again into @p sink, event for event as recorded.
    /// @p program must be the walked program (same CFG and biases).
    void replay(const Program &program, EventSink &sink) const;

    /// Number of events the walk emitted.
    std::size_t numEvents() const { return result_.events; }

    /// Heap bytes held for the events: none, since a replay re-walks.
    std::size_t sizeBytes() const { return 0; }

    /// The WalkResult of the recorded walk.
    const WalkResult &walkResult() const { return result_; }

  private:
    WalkOptions options_;
    WalkResult result_;
};

}  // namespace balign

#endif  // BALIGN_TRACE_RECORDER_H
