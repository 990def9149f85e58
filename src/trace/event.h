/**
 * @file
 * Event-sink interface for trace-driven simulation.
 *
 * The Walker (trace/walker.h) replays a program's control flow and emits a
 * stream of events. Consumers (the reference evaluator, the pipeline
 * timing model, the tests' event logs) implement EventSink; the
 * batched-trace builder takes the same calls without the virtual
 * dispatch (walkInto). Because a walk
 * is deterministic for a given seed, the same dynamic behaviour can be
 * replayed for every configuration; MultiSink fans a single walk out to many
 * consumers so each program is walked only once per experiment.
 *
 * Event semantics:
 *  - onBlock(p, b): block b of procedure p begins executing. Its
 *    block.numInstrs instructions all execute during this activation even if
 *    calls intervene.
 *  - onCall(p, b, site): the call at block b's given call site fires
 *    (in offset order); the callee's events follow, then onReturn.
 *  - onReturn(p, b, site): control returns to just after that call site.
 *  - onEdge(p, e): block execution finished and intra-procedure edge e of
 *    procedure p is traversed. The destination's onBlock follows.
 *  - onExit(): the walk root returned (one "run" of the program finished).
 */

#ifndef BALIGN_TRACE_EVENT_H
#define BALIGN_TRACE_EVENT_H

#include <vector>

#include "cfg/basic_block.h"
#include "support/types.h"

namespace balign {

class EventSink
{
  public:
    virtual ~EventSink() = default;

    virtual void onBlock(ProcId proc, BlockId block) = 0;
    virtual void onCall(ProcId proc, BlockId block, const CallSite &site) = 0;
    virtual void onReturn(ProcId proc, BlockId block,
                          const CallSite &site) = 0;
    virtual void onEdge(ProcId proc, std::uint32_t edge_index) = 0;
    virtual void onExit() = 0;
};

/// EventSink with empty default implementations.
class NullSink : public EventSink
{
  public:
    void onBlock(ProcId, BlockId) override {}
    void onCall(ProcId, BlockId, const CallSite &) override {}
    void onReturn(ProcId, BlockId, const CallSite &) override {}
    void onEdge(ProcId, std::uint32_t) override {}
    void onExit() override {}
};

/// Fans one event stream out to several sinks, in registration order.
class MultiSink : public EventSink
{
  public:
    void add(EventSink *sink) { sinks_.push_back(sink); }

    void
    onBlock(ProcId proc, BlockId block) override
    {
        for (auto *sink : sinks_)
            sink->onBlock(proc, block);
    }

    void
    onCall(ProcId proc, BlockId block, const CallSite &site) override
    {
        for (auto *sink : sinks_)
            sink->onCall(proc, block, site);
    }

    void
    onReturn(ProcId proc, BlockId block, const CallSite &site) override
    {
        for (auto *sink : sinks_)
            sink->onReturn(proc, block, site);
    }

    void
    onEdge(ProcId proc, std::uint32_t edge_index) override
    {
        for (auto *sink : sinks_)
            sink->onEdge(proc, edge_index);
    }

    void
    onExit() override
    {
        for (auto *sink : sinks_)
            sink->onExit();
    }

  private:
    std::vector<EventSink *> sinks_;
};

}  // namespace balign

#endif  // BALIGN_TRACE_EVENT_H
