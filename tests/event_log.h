/**
 * @file
 * Test helper: an EventSink that logs every event it receives, so two
 * walks (or a walk and a replay) can be compared event for event.
 */

#ifndef BALIGN_TESTS_EVENT_LOG_H
#define BALIGN_TESTS_EVENT_LOG_H

#include <cstdint>
#include <tuple>
#include <vector>

#include "cfg/program.h"
#include "trace/event.h"
#include "trace/walker.h"

namespace balign {

/// EventSink logging every event as a comparable tuple.
class LogSink : public EventSink
{
  public:
    // (opcode, proc, block-or-edge, call-site offset)
    using Entry = std::tuple<int, ProcId, std::uint32_t, std::uint32_t>;

    void
    onBlock(ProcId proc, BlockId block) override
    {
        log.emplace_back(0, proc, block, 0);
    }

    void
    onCall(ProcId proc, BlockId block, const CallSite &site) override
    {
        log.emplace_back(1, proc, block, site.offset);
    }

    void
    onReturn(ProcId proc, BlockId block, const CallSite &site) override
    {
        log.emplace_back(2, proc, block, site.offset);
    }

    void
    onEdge(ProcId proc, std::uint32_t edge_index) override
    {
        log.emplace_back(3, proc, edge_index, 0);
    }

    void
    onExit() override
    {
        log.emplace_back(4, 0, 0, 0);
    }

    std::vector<Entry> log;
};

/// The full event log of one direct walk of @p program.
inline std::vector<LogSink::Entry>
walkLog(const Program &program, const WalkOptions &options)
{
    LogSink sink;
    walk(program, options, sink);
    return sink.log;
}

}  // namespace balign

#endif  // BALIGN_TESTS_EVENT_LOG_H
