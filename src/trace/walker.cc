#include "trace/walker.h"

#include <algorithm>

#include "support/log.h"

namespace balign {

namespace walker_detail {

FlatProgram::FlatProgram(const Program &program)
{
    if (program.numProcs() == 0)
        panic("walk: empty program");

    blockBase.resize(program.numProcs());
    entry.resize(program.numProcs());
    std::uint32_t total = 0;
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        blockBase[p] = total;
        entry[p] = total + program.proc(p).entry();
        total += static_cast<std::uint32_t>(program.proc(p).numBlocks());
    }
    blocks.resize(total);

    for (ProcId p = 0; p < program.numProcs(); ++p) {
        const Procedure &proc = program.proc(p);
        const std::uint32_t base = blockBase[p];
        auto successor = [&](FlatBlock &row, int slot, std::int64_t edge) {
            if (edge < 0)
                return;
            const auto index = static_cast<std::uint32_t>(edge);
            row.succEdge[slot] = index;
            row.succDst[slot] = base + proc.edge(index).dst;
        };
        for (const BasicBlock &block : proc.blocks()) {
            FlatBlock &row = blocks[base + block.id];
            row.numInstrs = block.numInstrs;
            row.firstCall = static_cast<std::uint32_t>(sites.size());
            row.numCalls = static_cast<std::uint32_t>(block.calls.size());
            sites.insert(sites.end(), block.calls.begin(), block.calls.end());
            row.term = block.term;
            switch (block.term) {
              case Terminator::FallThrough:
                successor(row, 1, proc.fallThroughEdge(block.id));
                break;
              case Terminator::UncondBranch:
                successor(row, 0, proc.takenEdge(block.id));
                break;
              case Terminator::CondBranch: {
                successor(row, 0, proc.takenEdge(block.id));
                successor(row, 1, proc.fallThroughEdge(block.id));
                if (row.succEdge[0] == kNone || row.succEdge[1] == kNone)
                    panic("walk: %s block %u of %s lacks a taken or "
                          "fall-through edge",
                          terminatorName(block.term), block.id,
                          proc.name().c_str());
                const double bias_taken = proc.edge(row.succEdge[0]).bias;
                const double bias_fall = proc.edge(row.succEdge[1]).bias;
                const double sum = bias_taken + bias_fall;
                row.pTaken = sum > 0.0 ? bias_taken / sum : 0.5;
                row.patternLength = block.patternLength;
                row.patternMask = block.patternMask;
                if (block.correlatedWith != kNoBlock) {
                    if (block.correlatedWith >= proc.numBlocks())
                        panic("walk: block %u of %s correlates with "
                              "missing block %u",
                              block.id, proc.name().c_str(),
                              block.correlatedWith);
                    row.correlated = base + block.correlatedWith;
                }
                row.correlatedInvert = block.correlatedInvert;
                break;
              }
              case Terminator::IndirectJump: {
                const std::size_t first = targetEdge.size();
                bool any = false;
                for (const std::uint32_t index : proc.outEdges(block.id)) {
                    const Edge &edge = proc.edge(index);
                    targetEdge.push_back(index);
                    targetDst.push_back(base + edge.dst);
                    targetWeight.push_back(edge.bias);
                    any = any || edge.bias > 0.0;
                }
                row.succEdge[0] = static_cast<std::uint32_t>(first);
                row.succEdge[1] =
                    static_cast<std::uint32_t>(targetEdge.size() - first);
                if (!any)
                    std::fill(targetWeight.begin() + first,
                              targetWeight.end(), 1.0);
                break;
              }
              case Terminator::Return:
                break;
            }
        }
    }
}

}  // namespace walker_detail

WalkResult
walk(const Program &program, const WalkOptions &options, EventSink &sink)
{
    return walkInto(program, options, sink);
}

}  // namespace balign
