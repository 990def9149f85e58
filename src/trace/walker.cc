#include "trace/walker.h"

#include <vector>

#include "support/log.h"
#include "support/rng.h"

namespace balign {

namespace {

struct Frame
{
    ProcId proc;
    BlockId block;
    std::uint32_t callIndex = 0;
    bool entered = false;
};

}  // namespace

WalkResult
walk(const Program &program, const WalkOptions &options, EventSink &sink)
{
    WalkResult result;
    Rng rng(options.seed);

    if (program.numProcs() == 0)
        panic("walk: empty program");

    std::vector<Frame> stack;
    // Scratch weight buffer for indirect jumps, reused across events so the
    // hot loop performs no per-event heap allocation.
    std::vector<double> weights;
    // Per-branch pattern positions (allocated lazily per procedure).
    std::vector<std::vector<std::uint8_t>> pattern_pos(program.numProcs());
    // Per-branch last outcomes: 0 = not taken, 1 = taken, 2 = none yet.
    std::vector<std::vector<std::uint8_t>> last_outcome(program.numProcs());
    const ProcId main = program.mainProc();
    stack.push_back(
        Frame{main, program.proc(main).entry(), 0, false});

    while (!stack.empty()) {
        Frame &frame = stack.back();
        const Procedure &proc = program.proc(frame.proc);
        const BasicBlock &block = proc.block(frame.block);

        if (!frame.entered) {
            if (result.instrs >= options.instrBudget)
                break;
            sink.onBlock(frame.proc, frame.block);
            result.instrs += block.numInstrs;
            ++result.blocks;
            frame.entered = true;
            frame.callIndex = 0;
        }

        // Fire any remaining call sites, in offset order.
        if (frame.callIndex < block.calls.size()) {
            const CallSite &site = block.calls[frame.callIndex];
            ++frame.callIndex;
            if (stack.size() < kMaxCallDepth) {
                sink.onCall(frame.proc, frame.block, site);
                ++result.calls;
                const Procedure &callee = program.proc(site.callee);
                stack.push_back(
                    Frame{site.callee, callee.entry(), 0, false});
            } else {
                ++result.skippedCalls;
            }
            continue;
        }

        // Block finished: act on the terminator.
        std::int64_t chosen = -1;
        bool unwind = false;
        switch (block.term) {
          case Terminator::FallThrough:
            chosen = proc.fallThroughEdge(frame.block);
            if (chosen < 0)
                unwind = true;  // dead end: treat as procedure exit
            break;
          case Terminator::UncondBranch:
            chosen = proc.takenEdge(frame.block);
            if (chosen < 0)
                unwind = true;
            break;
          case Terminator::CondBranch: {
            const std::int64_t taken = proc.takenEdge(frame.block);
            const std::int64_t fall = proc.fallThroughEdge(frame.block);
            auto &outcomes = last_outcome[frame.proc];
            if (outcomes.empty())
                outcomes.assign(proc.numBlocks(), 2);
            bool take;
            if (block.correlatedWith != kNoBlock &&
                outcomes[block.correlatedWith] != 2) {
                take = (outcomes[block.correlatedWith] != 0) !=
                       block.correlatedInvert;
            } else if (block.patternLength > 0) {
                auto &positions = pattern_pos[frame.proc];
                if (positions.empty())
                    positions.assign(proc.numBlocks(), 0);
                std::uint8_t &pos = positions[frame.block];
                take = (block.patternMask >> pos) & 1u;
                pos = static_cast<std::uint8_t>((pos + 1) %
                                                block.patternLength);
            } else {
                const double bias_taken = proc.edge(taken).bias;
                const double bias_fall = proc.edge(fall).bias;
                const double total = bias_taken + bias_fall;
                const double p_taken =
                    total > 0.0 ? bias_taken / total : 0.5;
                take = rng.nextBool(p_taken);
            }
            outcomes[frame.block] = take ? 1 : 0;
            chosen = take ? taken : fall;
            break;
          }
          case Terminator::IndirectJump: {
            weights.clear();
            weights.reserve(block.outEdges.size());
            bool any = false;
            for (auto index : block.outEdges) {
                const double bias = proc.edge(index).bias;
                weights.push_back(bias);
                any = any || bias > 0.0;
            }
            if (weights.empty()) {
                unwind = true;
                break;
            }
            if (!any)
                std::fill(weights.begin(), weights.end(), 1.0);
            const std::size_t pick =
                rng.nextWeighted(weights.data(), weights.size());
            chosen = block.outEdges[pick];
            break;
          }
          case Terminator::Return:
            unwind = true;
            break;
        }

        if (unwind) {
            stack.pop_back();
            if (stack.empty()) {
                ++result.runs;
                sink.onExit();
                if (options.restartOnExit &&
                    result.instrs < options.instrBudget) {
                    stack.push_back(
                        Frame{main, program.proc(main).entry(), 0, false});
                }
                continue;
            }
            Frame &caller = stack.back();
            const Procedure &caller_proc = program.proc(caller.proc);
            const BasicBlock &caller_block = caller_proc.block(caller.block);
            // The call we are returning to is the one just consumed.
            const CallSite &site = caller_block.calls[caller.callIndex - 1];
            sink.onReturn(caller.proc, caller.block, site);
            ++result.events;
            continue;
        }

        sink.onEdge(frame.proc, static_cast<std::uint32_t>(chosen));
        ++result.events;
        frame.block = proc.edge(static_cast<std::uint32_t>(chosen)).dst;
        frame.entered = false;
    }

    // Returns and edges were counted as they fired; each block, call and
    // run emitted exactly one onBlock, onCall or onExit.
    result.events += result.blocks + result.calls + result.runs;
    return result;
}

}  // namespace balign
