#include "core/unroll.h"

#include <algorithm>

#include "support/log.h"

namespace balign {

namespace {

/// Probability of staying in the loop, from the best available source.
double
continueProbability(const Procedure &proc, const BasicBlock &block)
{
    if (block.patternLength > 0) {
        const unsigned ones = static_cast<unsigned>(
            __builtin_popcount(block.patternMask &
                               ((block.patternLength >= 32
                                     ? ~0u
                                     : (1u << block.patternLength) - 1u))));
        return static_cast<double>(ones) /
               static_cast<double>(block.patternLength);
    }
    const Edge &taken =
        proc.edge(static_cast<std::uint32_t>(proc.takenEdge(block.id)));
    const Edge &fall = proc.edge(
        static_cast<std::uint32_t>(proc.fallThroughEdge(block.id)));
    if (taken.weight + fall.weight > 0) {
        return static_cast<double>(taken.weight) /
               static_cast<double>(taken.weight + fall.weight);
    }
    const double total = taken.bias + fall.bias;
    return total > 0.0 ? taken.bias / total : 0.5;
}

}  // namespace

unsigned
unrollSelfLoops(Procedure &proc, const UnrollOptions &options)
{
    if (options.factor < 2)
        return 0;

    // Collect eligible self loops, in id order (the lookup below
    // binary-searches them by id).
    struct Target
    {
        BlockId id;
        double continueProb;
    };
    std::vector<Target> targets;
    for (const auto &block : proc.blocks()) {
        if (block.term != Terminator::CondBranch)
            continue;
        const std::int64_t taken_index = proc.takenEdge(block.id);
        if (taken_index < 0 ||
            proc.edge(static_cast<std::uint32_t>(taken_index)).dst !=
                block.id)
            continue;  // not a self loop
        if (proc.fallThroughEdge(block.id) < 0)
            continue;  // no exit: cannot restructure
        if (block.numInstrs > options.maxBlockInstrs)
            continue;
        if (proc.edge(static_cast<std::uint32_t>(taken_index)).weight <
            options.minWeight)
            continue;
        targets.push_back(Target{block.id, continueProbability(proc, block)});
    }
    if (targets.empty())
        return 0;

    const unsigned extra = options.factor - 1;
    auto is_target = [&](BlockId id) {
        return std::binary_search(
            targets.begin(), targets.end(), Target{id, 0},
            [](const Target &a, const Target &b) { return a.id < b.id; });
    };
    // Old -> new id mapping (each target expands in place).
    std::vector<BlockId> new_id(proc.numBlocks());
    BlockId next = 0;
    for (BlockId old = 0; old < proc.numBlocks(); ++old) {
        new_id[old] = next;
        next += is_target(old) ? options.factor : 1;
    }

    // Rebuild the procedure.
    Procedure rebuilt(proc.id(), proc.name());
    rebuilt.setEntry(new_id[proc.entry()]);
    for (BlockId old = 0; old < proc.numBlocks(); ++old) {
        const BasicBlock &block = proc.block(old);
        const unsigned copies = is_target(old) ? options.factor : 1;
        for (unsigned c = 0; c < copies; ++c) {
            const BlockId id =
                rebuilt.addBlock(block.numInstrs, block.term);
            BasicBlock &fresh = rebuilt.block(id);
            fresh.calls = block.calls;
            if (copies == 1) {
                fresh.patternLength = block.patternLength;
                fresh.patternMask = block.patternMask;
                if (block.correlatedWith != kNoBlock &&
                    !is_target(block.correlatedWith)) {
                    fresh.correlatedWith = new_id[block.correlatedWith];
                    fresh.correlatedInvert = block.correlatedInvert;
                }
            }
            // Unrolled copies: patterns/correlation replaced by the bias
            // (the copies partition the original iteration stream).
        }
    }

    // Recreate edges. Out-edges of targets are replaced by the chain.
    for (const auto &edge : proc.edges()) {
        if (is_target(edge.src))
            continue;
        rebuilt.addEdge(new_id[edge.src], new_id[edge.dst], edge.kind, 0,
                        edge.bias);
    }
    for (const auto &target : targets) {
        const auto fall_index =
            static_cast<std::uint32_t>(proc.fallThroughEdge(target.id));
        const BlockId exit_new = new_id[proc.edge(fall_index).dst];
        const BlockId first = new_id[target.id];
        const double p = target.continueProb;
        for (unsigned c = 0; c + 1 < options.factor; ++c) {
            // Continue by falling into the next copy; exit jumps forward.
            rebuilt.addEdge(first + c, first + c + 1,
                            EdgeKind::FallThrough, 0, p);
            rebuilt.addEdge(first + c, exit_new, EdgeKind::Taken, 0,
                            1.0 - p);
        }
        // Final copy: backward taken to the head, exit falls through.
        rebuilt.addEdge(first + extra, first, EdgeKind::Taken, 0, p);
        rebuilt.addEdge(first + extra, exit_new, EdgeKind::FallThrough, 0,
                        1.0 - p);
    }

    const auto count = static_cast<unsigned>(targets.size());
    proc = std::move(rebuilt);
    return count;
}

unsigned
unrollSelfLoops(Program &program, const UnrollOptions &options)
{
    unsigned total = 0;
    for (auto &proc : program.procs())
        total += unrollSelfLoops(proc, options);
    program.clearWeights();
    return total;
}

}  // namespace balign
