#include "workload/shapes.h"

#include <algorithm>
#include <vector>

#include "cfg/builder.h"
#include "cfg/validate.h"
#include "support/log.h"
#include "support/rng.h"

namespace balign {

namespace {

/// Blocks are added as they are emitted; edges wait until every block
/// exists, since loop exits and ladder rungs point forward.
class ShapeEmitter
{
  public:
    ShapeEmitter(std::size_t blocks, std::uint64_t seed)
        : target_(std::max<std::size_t>(blocks, 8)), rng_(seed)
    {
    }

    Program
    build(LargeShape shape)
    {
        switch (shape) {
          case LargeShape::Ladder: ladder(); break;
          case LargeShape::SwitchHub: switchHub(); break;
          case LargeShape::LoopNest: loopNest(); break;
        }
        Program program(largeShapeName(shape));
        const ProcId id = program.addProc(largeShapeName(shape));
        Procedure &proc = program.proc(id);
        CfgBuilder builder(proc);
        for (const Block &block : blocks_)
            builder.block(block.instrs, block.term);
        for (const PendingEdge &edge : edges_) {
            if (edge.kind == EdgeKind::Taken)
                builder.taken(edge.src, edge.dst, edge.weight);
            else if (edge.kind == EdgeKind::FallThrough)
                builder.fallThrough(edge.src, edge.dst, edge.weight);
            else
                builder.other(edge.src, edge.dst, edge.weight);
        }
        program.setMainProc(id);
        if (!validate(program).empty())
            panic("largeShapeProgram: %s does not validate",
                  largeShapeName(shape));
        return program;
    }

  private:
    struct Block
    {
        std::uint32_t instrs;
        Terminator term;
    };

    struct PendingEdge
    {
        BlockId src;
        BlockId dst;
        EdgeKind kind;
        Weight weight;
    };

    BlockId
    block(Terminator term)
    {
        const auto instrs = static_cast<std::uint32_t>(
            2 + rng_.nextBounded(7));
        blocks_.push_back({instrs, term});
        return static_cast<BlockId>(blocks_.size() - 1);
    }

    void
    edge(BlockId src, BlockId dst, EdgeKind kind, Weight weight)
    {
        edges_.push_back({src, dst, kind, weight});
    }

    /// A weight near @p base: one of base, base+1, ..., base+spread-1.
    Weight
    near(Weight base, std::uint64_t spread)
    {
        return base + rng_.nextBounded(spread);
    }

    void
    ladder()
    {
        const std::size_t n = target_;
        for (std::size_t i = 0; i < n; ++i) {
            block(i + 1 == n       ? Terminator::Return
                  : i + 2 == n     ? Terminator::FallThrough
                                   : Terminator::CondBranch);
        }
        for (std::size_t i = 0; i + 2 < n; ++i) {
            const auto src = static_cast<BlockId>(i);
            edge(src, src + 1, EdgeKind::FallThrough, near(60, 5));
            std::size_t dst;
            if (i >= 2 && rng_.nextBounded(8) == 0) {
                const std::size_t span = std::min<std::size_t>(i, 32);
                dst = i - 1 - rng_.nextBounded(span);
            } else {
                dst = std::min(n - 1, i + 2 + rng_.nextBounded(15));
            }
            edge(src, static_cast<BlockId>(dst), EdgeKind::Taken,
                 near(60, 5));
        }
        edge(static_cast<BlockId>(n - 2), static_cast<BlockId>(n - 1),
             EdgeKind::FallThrough, near(60, 5));
    }

    void
    switchHub()
    {
        const std::size_t cases = std::max<std::size_t>(1, (target_ - 4) / 3);
        const BlockId entry = block(Terminator::FallThrough);
        const BlockId hub = block(Terminator::IndirectJump);
        const auto latch = static_cast<BlockId>(2 + 3 * cases);
        Weight loop_weight = 0;
        for (std::size_t k = 0; k < cases; ++k) {
            const BlockId head = block(Terminator::CondBranch);
            const BlockId left = block(Terminator::UncondBranch);
            const BlockId right = block(Terminator::UncondBranch);
            const Weight weight = near(40, 6);
            const Weight fall = weight / 2 + rng_.nextBounded(2);
            edge(hub, head, EdgeKind::Other, weight);
            edge(head, left, EdgeKind::FallThrough, fall);
            edge(head, right, EdgeKind::Taken, weight - fall);
            edge(left, latch, EdgeKind::Taken, fall);
            edge(right, latch, EdgeKind::Taken, weight - fall);
            loop_weight += weight;
        }
        block(Terminator::CondBranch);
        const BlockId exit = block(Terminator::Return);
        edge(entry, hub, EdgeKind::FallThrough, 1);
        edge(latch, hub, EdgeKind::Taken, loop_weight - 1);
        edge(latch, exit, EdgeKind::FallThrough, 1);
    }

    /// A loop at nesting @p depth entered @p freq times, iterating a few
    /// times per entry; its exit is the block after its latch.
    void
    loop(unsigned depth, Weight freq)
    {
        const Weight trips = 2 + rng_.nextBounded(3);
        const BlockId header = block(Terminator::CondBranch);
        edge(header, header + 1, EdgeKind::FallThrough,
             near(freq * trips, 2));
        const unsigned items = 2 + static_cast<unsigned>(rng_.nextBounded(3));
        for (unsigned i = 0; i < items && blocks_.size() < target_; ++i) {
            if (depth < kMaxDepth && rng_.nextBool(0.5))
                loop(depth + 1, freq * trips);
            else
                diamond(freq * trips);
        }
        const BlockId latch = block(Terminator::CondBranch);
        edge(header, latch + 1, EdgeKind::Taken, near(freq / 4, 2));
        edge(latch, header, EdgeKind::Taken, near(freq * (trips - 1), 2));
        edge(latch, latch + 1, EdgeKind::FallThrough, near(freq, 2));
    }

    /// An if-then-else executed @p freq times with nearly even sides,
    /// joining in a block that falls through to whatever follows.
    void
    diamond(Weight freq)
    {
        const BlockId test = block(Terminator::CondBranch);
        const BlockId then_block = block(Terminator::UncondBranch);
        const BlockId else_block = block(Terminator::FallThrough);
        const BlockId join = block(Terminator::FallThrough);
        const Weight fall = freq / 2 + rng_.nextBounded(2);
        const Weight taken = freq - std::min(freq, fall);
        edge(test, then_block, EdgeKind::FallThrough, fall);
        edge(test, else_block, EdgeKind::Taken, taken);
        edge(then_block, join, EdgeKind::Taken, fall);
        edge(else_block, join, EdgeKind::FallThrough, taken);
        edge(join, join + 1, EdgeKind::FallThrough, freq);
    }

    void
    loopNest()
    {
        const BlockId entry = block(Terminator::FallThrough);
        edge(entry, entry + 1, EdgeKind::FallThrough, 1);
        while (blocks_.size() + 1 < target_)
            loop(1, near(8, 3));
        block(Terminator::Return);
    }

    static constexpr unsigned kMaxDepth = 6;

    std::size_t target_;
    Rng rng_;
    std::vector<Block> blocks_;
    std::vector<PendingEdge> edges_;
};

}  // namespace

const char *
largeShapeName(LargeShape shape)
{
    switch (shape) {
      case LargeShape::Ladder: return "ladder";
      case LargeShape::SwitchHub: return "switch-hub";
      case LargeShape::LoopNest: return "loop-nest";
    }
    return "?";
}

Program
largeShapeProgram(LargeShape shape, std::size_t blocks, std::uint64_t seed)
{
    return ShapeEmitter(blocks, seed).build(shape);
}

}  // namespace balign
