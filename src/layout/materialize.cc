#include "layout/materialize.h"

#include <algorithm>

#include "support/log.h"

namespace balign {

CondOutcome
condOutcome(CondRealization realization, EdgeKind kind)
{
    const bool via_taken_edge = kind == EdgeKind::Taken;
    switch (realization) {
      case CondRealization::FallAdjacent:
        return {via_taken_edge, false};
      case CondRealization::TakenAdjacent:
        return {!via_taken_edge, false};
      case CondRealization::NeitherJumpToFall:
        // Branch targets the taken successor; the fall successor is
        // reached by not-taken + inserted jump.
        return via_taken_edge ? CondOutcome{true, false}
                              : CondOutcome{false, true};
      case CondRealization::NeitherJumpToTaken:
        // Inverted: branch targets the fall successor; the taken successor
        // is reached by not-taken + inserted jump.
        return via_taken_edge ? CondOutcome{false, true}
                              : CondOutcome{true, false};
    }
    panic("condOutcome: bad realization");
}

EdgeKind
branchTargetKind(CondRealization realization)
{
    switch (realization) {
      case CondRealization::FallAdjacent:
      case CondRealization::NeitherJumpToFall:
        return EdgeKind::Taken;
      case CondRealization::TakenAdjacent:
      case CondRealization::NeitherJumpToTaken:
        return EdgeKind::FallThrough;
    }
    panic("branchTargetKind: bad realization");
}

const char *
instrClassName(InstrClass cls)
{
    switch (cls) {
      case InstrClass::Body: return "body";
      case InstrClass::Call: return "call";
      case InstrClass::CondBranch: return "cond-branch";
      case InstrClass::Jump: return "jump";
      case InstrClass::IndirectJump: return "indirect-jump";
      case InstrClass::Return: return "return";
    }
    return "?";
}

void
OutEdgeIndex::index(const Procedure &proc)
{
    taken_.assign(proc.numBlocks(), kNoBlock);
    fall_.assign(proc.numBlocks(), kNoBlock);
    for (const Edge &edge : proc.edges()) {
        if (edge.kind == EdgeKind::Other)
            continue;
        BlockId &dst = edge.kind == EdgeKind::Taken ? taken_[edge.src]
                                                    : fall_[edge.src];
        if (dst == kNoBlock)
            dst = edge.dst;
    }
}

void
appendProcInstrs(const Procedure &proc, const ProcLayout &layout,
                 std::vector<LayoutInstr> &instrs, OutEdgeIndex &edges)
{
    struct Sink
    {
        const Procedure &proc;
        std::vector<LayoutInstr> &instrs;

        std::size_t size() const { return instrs.size(); }

        void
        bodies(Addr wordAddr, std::uint32_t count, BlockId block)
        {
            LayoutInstr instr;
            instr.proc = proc.id();
            instr.block = block;
            for (std::uint32_t slot = 0; slot < count; ++slot) {
                instr.wordAddr = wordAddr + slot;
                instrs.push_back(instr);
            }
        }

        void
        call(std::size_t slot, ProcId callee)
        {
            instrs[slot].cls =
                callee != kNoProc ? InstrClass::Call : InstrClass::Body;
            instrs[slot].callee = callee;
        }

        void
        terminator(std::size_t slot, const TerminatorSlot &term)
        {
            instrs[slot].cls = term.cls;
            instrs[slot].targetBlock = term.target;
        }

        void
        jump(Addr wordAddr, BlockId block, BlockId target)
        {
            bodies(wordAddr, 1, block);
            instrs.back().cls = InstrClass::Jump;
            instrs.back().targetBlock = target;
        }
    } sink{proc, instrs};
    edges.index(proc);
    forEachProcSlot(proc, layout, edges, sink);
}

namespace {

/// Direction hint from layout order positions (used before addresses
/// exist: a target laid out earlier will be a backward branch).
DirHint
orderDir(std::uint32_t target_pos, std::uint32_t branch_pos)
{
    return target_pos <= branch_pos ? DirHint::Backward : DirHint::Forward;
}

}  // namespace

ProcLayout
materializeProc(const Procedure &proc, std::vector<BlockId> order, Addr base,
                const CostModel *costModel)
{
    const std::size_t n = proc.numBlocks();
    if (order.size() != n)
        panic("materializeProc(%s): order has %zu of %zu blocks",
              proc.name().c_str(), order.size(), n);
    if (!order.empty() && order.front() != proc.entry())
        panic("materializeProc(%s): order must start with the entry block",
              proc.name().c_str());

    ProcLayout layout;
    layout.base = base;
    layout.blocks.resize(n);
    layout.order = std::move(order);

    // Position of each block in the layout.
    std::vector<std::uint32_t> position(n, 0);
    for (std::uint32_t i = 0; i < layout.order.size(); ++i) {
        const BlockId id = layout.order[i];
        if (id >= n)
            panic("materializeProc: block %u out of range", id);
        position[id] = i;
        layout.blocks[id].orderIndex = i;
    }
    // Detect duplicates: positions must be a permutation.
    {
        std::vector<bool> seen(n, false);
        for (BlockId id : layout.order) {
            if (seen[id])
                panic("materializeProc: block %u appears twice", id);
            seen[id] = true;
        }
    }

    // Pass 1: decide realizations and sizes.
    for (std::uint32_t i = 0; i < layout.order.size(); ++i) {
        const BlockId id = layout.order[i];
        const BasicBlock &block = proc.block(id);
        BlockLayout &bl = layout.blocks[id];
        const BlockId next =
            i + 1 < layout.order.size() ? layout.order[i + 1] : kNoBlock;

        bl.finalInstrs = block.numInstrs;
        bl.baseInstrs = block.numInstrs;

        switch (block.term) {
          case Terminator::CondBranch: {
            const auto taken_index =
                static_cast<std::uint32_t>(proc.takenEdge(id));
            const auto fall_index =
                static_cast<std::uint32_t>(proc.fallThroughEdge(id));
            const Edge &taken = proc.edge(taken_index);
            const Edge &fall = proc.edge(fall_index);
            const DirHint dir_taken = orderDir(position[taken.dst], i);
            const DirHint dir_fall = orderDir(position[fall.dst], i);

            CondRealization pick;
            if (costModel != nullptr) {
                // Consider every legal realization and take the cheapest.
                const CostModel &model = *costModel;
                std::vector<CondRealization> candidates = {
                    CondRealization::NeitherJumpToFall,
                    CondRealization::NeitherJumpToTaken,
                };
                if (next == fall.dst)
                    candidates.push_back(CondRealization::FallAdjacent);
                if (next == taken.dst)
                    candidates.push_back(CondRealization::TakenAdjacent);
                pick = candidates.front();
                double best = model.condRealizationCost(
                    taken.weight, fall.weight, pick, dir_taken, dir_fall);
                for (std::size_t c = 1; c < candidates.size(); ++c) {
                    const double cost = model.condRealizationCost(
                        taken.weight, fall.weight, candidates[c], dir_taken,
                        dir_fall);
                    // Prefer adjacency on ties: adjacency candidates come
                    // later in the list, so use <=.
                    if (cost <= best) {
                        best = cost;
                        pick = candidates[c];
                    }
                }
            } else {
                // Classic behavior: use adjacency when available (fall
                // first), else keep the sense and jump to the fall-through
                // successor.
                if (next == fall.dst)
                    pick = CondRealization::FallAdjacent;
                else if (next == taken.dst)
                    pick = CondRealization::TakenAdjacent;
                else
                    pick = CondRealization::NeitherJumpToFall;
            }

            bl.cond = pick;
            if (pick == CondRealization::NeitherJumpToFall ||
                pick == CondRealization::NeitherJumpToTaken) {
                bl.jumpInserted = true;
                bl.finalInstrs = block.numInstrs + 1;
                ++layout.jumpsInserted;
            }
            if (pick == CondRealization::TakenAdjacent ||
                pick == CondRealization::NeitherJumpToTaken) {
                ++layout.sensesInverted;
            }
            break;
          }
          case Terminator::UncondBranch: {
            const auto taken_index =
                static_cast<std::uint32_t>(proc.takenEdge(id));
            if (proc.edge(taken_index).dst == next) {
                bl.jumpRemoved = true;
                bl.finalInstrs = block.numInstrs - 1;
                bl.baseInstrs = block.numInstrs - 1;
                ++layout.jumpsRemoved;
            }
            break;
          }
          case Terminator::FallThrough: {
            const std::int64_t fall_index = proc.fallThroughEdge(id);
            if (fall_index >= 0 && proc.edge(fall_index).dst != next) {
                bl.jumpInserted = true;
                bl.finalInstrs = block.numInstrs + 1;
                ++layout.jumpsInserted;
            }
            break;
          }
          case Terminator::IndirectJump:
          case Terminator::Return:
            break;
        }
    }

    // Pass 2: assign addresses.
    Addr addr = base;
    for (BlockId id : layout.order) {
        const BasicBlock &block = proc.block(id);
        BlockLayout &bl = layout.blocks[id];
        bl.addr = addr;
        if (block.hasBranchInstr() && !bl.jumpRemoved)
            bl.branchAddr = addr + block.numInstrs - 1;
        if (bl.jumpInserted)
            bl.jumpAddr = addr + block.numInstrs;
        addr += bl.finalInstrs;
    }
    layout.totalInstrs = addr - base;
    return layout;
}

void
rebaseProcLayout(ProcLayout &proc, Addr base)
{
    if (proc.base == base)
        return;
    const std::int64_t delta = static_cast<std::int64_t>(base) -
                               static_cast<std::int64_t>(proc.base);
    auto shift = [delta](Addr &addr) {
        if (addr != kNoAddr)
            addr = static_cast<Addr>(static_cast<std::int64_t>(addr) + delta);
    };
    for (BlockLayout &block : proc.blocks) {
        shift(block.addr);
        shift(block.branchAddr);
        shift(block.jumpAddr);
    }
    proc.base = base;
}

ProgramLayout
materializeProgram(const Program &program,
                   const std::vector<std::vector<BlockId>> &orders,
                   const CostModel *costModel)
{
    if (orders.size() != program.numProcs())
        panic("materializeProgram: %zu orders for %zu procedures",
              orders.size(), program.numProcs());
    ProgramLayout layout;
    layout.procs.reserve(program.numProcs());
    Addr base = 0;
    for (ProcId id = 0; id < program.numProcs(); ++id) {
        layout.procs.push_back(
            materializeProc(program.proc(id), orders[id], base, costModel));
        base += layout.procs.back().totalInstrs;
    }
    layout.totalInstrs = base;
    return layout;
}

ProgramLayout
originalLayout(const Program &program)
{
    std::vector<std::vector<BlockId>> orders;
    orders.reserve(program.numProcs());
    for (const auto &proc : program.procs()) {
        std::vector<BlockId> order(proc.numBlocks());
        for (BlockId b = 0; b < proc.numBlocks(); ++b)
            order[b] = b;
        orders.push_back(std::move(order));
    }
    return materializeProgram(program, orders);
}

}  // namespace balign
