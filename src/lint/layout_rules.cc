/**
 * @file
 * layout.* rules: legality of one concrete ProgramLayout against its CFG.
 *
 * Everything is re-derived from the CFG and the layout's per-block
 * decisions; the materializer's arithmetic is not trusted (the same
 * stance the dynamic oracle takes, but without replaying any trace).
 * Checks are layered so one corruption yields one finding: a broken
 * permutation skips the address walk for that procedure, and size
 * arithmetic is checked against the layout's OWN transformation flags
 * while the flags themselves are checked against the CFG separately.
 */

#include <algorithm>
#include <limits>
#include <sstream>
#include <vector>

#include "analysis/analysis.h"
#include "emit/relax.h"
#include "layout/materialize.h"
#include "lint/emit.h"
#include "lint/rules.h"

namespace balign {

namespace {

using lint_detail::emit;

/// Sets arch/aligner context on every diagnostic appended by @p fn.
template <typename Fn>
void
withContext(std::vector<Diagnostic> &sink, const std::string &arch,
            const std::string &aligner, Fn &&fn)
{
    const std::size_t first = sink.size();
    fn();
    for (std::size_t i = first; i < sink.size(); ++i) {
        sink[i].arch = arch;
        sink[i].aligner = aligner;
    }
}

/// Checks order/permutation integrity. Returns false when the order is too
/// broken for a meaningful address walk.
bool
lintPermutation(const Procedure &proc, const ProcLayout &layout,
                std::vector<Diagnostic> &sink)
{
    const ProcId pid = proc.id();
    bool walkable = true;

    if (layout.blocks.size() != proc.numBlocks()) {
        std::ostringstream msg;
        msg << "layout has " << layout.blocks.size()
            << " block records for a " << proc.numBlocks()
            << "-block procedure";
        emit(sink, "layout.permutation", {pid, kNoBlock, kNoEdge},
             msg.str(), "one BlockLayout per CFG block, indexed by id");
        return false;
    }
    if (layout.order.size() != proc.numBlocks()) {
        std::ostringstream msg;
        msg << "layout order lists " << layout.order.size() << " of "
            << proc.numBlocks() << " blocks";
        emit(sink, "layout.permutation", {pid, kNoBlock, kNoEdge},
             msg.str(),
             "the order must mention every block exactly once");
        walkable = false;
    }

    std::vector<unsigned> seen(proc.numBlocks(), 0);
    for (const BlockId id : layout.order) {
        if (id >= proc.numBlocks()) {
            std::ostringstream msg;
            msg << "layout order names block " << id
                << ", outside the " << proc.numBlocks()
                << "-block procedure";
            emit(sink, "layout.permutation", {pid, kNoBlock, kNoEdge},
                 msg.str(), "orders may only permute existing blocks");
            return false;
        }
        ++seen[id];
    }
    for (BlockId id = 0; id < proc.numBlocks(); ++id) {
        if (seen[id] == 1)
            continue;
        std::ostringstream msg;
        msg << "block appears " << seen[id] << " times in the layout order";
        emit(sink, "layout.permutation", {pid, id, kNoEdge}, msg.str(),
             "the order must be a permutation: every block exactly once");
        walkable = false;
    }
    if (!walkable)
        return false;

    for (std::uint32_t i = 0; i < layout.order.size(); ++i) {
        const BlockId id = layout.order[i];
        if (layout.blocks[id].orderIndex != i) {
            std::ostringstream msg;
            msg << "orderIndex " << layout.blocks[id].orderIndex
                << " disagrees with the block's position " << i
                << " in the order";
            emit(sink, "layout.permutation", {pid, id, kNoEdge}, msg.str(),
                 "orderIndex caches the position and must match it");
        }
    }

    if (!layout.order.empty() && layout.order.front() != proc.entry()) {
        std::ostringstream msg;
        msg << "layout starts with block " << layout.order.front()
            << " but the procedure entry is block " << proc.entry();
        emit(sink, "layout.entry-first", {pid, layout.order.front(),
             kNoEdge}, msg.str(),
             "the entry block must stay first: callers jump to the "
             "procedure's first address");
    }
    return true;
}

/// Checks the transformation flags and conditional realization against the
/// CFG and layout adjacency.
void
lintTransformFlags(const Procedure &proc, const ProcLayout &layout,
                   std::vector<Diagnostic> &sink)
{
    const ProcId pid = proc.id();
    for (std::uint32_t i = 0; i < layout.order.size(); ++i) {
        const BlockId id = layout.order[i];
        const BasicBlock &block = proc.block(id);
        const BlockLayout &bl = layout.blocks[id];
        const BlockId next =
            i + 1 < layout.order.size() ? layout.order[i + 1] : kNoBlock;

        switch (block.term) {
          case Terminator::CondBranch: {
            const std::int64_t taken_index = proc.takenEdge(id);
            const std::int64_t fall_index = proc.fallThroughEdge(id);
            if (taken_index < 0 || fall_index < 0)
                break;  // malformed CFG: cfg.terminator-arity reports it
            const BlockId taken_dst =
                proc.edge(static_cast<std::uint32_t>(taken_index)).dst;
            const BlockId fall_dst =
                proc.edge(static_cast<std::uint32_t>(fall_index)).dst;

            const bool needs_jump =
                bl.cond == CondRealization::NeitherJumpToFall ||
                bl.cond == CondRealization::NeitherJumpToTaken;
            if (bl.cond == CondRealization::FallAdjacent &&
                fall_dst != next) {
                std::ostringstream msg;
                msg << "realized FallAdjacent but the fall-through "
                       "successor " << fall_dst
                    << " is not the next block in layout";
                emit(sink, "layout.branch-polarity", {pid, id, kNoEdge},
                     msg.str(),
                     "branch polarity must agree with layout order: the "
                     "not-taken path has to reach the adjacent block");
            }
            if (bl.cond == CondRealization::TakenAdjacent &&
                taken_dst != next) {
                std::ostringstream msg;
                msg << "realized TakenAdjacent but the taken successor "
                    << taken_dst << " is not the next block in layout";
                emit(sink, "layout.branch-polarity", {pid, id, kNoEdge},
                     msg.str(),
                     "inverting the sense is only legal when the CFG "
                     "taken successor is layout-adjacent");
            }
            if (bl.jumpInserted != needs_jump) {
                std::ostringstream msg;
                msg << condRealizationName(bl.cond)
                    << (needs_jump
                            ? " requires an inserted trailing jump"
                            : " must not insert a trailing jump")
                    << " but jumpInserted is "
                    << (bl.jumpInserted ? "true" : "false");
                emit(sink, "layout.branch-polarity", {pid, id, kNoEdge},
                     msg.str(),
                     "both Neither realizations reach the non-branch "
                     "successor through an inserted jump; the adjacent "
                     "realizations never do");
            }
            if (bl.jumpRemoved) {
                emit(sink, "layout.branch-polarity", {pid, id, kNoEdge},
                     "conditional block marked jumpRemoved",
                     "only unconditional branches to adjacent targets "
                     "can be deleted");
            }
            break;
          }
          case Terminator::UncondBranch: {
            const std::int64_t taken_index = proc.takenEdge(id);
            if (taken_index < 0)
                break;
            const BlockId taken_dst =
                proc.edge(static_cast<std::uint32_t>(taken_index)).dst;
            const bool adjacent = taken_dst == next;
            if (bl.jumpRemoved != adjacent) {
                std::ostringstream msg;
                msg << "unconditional branch to block " << taken_dst
                    << (adjacent
                            ? " is layout-adjacent but was not removed"
                            : " is not layout-adjacent yet was removed");
                emit(sink, "layout.jump-needed", {pid, id, kNoEdge},
                     msg.str(),
                     "delete the jump exactly when its target follows "
                     "immediately in layout");
            }
            if (bl.jumpInserted) {
                emit(sink, "layout.jump-needed", {pid, id, kNoEdge},
                     "unconditional block marked jumpInserted",
                     "unconditional blocks already end in a jump; "
                     "nothing can be inserted");
            }
            break;
          }
          case Terminator::FallThrough: {
            const std::int64_t fall_index = proc.fallThroughEdge(id);
            const BlockId fall_dst =
                fall_index < 0
                    ? kNoBlock
                    : proc.edge(static_cast<std::uint32_t>(fall_index)).dst;
            const bool needs_jump =
                fall_index >= 0 && fall_dst != next;
            if (bl.jumpInserted != needs_jump) {
                std::ostringstream msg;
                if (needs_jump) {
                    msg << "fall-through successor " << fall_dst
                        << " is not layout-adjacent but no jump was "
                           "inserted";
                } else {
                    msg << "inserted jump is unnecessary: the block "
                        << (fall_index < 0 ? "has no successor"
                                           : "falls into the next block");
                }
                emit(sink, "layout.jump-needed", {pid, id, kNoEdge},
                     msg.str(),
                     "insert a jump exactly when a needed fall-through "
                     "path is not layout-adjacent");
            }
            if (bl.jumpRemoved) {
                emit(sink, "layout.jump-needed", {pid, id, kNoEdge},
                     "fall-through block marked jumpRemoved",
                     "there is no branch instruction to delete");
            }
            break;
          }
          case Terminator::IndirectJump:
          case Terminator::Return:
            if (bl.jumpInserted || bl.jumpRemoved) {
                std::ostringstream msg;
                msg << terminatorName(block.term)
                    << " block marked jumpInserted/jumpRemoved";
                emit(sink, "layout.jump-needed", {pid, id, kNoEdge},
                     msg.str(),
                     "indirect jumps and returns are never transformed");
            }
            break;
        }
    }
}

/// Walks the order re-deriving addresses and sizes from the CFG plus the
/// layout's own transformation flags.
void
lintAddresses(const Procedure &proc, const ProcLayout &layout,
              std::vector<Diagnostic> &sink)
{
    const ProcId pid = proc.id();
    Addr addr = layout.base;
    for (const BlockId id : layout.order) {
        const BasicBlock &block = proc.block(id);
        const BlockLayout &bl = layout.blocks[id];

        const std::uint32_t expect_base =
            block.numInstrs - (bl.jumpRemoved ? 1 : 0);
        const std::uint32_t expect_final =
            expect_base + (bl.jumpInserted ? 1 : 0);
        if (bl.baseInstrs != expect_base || bl.finalInstrs != expect_final) {
            std::ostringstream msg;
            msg << "block sizes disagree with its flags: base="
                << bl.baseInstrs << "/final=" << bl.finalInstrs
                << ", expected base=" << expect_base
                << "/final=" << expect_final << " from " << block.numInstrs
                << " CFG instructions";
            emit(sink, "layout.sizes", {pid, id, kNoEdge}, msg.str(),
                 "final size = CFG size - removed jump + inserted jump");
        }

        if (bl.addr != addr) {
            std::ostringstream msg;
            msg << "block starts at address " << bl.addr
                << " but the gap-free walk of the order expects " << addr;
            emit(sink, "layout.addresses", {pid, id, kNoEdge}, msg.str(),
                 "addresses must be strictly monotone and gap-free in "
                 "layout order");
        }

        const Addr expect_branch =
            block.hasBranchInstr() && !bl.jumpRemoved
                ? bl.addr + block.numInstrs - 1
                : kNoAddr;
        if (bl.branchAddr != expect_branch) {
            std::ostringstream msg;
            msg << "branchAddr " << bl.branchAddr << " should be ";
            if (expect_branch == kNoAddr)
                msg << "unset (no surviving branch instruction)";
            else
                msg << expect_branch << " (last instruction of the block)";
            emit(sink, "layout.sizes", {pid, id, kNoEdge}, msg.str(),
                 "the terminator occupies the block's final CFG slot");
        }
        const Addr expect_jump =
            bl.jumpInserted ? bl.addr + block.numInstrs : kNoAddr;
        if (bl.jumpAddr != expect_jump) {
            std::ostringstream msg;
            msg << "jumpAddr " << bl.jumpAddr << " should be ";
            if (expect_jump == kNoAddr)
                msg << "unset (no inserted jump)";
            else
                msg << expect_jump << " (first slot after the block)";
            emit(sink, "layout.sizes", {pid, id, kNoEdge}, msg.str(),
                 "an inserted jump trails the block it was added to");
        }

        // Advance by the re-derived size so one bad finalInstrs yields one
        // finding instead of cascading down the procedure.
        addr += expect_final;
    }
    if (layout.totalInstrs != addr - layout.base) {
        std::ostringstream msg;
        msg << "procedure totalInstrs " << layout.totalInstrs
            << " disagrees with the sum of block sizes "
            << (addr - layout.base);
        emit(sink, "layout.addresses", {pid, kNoBlock, kNoEdge}, msg.str(),
             "the procedure footprint is the gap-free sum of its blocks");
    }
}

/// layout.loop-split only considers natural loops whose total back-edge
/// weight reaches this threshold: splitting a loop the program barely
/// iterates costs nothing worth reporting.
constexpr Weight kHotLoopWeight = 1024;

/**
 * layout.loop-split (Note): a hot natural loop whose hot blocks are not
 * one contiguous run of layout slots. Each split costs an extra taken
 * branch or inserted jump per iteration and an i-cache line per entry,
 * which the paper's alignment is precisely meant to avoid — but a split
 * can still be the globally cheaper choice (e.g. sinking a cold side
 * of the body), so this only annotates, never fails.
 */
void
lintLoopSplit(const Procedure &proc, const ProcLayout &layout,
              std::vector<Diagnostic> &sink)
{
    const ProcAnalysis analysis = ProcAnalysis::of(proc);
    for (const NaturalLoop &loop : analysis.loops.loops) {
        // Heat = how often the loop actually iterates (back-edge weight).
        Weight back_weight = 0;
        for (const BlockId latch : loop.latches) {
            for (const std::uint32_t index : proc.block(latch).outEdges) {
                if (index < proc.numEdges() &&
                    proc.edge(index).dst == loop.header)
                    back_weight += proc.edge(index).weight;
            }
        }
        if (back_weight < kHotLoopWeight)
            continue;

        // Hot blocks: executed at least 1/8th as often as the loop
        // iterates. Cold exits and error paths inside the body may be
        // laid out far away without penalty.
        std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
        std::uint32_t hi = 0;
        std::size_t hot = 0;
        for (const BlockId id : loop.blocks) {
            Weight in = 0;
            for (const std::uint32_t index : proc.block(id).inEdges) {
                if (index < proc.numEdges())
                    in += proc.edge(index).weight;
            }
            if (in < back_weight / 8 && id != loop.header)
                continue;
            const std::uint32_t slot = layout.blocks[id].orderIndex;
            lo = std::min(lo, slot);
            hi = std::max(hi, slot);
            ++hot;
        }
        if (hot > 0 && hi - lo + 1 > hot) {
            std::ostringstream msg;
            msg << "loop at header " << loop.header << " (depth "
                << loop.depth << ", back-edge weight " << back_weight
                << ") is split: " << hot << " hot block(s) spread over "
                << hi - lo + 1 << " layout slots";
            emit(sink, "layout.loop-split",
                 {proc.id(), loop.header, kNoEdge}, msg.str(),
                 "each split adds a taken branch or jump per iteration; "
                 "check whether the displaced blocks earn their keep");
        }
    }
}

/**
 * layout.reach (Note): a conditional branch whose displacement, at the
 * relaxation fixpoint of the variable encoding model (the one with a
 * short form to escape), escapes the short form and pays for the near
 * encoding. Like loop-split this only annotates — a far target can be
 * the globally cheaper layout — but it names the distance so the miss
 * is actionable.
 */
void
lintReach(const Procedure &proc, const ProcLayout &layout,
          std::vector<Diagnostic> &sink)
{
    const EncodingModel &model = encodingModel(EncodingModelKind::Variable);

    // Relaxation assumes coherent per-block slot accounting; when it is
    // broken, layout.sizes already reported and there is nothing
    // meaningful to relax.
    for (const BlockId id : layout.order) {
        const BlockLayout &bl = layout.blocks[id];
        if (bl.finalInstrs != bl.baseInstrs + (bl.jumpInserted ? 1 : 0))
            return;
    }

    const long long short_min = -128, short_max = 127;
    const ProcRelaxation relaxed = relaxProc(proc, layout, model);
    for (const RelaxedInstr &instr : relaxed.instrs) {
        if (instr.cls != InstrClass::CondBranch ||
            instr.form != BranchForm::Near)
            continue;
        std::ostringstream msg;
        msg << "conditional branch at word " << instr.wordAddr
            << " needs the near form: block " << instr.targetBlock()
            << " is " << instr.disp << " bytes away under the "
            << model.name() << " model";
        std::ostringstream hint;
        hint << "the short form spans [" << short_min << ", " << short_max
             << "] bytes but this target is " << instr.disp
             << " away; placing the blocks closer (or sinking the code "
                "between them) recovers "
             << model.instrBytes(InstrClass::CondBranch, BranchForm::Near) -
                    model.instrBytes(InstrClass::CondBranch,
                                     BranchForm::Short)
             << " bytes";
        emit(sink, "layout.reach", {proc.id(), instr.block, kNoEdge},
             msg.str(), hint.str());
    }
}

}  // namespace

void
lintLayout(const Program &program, const ProgramLayout &layout,
           const std::string &arch, const std::string &aligner,
           std::vector<Diagnostic> &sink)
{
    withContext(sink, arch, aligner, [&] {
        if (layout.procs.size() != program.numProcs()) {
            std::ostringstream msg;
            msg << "layout has " << layout.procs.size()
                << " procedure records for a " << program.numProcs()
                << "-procedure program";
            emit(sink, "layout.permutation", {}, msg.str(),
                 "one ProcLayout per procedure, in id order");
            return;
        }
        Addr base = 0;
        for (ProcId p = 0; p < program.numProcs(); ++p) {
            const Procedure &proc = program.proc(p);
            const ProcLayout &pl = layout.procs[p];
            if (pl.base != base) {
                std::ostringstream msg;
                msg << "procedure base " << pl.base
                    << " leaves a gap or overlap; contiguous placement "
                       "expects " << base;
                emit(sink, "layout.addresses", {p, kNoBlock, kNoEdge},
                     msg.str(),
                     "procedures are placed contiguously in id order");
            }
            if (lintPermutation(proc, pl, sink)) {
                lintTransformFlags(proc, pl, sink);
                lintAddresses(proc, pl, sink);
                lintLoopSplit(proc, pl, sink);
                lintReach(proc, pl, sink);
            }
            base = pl.base + pl.totalInstrs;
        }
        if (layout.totalInstrs != base) {
            std::ostringstream msg;
            msg << "program totalInstrs " << layout.totalInstrs
                << " disagrees with the last procedure's end " << base;
            emit(sink, "layout.addresses", {}, msg.str(),
                 "the program footprint ends where its last procedure "
                 "does");
        }
    });
}

}  // namespace balign
