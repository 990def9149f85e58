/**
 * @file
 * obj.* rules: advisory findings over a decoded object.
 *
 * These run on the output of the independent disassembler, so they see
 * exactly what a consumer of the emitted bytes sees — the binary-level
 * mirrors of cfg.unreachable-block (obj.unreachable, over the DECODED
 * graph rather than the source CFG) and layout.reach (obj.long-form,
 * over the branch forms that actually survived relaxation rather than
 * the displacements that predicted them). They are advisory by design:
 * any source/binary DISAGREEMENT is a checkobj obligation failure, not a
 * lint finding.
 */

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "disasm/disasm.h"
#include "lint/emit.h"
#include "lint/rules.h"

namespace balign {

namespace {

using lint_detail::emit;

/// Forward reachability from the entry block over decoded successor
/// edges (addresses), depth-first. Blocks are in address order, so a
/// successor's block is found by binary search.
std::vector<bool>
reachableBlocks(const LiftedCfg &cfg)
{
    const auto blockAt = [&](std::uint64_t addr) {
        const auto it = std::lower_bound(
            cfg.blocks.begin(), cfg.blocks.end(), addr,
            [](const LiftedBlock &block, std::uint64_t a) {
                return block.addr < a;
            });
        return it != cfg.blocks.end() && it->addr == addr
                   ? static_cast<std::size_t>(it - cfg.blocks.begin())
                   : cfg.blocks.size();
    };

    std::vector<bool> reached(cfg.blocks.size(), false);
    std::vector<std::size_t> stack;
    if (!cfg.blocks.empty()) {
        reached[0] = true;  // blocks are address-ordered; entry is first
        stack.push_back(0);
    }
    while (!stack.empty()) {
        const std::size_t b = stack.back();
        stack.pop_back();
        for (const std::uint64_t succ : cfg.blocks[b].succs) {
            const std::size_t next = blockAt(succ);
            if (next == cfg.blocks.size() || reached[next])
                continue;
            reached[next] = true;
            stack.push_back(next);
        }
    }
    return reached;
}

}  // namespace

void
lintObject(const Program &program, const Disassembly &disasm,
           const std::string &encoding, std::vector<Diagnostic> &sink)
{
    const std::size_t first = sink.size();
    ByteBitmap leaders;
    LiftedCfg cfg;
    for (std::size_t p = 0; p < disasm.procs.size(); ++p) {
        const DecodedProc &proc = disasm.procs[p];
        if (!proc.ok)
            continue;
        const ProcId pid = p < program.numProcs()
                               ? static_cast<ProcId>(p)
                               : kNoProc;

        liftCfg(proc, leaders, cfg);
        const std::vector<bool> reached = reachableBlocks(cfg);
        for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
            if (reached[b])
                continue;
            std::ostringstream msg;
            msg << "decoded block at byte " << cfg.blocks[b].addr << " ("
                << cfg.blocks[b].numInstrs << " instructions) in " << '"'
                << proc.name
                << "\" is unreachable from the procedure entry";
            emit(sink, "obj.unreachable", {pid, kNoBlock, kNoEdge},
                 msg.str(),
                 "dead bytes cost icache space; drop the block from the "
                 "layout or rewire an edge to it");
        }

        for (const DecodedInstr &instr : proc.instrs) {
            if (instr.form != BranchForm::Near)
                continue;
            std::ostringstream msg;
            msg << instrClassName(instr.cls) << " at byte " << instr.addr
                << " in \"" << proc.name << "\" kept its near form"
                << " (displacement " << instr.disp << ')';
            emit(sink, "obj.long-form", {pid, kNoBlock, kNoEdge},
                 msg.str(),
                 "a layout that places the target within rel8 range "
                 "saves bytes here");
        }
    }
    for (std::size_t i = first; i < sink.size(); ++i)
        sink[i].aligner = encoding;
}

}  // namespace balign
