#include "emit/relax.h"

#include <algorithm>
#include <sstream>

#include "support/log.h"

namespace balign {

ProcRelaxation
relaxProc(const Procedure &proc, const ProcLayout &layout,
          const EncodingModel &model, const RelaxOptions &options)
{
    ProcRelaxation result;

    const std::vector<LayoutInstr> slots = enumerateProcInstrs(proc, layout);
    result.instrs.resize(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
        RelaxedInstr &instr = result.instrs[i];
        instr.cls = slots[i].cls;
        instr.form = model.initialForm(slots[i].cls);
        instr.wordAddr = slots[i].wordAddr;
        instr.proc = slots[i].proc;
        instr.block = slots[i].block;
        instr.targetBlock = slots[i].targetBlock;
        instr.callee = slots[i].callee;
    }

    // Block slot ranges: slots are emitted in layout order, finalInstrs
    // slots per block, so ranges fall out of a running count.
    result.blocks.resize(layout.blocks.size());
    {
        std::uint32_t first = 0;
        for (const BlockId id : layout.order) {
            RelaxedBlock &block = result.blocks[id];
            block.firstInstr = first;
            block.numInstrs = layout.blocks[id].finalInstrs;
            first += block.numInstrs;
        }
        if (first != result.instrs.size())
            panic("relaxProc(%s): %u block slots vs %zu enumerated",
                  proc.name().c_str(), first, result.instrs.size());
    }

    // The relax_segment loop: recompute byte addresses, grow any branch
    // whose displacement escapes its current form, repeat. Growth is
    // monotone (Short -> Near, never back), so each sweep that changes
    // anything strictly shrinks the set of growable branches.
    const std::size_t unconverged_sentinel = result.instrs.size();
    std::size_t unconverged = unconverged_sentinel;
    for (result.iterations = 0; result.iterations < options.maxIterations;) {
        ++result.iterations;

        std::uint64_t addr = 0;
        for (RelaxedInstr &instr : result.instrs) {
            instr.byteAddr = addr;
            instr.size = static_cast<std::uint8_t>(
                model.instrBytes(instr.cls, instr.form));
            addr += instr.size;
        }
        result.byteSize = addr;
        for (const BlockId id : layout.order) {
            RelaxedBlock &block = result.blocks[id];
            block.byteAddr = block.numInstrs > 0
                                 ? result.instrs[block.firstInstr].byteAddr
                                 : (block.firstInstr < result.instrs.size()
                                        ? result.instrs[block.firstInstr]
                                              .byteAddr
                                        : addr);
            std::uint32_t bytes = 0;
            for (std::uint32_t s = 0; s < block.numInstrs; ++s)
                bytes += result.instrs[block.firstInstr + s].size;
            block.byteSize = bytes;
        }

        bool grew = false;
        unconverged = unconverged_sentinel;
        for (std::size_t i = 0; i < result.instrs.size(); ++i) {
            RelaxedInstr &instr = result.instrs[i];
            if (instr.targetBlock == kNoBlock) {
                instr.disp = 0;
                continue;
            }
            const std::uint64_t target =
                result.blocks[instr.targetBlock].byteAddr;
            instr.disp = static_cast<std::int64_t>(target) -
                         static_cast<std::int64_t>(instr.byteAddr +
                                                   instr.size);
            if (!model.displacementFits(instr.cls, instr.form, instr.disp)) {
                if (model.relaxable(instr.cls) &&
                    instr.form == BranchForm::Short) {
                    instr.form = BranchForm::Near;
                    grew = true;
                } else if (unconverged == unconverged_sentinel) {
                    // The widest form never fits: unreachable with rel32
                    // ranges, but keep relaxation total rather than
                    // trusting it.
                    unconverged = i;
                }
            }
        }
        if (!grew) {
            if (unconverged != unconverged_sentinel)
                break;
            // Clean sweep: addresses, sizes and displacements are all
            // mutually consistent. Done.
            for (const RelaxedInstr &instr : result.instrs) {
                if (!model.relaxable(instr.cls))
                    continue;
                if (instr.form == BranchForm::Short)
                    ++result.shortBranches;
                else
                    ++result.nearBranches;
            }
            return result;
        }
    }

    // Cap hit (or a displacement no form can hold): report, don't loop.
    result.converged = false;
    if (unconverged == unconverged_sentinel) {
        for (std::size_t i = 0; i < result.instrs.size(); ++i) {
            const RelaxedInstr &instr = result.instrs[i];
            if (instr.targetBlock != kNoBlock &&
                !model.displacementFits(instr.cls, instr.form, instr.disp)) {
                unconverged = i;
                break;
            }
        }
    }
    std::ostringstream out;
    out << "relaxation of " << proc.name() << " stopped after "
        << result.iterations << " sweeps";
    if (unconverged != unconverged_sentinel) {
        const RelaxedInstr &instr = result.instrs[unconverged];
        out << ": " << instrClassName(instr.cls) << " at word "
            << instr.wordAddr << " (block " << instr.block << " -> block "
            << instr.targetBlock << ") displacement " << instr.disp
            << " escapes its " << branchFormName(instr.form) << " form";
    } else {
        out << " without a clean pass";
    }
    result.diagnostic = out.str();
    for (const RelaxedInstr &instr : result.instrs) {
        if (!model.relaxable(instr.cls))
            continue;
        if (instr.form == BranchForm::Short)
            ++result.shortBranches;
        else
            ++result.nearBranches;
    }
    return result;
}

RelaxedLayout
relaxLayout(const Program &program, const ProgramLayout &layout,
            const EncodingModel &model, const RelaxOptions &options)
{
    RelaxedLayout result;
    result.model = model.kind();
    result.procs.resize(program.numProcs());
    result.instrs.reserve(layout.totalInstrs);

    std::uint64_t base = 0;
    for (const auto &proc : program.procs()) {
        ProcRelaxation relaxed =
            relaxProc(proc, layout.procs[proc.id()], model, options);

        RelaxedProc &placed = result.procs[proc.id()];
        placed.byteBase = base;
        placed.byteSize = relaxed.byteSize;
        placed.firstInstr = static_cast<std::uint32_t>(result.instrs.size());
        placed.numInstrs = static_cast<std::uint32_t>(relaxed.instrs.size());
        placed.converged = relaxed.converged;
        placed.iterations = relaxed.iterations;
        placed.shortBranches = relaxed.shortBranches;
        placed.nearBranches = relaxed.nearBranches;
        placed.blocks = std::move(relaxed.blocks);
        for (RelaxedBlock &block : placed.blocks) {
            block.byteAddr += base;
            // Rebase the slot range too: in a RelaxedLayout the blocks
            // index the program-wide instrs vector.
            block.firstInstr += placed.firstInstr;
        }
        for (RelaxedInstr &instr : relaxed.instrs) {
            instr.byteAddr += base;
            result.instrs.push_back(instr);
        }

        result.iterations = std::max(result.iterations, relaxed.iterations);
        result.shortBranches += relaxed.shortBranches;
        result.nearBranches += relaxed.nearBranches;
        if (!relaxed.converged) {
            result.converged = false;
            if (result.diagnostic.empty())
                result.diagnostic = std::move(relaxed.diagnostic);
        }
        base += relaxed.byteSize;
    }
    result.totalBytes = base;
    return result;
}

}  // namespace balign
