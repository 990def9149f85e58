#include "emit/relax.h"

#include <algorithm>
#include <array>
#include <sstream>

#include "support/log.h"

namespace balign {

namespace {

/// Slot count and word-address extent of some procedure layouts: what
/// the kMaxRelaxedBytes check bounds.
struct LayoutExtent
{
    std::uint64_t slots = 0;
    std::uint64_t wordEnd = 0;

    void
    add(const ProcLayout &proc)
    {
        for (const BlockId id : proc.order) {
            const BlockLayout &bl = proc.blocks[id];
            slots += bl.finalInstrs;
            wordEnd = std::max(wordEnd, bl.addr + bl.finalInstrs);
            if (bl.jumpInserted)
                wordEnd = std::max(wordEnd, bl.jumpAddr + 1);
        }
    }
};

/// fatal() when @p extent could take more than kMaxRelaxedBytes at the
/// model's widest encoding, or its word addresses reach past the cap.
void
checkRelaxCap(const char *who, const LayoutExtent &extent,
              const EncodingTable &table, const RelaxOptions &options)
{
    if (options.maxIterations == 0)
        fatal("%s: RelaxOptions::maxIterations must be at least 1", who);
    const std::uint64_t widest = extent.slots * table.maxBytes;
    if (extent.slots > kMaxRelaxedBytes || widest > kMaxRelaxedBytes ||
        extent.wordEnd > kMaxRelaxedBytes)
        fatal("%s: a layout of %llu instructions (word extent %llu) may "
              "take %llu bytes, past kMaxRelaxedBytes (%llu)",
              who, static_cast<unsigned long long>(extent.slots),
              static_cast<unsigned long long>(extent.wordEnd),
              static_cast<unsigned long long>(widest),
              static_cast<unsigned long long>(kMaxRelaxedBytes));
}

/// One fragment: a targeted branch and the fixed bytes laid out between
/// the previous fragment's branch (or the procedure start) and it.
struct Fragment
{
    std::uint32_t slot = 0;  ///< the branch's slot, procedure-local
    std::uint32_t lead = 0;  ///< fixed bytes before the branch
    /// The target block starts targetOffset bytes after the end of
    /// fragment targetFrag - 1's branch (the procedure start for 0).
    std::uint32_t targetFrag = 0;
    std::uint32_t targetOffset = 0;
    std::int64_t disp = 0;  ///< from the latest sweep
    InstrClass cls = InstrClass::Body;
    BranchForm form = BranchForm::None;
    std::uint8_t size = 0;  ///< size at the current form
};

/// Where a block starts: targetFrag/targetOffset of a Fragment.
struct BlockStart
{
    std::uint32_t frag = 0;
    std::uint32_t offset = 0;
};

/**
 * Relaxes procedures one at a time into caller-owned records, reusing
 * its fragment buffers across procedures.
 */
class Relaxer
{
  public:
    Relaxer(const EncodingModel &model, const RelaxOptions &options)
        : table_(model.table()), options_(options)
    {
        for (std::size_t c = 0; c < kNumInstrClasses; ++c) {
            const auto cls = static_cast<InstrClass>(c);
            initialForm_[c] = model.initialForm(cls);
            initialSize_[c] = static_cast<std::uint8_t>(
                table_.size(cls, initialForm_[c]));
        }
    }

    /**
     * Relaxes @p proc, appending its slots to @p out (capacity already
     * reserved), and fills every field of @p placed but byteBase, which
     * the caller sets: byte addresses start there, and block slot ranges
     * index @p out. Returns the diagnostic, empty when converged.
     */
    std::string
    relax(const Procedure &proc, const ProcLayout &layout,
          std::vector<RelaxedInstr> &out, RelaxedProc &placed)
    {
        placed.firstInstr = static_cast<std::uint32_t>(out.size());
        placed.blocks.assign(
            layout.blocks.size(),
            RelaxedBlock{placed.byteBase, 0, placed.firstInstr, 0});
        edges_.index(proc);
        frags_.clear();
        starts_.assign(layout.blocks.size(), BlockStart{});
        fixedShort_ = 0;
        FragmentBuilder builder{*this, proc, layout, out, placed.blocks,
                                placed.firstInstr};
        forEachProcSlot(proc, layout, edges_, builder);
        builder.checkSlots();
        placed.numInstrs = builder.declared;
        resolveTargets();

        const std::size_t none = frags_.size();
        std::size_t unconverged = none;
        placed.converged = false;
        placed.iterations = 0;
        while (placed.iterations < options_.maxIterations) {
            ++placed.iterations;
            unconverged = none;
            if (!sweep(unconverged)) {
                placed.converged = unconverged == none;
                break;
            }
        }

        RelaxedInstr *records = out.data() + placed.firstInstr;
        placed.byteSize = place(layout, placed.byteBase, records,
                                placed.blocks);
        placed.shortBranches = fixedShort_;
        placed.nearBranches = 0;
        for (const Fragment &frag : frags_) {
            if (!table_.isRelaxable(frag.cls))
                continue;
            if (frag.form == BranchForm::Short)
                ++placed.shortBranches;
            else
                ++placed.nearBranches;
        }
        return placed.converged
                   ? std::string()
                   : diagnose(proc, records, placed.iterations, unconverged);
    }

  private:
    /**
     * forEachProcSlot's sink: appends each slot's record at its initial
     * form and, as the slots arrive, cuts the procedure into fragments
     * and records where each block starts. Within a block the slots
     * arrive as bodies, then call and terminator patches, then the
     * inserted jump, and only the last two can be targeted branches, so
     * every patch touches bytes of the fragment still open.
     */
    struct FragmentBuilder
    {
        Relaxer &relaxer;
        const Procedure &proc;
        const ProcLayout &layout;
        std::vector<RelaxedInstr> &out;
        std::vector<RelaxedBlock> &blocks;
        std::uint32_t first;       ///< out index of the first slot
        std::uint32_t declared = 0;  ///< finalInstrs of the blocks so far
        std::uint32_t run = 0;     ///< fixed bytes since the last branch

        std::size_t size() const { return out.size(); }

        void
        bodies(Addr wordAddr, std::uint32_t count, BlockId block)
        {
            checkSlots();
            relaxer.starts_[block] = BlockStart{
                static_cast<std::uint32_t>(relaxer.frags_.size()), run};
            blocks[block].firstInstr = first + declared;
            blocks[block].numInstrs = layout.blocks[block].finalInstrs;
            declared += blocks[block].numInstrs;

            RelaxedInstr instr;
            instr.block = block;
            set(instr, InstrClass::Body);
            for (std::uint32_t slot = 0; slot < count; ++slot) {
                instr.wordAddr = static_cast<std::uint32_t>(wordAddr + slot);
                out.push_back(instr);
            }
            run += count * instr.size;
        }

        void
        call(std::size_t slot, ProcId callee)
        {
            RelaxedInstr &instr = out[slot];
            run -= instr.size;
            set(instr, callee != kNoProc ? InstrClass::Call
                                         : InstrClass::Body);
            instr.targetOrCallee = callee;
            run += instr.size;
        }

        void
        terminator(std::size_t slot, const TerminatorSlot &term)
        {
            // The block's last base slot: every byte of the run so far
            // precedes it but its own.
            RelaxedInstr &instr = out[slot];
            run -= instr.size;
            set(instr, term.cls);
            instr.targetOrCallee = term.target;
            close(slot);
        }

        void
        jump(Addr wordAddr, BlockId block, BlockId target)
        {
            RelaxedInstr &instr = out.emplace_back();
            instr.wordAddr = static_cast<std::uint32_t>(wordAddr);
            instr.block = block;
            set(instr, InstrClass::Jump);
            instr.targetOrCallee = target;
            close(out.size() - 1);
        }

        /// Sets @p instr's class, initial form and size.
        void
        set(RelaxedInstr &instr, InstrClass cls) const
        {
            const auto c = static_cast<std::size_t>(cls);
            instr.cls = cls;
            instr.form = relaxer.initialForm_[c];
            instr.size = relaxer.initialSize_[c];
        }

        /// A targeted branch in out[@p slot] closes the open fragment;
        /// an untargeted slot never grows, so its bytes stay fixed.
        void
        close(std::size_t slot)
        {
            const RelaxedInstr &instr = out[slot];
            if (instr.targetBlock() == kNoBlock) {
                run += instr.size;
                relaxer.fixedShort_ += instr.form == BranchForm::Short;
                return;
            }
            Fragment &frag = relaxer.frags_.emplace_back();
            frag.slot = static_cast<std::uint32_t>(slot - first);
            frag.lead = run;
            // Resolved to a block start once every block has one.
            frag.targetFrag = instr.targetBlock();
            frag.cls = instr.cls;
            frag.form = instr.form;
            frag.size = instr.size;
            run = 0;
        }

        /// Panics when the blocks so far declared other than the slots
        /// enumerated.
        void
        checkSlots() const
        {
            if (out.size() - first != declared)
                panic("relaxProc(%s): %u block slots vs %zu enumerated",
                      proc.name().c_str(), declared, out.size() - first);
        }
    };

    /// Points each fragment's target at its block's start.
    void
    resolveTargets()
    {
        for (Fragment &frag : frags_) {
            const BlockStart &start = starts_[frag.targetFrag];
            frag.targetFrag = start.frag;
            frag.targetOffset = start.offset;
        }
        ends_.assign(frags_.size() + 1, 0);
    }

    /**
     * One sweep: branch end offsets from the current sizes, then every
     * branch's displacement. Every short branch that escapes grows in
     * this same sweep; the first branch that escapes its widest form is
     * left in @p unconverged. Returns true when something grew.
     */
    bool
    sweep(std::size_t &unconverged)
    {
        std::uint64_t end = 0;
        for (std::size_t k = 0; k < frags_.size(); ++k) {
            end += frags_[k].lead + frags_[k].size;
            ends_[k + 1] = end;
        }
        bool grew = false;
        for (std::size_t k = 0; k < frags_.size(); ++k) {
            Fragment &frag = frags_[k];
            frag.disp = static_cast<std::int64_t>(ends_[frag.targetFrag] +
                                                  frag.targetOffset) -
                        static_cast<std::int64_t>(ends_[k + 1]);
            if (table_.fits(frag.cls, frag.form, frag.disp))
                continue;
            if (table_.isRelaxable(frag.cls) &&
                frag.form == BranchForm::Short) {
                frag.form = BranchForm::Near;
                frag.size = static_cast<std::uint8_t>(
                    table_.size(frag.cls, BranchForm::Near));
                grew = true;
            } else if (unconverged == frags_.size()) {
                // The widest form never fits: unreachable with rel32
                // ranges, but keep relaxation total rather than
                // trusting it.
                unconverged = k;
            }
        }
        return grew;
    }

    /**
     * Writes the last sweep's placement: byte addresses from @p base,
     * each branch's form and displacement and the size the sweep placed
     * it at (a branch grown by the sweep the cap stopped after keeps its
     * old size), and block byte ranges. Returns the procedure's bytes.
     */
    std::uint64_t
    place(const ProcLayout &layout, std::uint64_t base,
          RelaxedInstr *records, std::vector<RelaxedBlock> &blocks)
    {
        for (std::size_t k = 0; k < frags_.size(); ++k) {
            const Fragment &frag = frags_[k];
            RelaxedInstr &instr = records[frag.slot];
            instr.form = frag.form;
            instr.size = static_cast<std::uint8_t>(
                ends_[k + 1] - (ends_[k] + frag.lead));
            instr.disp = static_cast<std::int32_t>(frag.disp);
        }
        std::uint64_t addr = base;
        std::uint32_t s = 0;
        for (const BlockId id : layout.order) {
            RelaxedBlock &block = blocks[id];
            block.byteAddr = addr;
            for (const std::uint32_t end = s + block.numInstrs; s < end;
                 ++s) {
                records[s].byteAddr = static_cast<std::uint32_t>(addr);
                addr += records[s].size;
            }
            block.byteSize = static_cast<std::uint32_t>(addr - block.byteAddr);
        }
        return addr - base;
    }

    /// The unconverged diagnostic, naming the first branch that escapes
    /// its form (@p unconverged, or the first found now).
    std::string
    diagnose(const Procedure &proc, const RelaxedInstr *records,
             std::uint32_t iterations, std::size_t unconverged) const
    {
        if (unconverged == frags_.size()) {
            for (std::size_t k = 0; k < frags_.size(); ++k) {
                if (!table_.fits(frags_[k].cls, frags_[k].form,
                                 frags_[k].disp)) {
                    unconverged = k;
                    break;
                }
            }
        }
        std::ostringstream out;
        out << "relaxation of " << proc.name() << " stopped after "
            << iterations << " sweeps";
        if (unconverged != frags_.size()) {
            const RelaxedInstr &instr = records[frags_[unconverged].slot];
            out << ": " << instrClassName(instr.cls) << " at word "
                << instr.wordAddr << " (block " << instr.block
                << " -> block " << instr.targetBlock() << ") displacement "
                << instr.disp << " escapes its "
                << branchFormName(instr.form) << " form";
        } else {
            out << " without a clean pass";
        }
        return out.str();
    }

    const EncodingTable &table_;
    const RelaxOptions &options_;
    /// Each class's starting form and its size in it.
    std::array<BranchForm, kNumInstrClasses> initialForm_{};
    std::array<std::uint8_t, kNumInstrClasses> initialSize_{};

    OutEdgeIndex edges_;
    std::vector<Fragment> frags_;
    std::vector<BlockStart> starts_;
    /// ends_[k] is where fragment k - 1's branch ends (0 for k = 0).
    std::vector<std::uint64_t> ends_;
    std::uint64_t fixedShort_ = 0;  ///< untargeted relaxable slots
};

}  // namespace

ProcId
RelaxedLayout::procOf(std::size_t slot) const
{
    const auto it = std::upper_bound(
        procs.begin(), procs.end(), slot,
        [](std::size_t s, const RelaxedProc &proc) {
            return s < proc.firstInstr;
        });
    if (it == procs.begin())
        return kNoProc;
    const RelaxedProc &proc = *(it - 1);
    return slot - proc.firstInstr < proc.numInstrs
               ? static_cast<ProcId>(it - 1 - procs.begin())
               : kNoProc;
}

ProcRelaxation
relaxProc(const Procedure &proc, const ProcLayout &layout,
          const EncodingModel &model, const RelaxOptions &options)
{
    LayoutExtent extent;
    extent.add(layout);
    checkRelaxCap("relaxProc", extent, model.table(), options);

    ProcRelaxation result;
    result.instrs.reserve(extent.slots);
    RelaxedProc placed;
    result.diagnostic =
        Relaxer(model, options).relax(proc, layout, result.instrs, placed);
    result.blocks = std::move(placed.blocks);
    result.byteSize = placed.byteSize;
    result.iterations = placed.iterations;
    result.converged = placed.converged;
    result.shortBranches = placed.shortBranches;
    result.nearBranches = placed.nearBranches;
    return result;
}

RelaxedLayout
relaxLayout(const Program &program, const ProgramLayout &layout,
            const EncodingModel &model, const RelaxOptions &options)
{
    LayoutExtent extent;
    for (const ProcLayout &proc : layout.procs)
        extent.add(proc);
    checkRelaxCap("relaxLayout", extent, model.table(), options);

    RelaxedLayout result;
    result.model = model.kind();
    result.procs.resize(program.numProcs());
    result.instrs.reserve(extent.slots);

    Relaxer relaxer(model, options);
    std::uint64_t base = 0;
    for (const auto &proc : program.procs()) {
        RelaxedProc &placed = result.procs[proc.id()];
        placed.byteBase = base;
        std::string diagnostic =
            relaxer.relax(proc, layout.procs[proc.id()], result.instrs, placed);
        result.iterations = std::max(result.iterations, placed.iterations);
        result.shortBranches += placed.shortBranches;
        result.nearBranches += placed.nearBranches;
        if (!placed.converged) {
            result.converged = false;
            if (result.diagnostic.empty())
                result.diagnostic = std::move(diagnostic);
        }
        base += placed.byteSize;
    }
    result.totalBytes = base;
    return result;
}

}  // namespace balign
