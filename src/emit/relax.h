/**
 * @file
 * GAS-style fragment relaxation: assigns each branch a short or near
 * form and iterates to a fixpoint of final byte addresses.
 *
 * The algorithm is the classic relax_segment loop (GNU as write.c; see
 * SNIPPETS.md §1-2 for the freewilll/was rendition): start every
 * relaxable instruction at its SHORT form, compute byte addresses, grow
 * any branch whose displacement does not fit its current form, repeat
 * until a sweep changes nothing. Growth is monotone — a branch never
 * shrinks back — so each sweep either grows at least one branch or
 * terminates, bounding the iteration count by the number of relaxable
 * instructions plus one. A configurable cap (RelaxOptions::maxIterations,
 * kMaxRelaxSweeps by default) backstops that argument: hitting it marks
 * the layout unconverged and names the offending branch in
 * RelaxedLayout::diagnostic rather than looping or panicking.
 *
 * Sweeps walk fragments, not instructions. Every targeted branch closes
 * a fragment that holds the fixed bytes laid out since the previous
 * branch, and every block start is a (fragment, offset) pair; both are
 * built once per procedure, as its slots are enumerated. A sweep is then a prefix sum over the
 * branches' sizes and a displacement check of the branches alone, and
 * byte addresses are written to the instruction records once, after the
 * last sweep.
 *
 * Relaxation is per-procedure: conditional branches and jumps only
 * target same-procedure blocks, and calls are fixed-size under every
 * model (their displacement is a relocation), so one procedure's form
 * choices never depend on another's. Procedure byte bases are assigned
 * cumulatively, which also makes the per-procedure result
 * rebase-invariant — the property SizeAwareObjective's layoutCost needs.
 *
 * Under the FixedWord model nothing is relaxable, the loop converges in
 * a single clean sweep, and every byte address is exactly kInstrBytes
 * times the word address (pinned by ctest -L emit).
 */

#ifndef BALIGN_EMIT_RELAX_H
#define BALIGN_EMIT_RELAX_H

#include <cstdint>
#include <string>
#include <vector>

#include "emit/encoding.h"
#include "layout/layout_result.h"
#include "layout/materialize.h"

namespace balign {

/// Default sweep cap of RelaxOptions::maxIterations. The monotone-growth
/// argument bounds real convergence well below it for any sane procedure.
inline constexpr unsigned kMaxRelaxSweeps = 64;

/**
 * Largest byte footprint, and largest word-address extent, of a layout
 * relaxLayout and relaxProc accept. RelaxedInstr holds byte and word
 * addresses and displacements in 32 bits; under this cap every address
 * fits and every displacement fits a signed 32-bit field. A layout whose
 * instructions could exceed it at the model's widest encoding is a
 * fatal() naming the cap. Parsed programs stay far below it: the parser
 * bounds them by kMaxProgramInstrs (2^24) instructions.
 */
inline constexpr std::uint64_t kMaxRelaxedBytes = std::uint64_t{1} << 31;

/// One instruction slot with its final form, byte address and size.
struct RelaxedInstr
{
    /// Word-model address (copied from the LayoutInstr enumeration).
    std::uint32_t wordAddr = 0;

    /// Final byte address (program-global after relaxLayout; procedure-
    /// local, starting at 0, in a bare ProcRelaxation).
    std::uint32_t byteAddr = 0;

    /// Final displacement, measured from the end of the instruction:
    /// target byte address - (byteAddr + size). Zero for non-branches
    /// and calls.
    std::int32_t disp = 0;

    BlockId block = kNoBlock;

    /// For CondBranch/Jump: destination block (same procedure). For
    /// Call: callee procedure (displacement left to a relocation).
    /// kNoBlock otherwise. Read it through targetBlock() and callee().
    std::uint32_t targetOrCallee = kNoBlock;

    InstrClass cls = InstrClass::Body;
    BranchForm form = BranchForm::None;

    /// Encoded size in bytes: model.instrBytes(cls, form).
    std::uint8_t size = 0;

    /// Destination block of a CondBranch/Jump; kNoBlock otherwise.
    BlockId
    targetBlock() const
    {
        return cls == InstrClass::Call ? kNoBlock : targetOrCallee;
    }

    /// Callee procedure of a Call; kNoProc otherwise.
    ProcId
    callee() const
    {
        return cls == InstrClass::Call ? targetOrCallee : kNoProc;
    }
};
static_assert(sizeof(RelaxedInstr) <= 24,
              "one RelaxedInstr per instruction: keep it compact");

/// Byte placement of one block.
struct RelaxedBlock
{
    std::uint64_t byteAddr = 0;  ///< byte address of the first slot
    std::uint32_t byteSize = 0;  ///< total encoded bytes of the block
    std::uint32_t firstInstr = 0;  ///< index into the instrs vector
    std::uint32_t numInstrs = 0;   ///< slot count (== finalInstrs)
};

/// Result of relaxing one procedure (byte addresses procedure-local).
struct ProcRelaxation
{
    /// Slots in address order; byteAddr starts at 0.
    std::vector<RelaxedInstr> instrs;

    /// Per-block placement, indexed by BlockId.
    std::vector<RelaxedBlock> blocks;

    /// Total encoded bytes of the procedure.
    std::uint64_t byteSize = 0;

    /// Sweeps performed, including the final clean sweep (>= 1).
    std::uint32_t iterations = 0;

    /// False when the iteration cap was hit before a clean sweep.
    bool converged = true;

    /// Human-readable reason when unconverged (names the branch whose
    /// displacement still escapes its form).
    std::string diagnostic;

    /// Relaxable slots by final form.
    std::uint64_t shortBranches = 0;
    std::uint64_t nearBranches = 0;
};

/// Byte placement of one procedure within a RelaxedLayout.
struct RelaxedProc
{
    std::uint64_t byteBase = 0;  ///< program-global byte base
    std::uint64_t byteSize = 0;
    std::vector<RelaxedBlock> blocks;  ///< global byte addresses
    std::uint32_t firstInstr = 0;  ///< index into RelaxedLayout::instrs
    std::uint32_t numInstrs = 0;
    bool converged = true;
    std::uint32_t iterations = 0;
    std::uint64_t shortBranches = 0;  ///< relaxable slots by final form
    std::uint64_t nearBranches = 0;
};

/// Program-wide relaxation result: the final byte layout.
struct RelaxedLayout
{
    EncodingModelKind model = EncodingModelKind::FixedWord;
    std::vector<RelaxedProc> procs;

    /// Every slot, procedures in id order, program-global byte addresses.
    /// A slot's procedure is the one whose [firstInstr, +numInstrs)
    /// range holds it (procOf).
    std::vector<RelaxedInstr> instrs;

    std::uint64_t totalBytes = 0;

    /// Max per-procedure sweep count.
    std::uint32_t iterations = 0;

    /// True when every procedure reached a fixpoint under the cap.
    bool converged = true;

    /// First unconverged procedure's diagnostic, empty when converged.
    std::string diagnostic;

    std::uint64_t shortBranches = 0;
    std::uint64_t nearBranches = 0;

    /// The procedure whose slot range holds instrs[@p slot], or kNoProc.
    ProcId procOf(std::size_t slot) const;
};

struct RelaxOptions
{
    /// Sweep cap, at least 1 (0 is a fatal()).
    unsigned maxIterations = kMaxRelaxSweeps;
};

/// Relaxes one procedure of @p layout under @p model. Byte addresses in
/// the result are procedure-local (base 0). fatal() past
/// kMaxRelaxedBytes.
ProcRelaxation relaxProc(const Procedure &proc, const ProcLayout &layout,
                         const EncodingModel &model,
                         const RelaxOptions &options = {});

/// Relaxes a whole program layout: per-procedure fixpoints at
/// cumulative byte bases in procedure id order, written in place into
/// the program-wide instrs vector. fatal() past kMaxRelaxedBytes.
RelaxedLayout relaxLayout(const Program &program,
                          const ProgramLayout &layout,
                          const EncodingModel &model,
                          const RelaxOptions &options = {});

}  // namespace balign

#endif  // BALIGN_EMIT_RELAX_H
