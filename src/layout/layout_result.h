/**
 * @file
 * Concrete layout of a program: block order, final addresses, and the
 * binary transformations applied (sense inversions, inserted and removed
 * unconditional jumps) — the output the paper produced with OM.
 */

#ifndef BALIGN_LAYOUT_LAYOUT_RESULT_H
#define BALIGN_LAYOUT_LAYOUT_RESULT_H

#include <vector>

#include "cfg/program.h"
#include "layout/realization.h"
#include "support/types.h"

namespace balign {

/**
 * Class of one laid-out instruction slot, the granularity at which the
 * emit backend (src/emit/) assigns encodings and byte sizes. Every slot
 * the materializer accounts for in BlockLayout::finalInstrs maps to
 * exactly one of these.
 */
enum class InstrClass : std::uint8_t {
    Body,          ///< straight-line instruction (no control transfer)
    Call,          ///< procedure call (embedded CallSite)
    CondBranch,    ///< realized conditional branch terminator
    Jump,          ///< unconditional jump (kept terminator or inserted)
    IndirectJump,  ///< computed-jump terminator
    Return,        ///< return terminator
};

/// Printable name of an instruction class.
const char *instrClassName(InstrClass cls);

/**
 * One instruction slot of a realized layout, in address order. This is
 * the per-instruction size-accounting record: the word-model address of
 * the slot plus everything an encoder needs to size and target it (the
 * branch's destination block, or a call's callee).
 */
struct LayoutInstr
{
    InstrClass cls = InstrClass::Body;

    /// Program-global instruction-word address of the slot.
    Addr wordAddr = kNoAddr;

    /// Owning procedure and block.
    ProcId proc = kNoProc;
    BlockId block = kNoBlock;

    /// For CondBranch/Jump: destination block (same procedure). kNoBlock
    /// for classes without an intra-procedure target.
    BlockId targetBlock = kNoBlock;

    /// For Call: the callee procedure.
    ProcId callee = kNoProc;
};

/**
 * Per-block placement and transformation record.
 *
 * Address fields are program-global instruction-word addresses (procedure
 * base already applied).
 */
struct BlockLayout
{
    /// Start address of the block.
    Addr addr = kNoAddr;

    /// Position of the block in its procedure's layout order.
    std::uint32_t orderIndex = 0;

    /// Static size in instruction words after transformation.
    std::uint32_t finalInstrs = 0;

    /// Instructions that execute on EVERY activation of the block
    /// (excludes an inserted trailing jump, which only executes when its
    /// path is taken).
    std::uint32_t baseInstrs = 0;

    /// For CondBranch blocks: how the two successors are realized.
    CondRealization cond = CondRealization::FallAdjacent;

    /// True when a trailing unconditional jump was inserted (fall-through
    /// blocks with non-adjacent successors; both "Neither" realizations).
    bool jumpInserted = false;

    /// True when an UncondBranch block's jump was deleted because its
    /// target became layout-adjacent.
    bool jumpRemoved = false;

    /// Address of the block's terminator branch instruction, if any.
    Addr branchAddr = kNoAddr;

    /// Address of the inserted trailing jump, if any.
    Addr jumpAddr = kNoAddr;

    bool operator==(const BlockLayout &) const = default;
};

/// Layout of one procedure.
struct ProcLayout
{
    /// Blocks in final layout order.
    std::vector<BlockId> order;

    /// Per-block records, indexed by BlockId.
    std::vector<BlockLayout> blocks;

    /// Program-global base address of the procedure.
    Addr base = 0;

    /// Static size (instruction words) after transformation.
    std::uint64_t totalInstrs = 0;

    /// Counts of applied transformations.
    std::uint32_t jumpsInserted = 0;
    std::uint32_t jumpsRemoved = 0;
    std::uint32_t sensesInverted = 0;

    bool operator==(const ProcLayout &) const = default;
};

/**
 * Re-bases @p proc at @p base: every program-global address shifts by the
 * same delta (addresses within a procedure are contiguous, so a layout is
 * position-independent modulo this shift). Used by incremental
 * realignment to splice procedure layouts.
 */
void rebaseProcLayout(ProcLayout &proc, Addr base);

/// Layout of a whole program (procedures in id order, placed contiguously).
struct ProgramLayout
{
    std::vector<ProcLayout> procs;
    std::uint64_t totalInstrs = 0;

    const ProcLayout &proc(ProcId id) const { return procs[id]; }

    /// Entry address of a procedure (its entry block's address).
    Addr
    procEntryAddr(ProcId id) const
    {
        return procs[id].blocks[procs[id].order.front()].addr;
    }

    bool operator==(const ProgramLayout &) const = default;
};

}  // namespace balign

#endif  // BALIGN_LAYOUT_LAYOUT_RESULT_H
