/**
 * @file
 * Independent disassembler: lifts the `.text` of an emitted object back
 * into instructions and a per-procedure control-flow graph.
 *
 * This is the read half of a binary-level translation-validation loop
 * (disasm/checkobj.h). Its one design rule is INDEPENDENCE: the decoder
 * shares no code with the writers in emit/encoding.cc and emit/elf.cc —
 * every opcode pattern, instruction size and displacement convention is
 * restated here from the encoding's documented byte formats, so a bug in
 * the encoder cannot silently cancel against the same bug in the
 * decoder. The only emit-side artifact it consumes is the ParsedElf from
 * the PR-9 self-contained reader (raw section payloads and symbols —
 * data, not encoding logic).
 *
 * Two instruction sets are decoded, matching the two EncodingModels:
 *
 *  - fixed-word: the synthetic self-describing model. Every instruction
 *    is 4 bytes: a class tag (0xb0 + InstrClass) followed by a 24-bit
 *    little-endian displacement, sign-extended, measured from the end of
 *    the instruction. Non-branch classes must carry a zero field.
 *  - variable: the x86-64-flavoured model. Opcodes decoded:
 *        0f 1f 40 00   body (canonical 4-byte nop)
 *        e8 rel32      call (field zero; a relocation carries the target)
 *        74 rel8       conditional branch, short form
 *        0f 84 rel32   conditional branch, near form
 *        eb rel8       unconditional jump, short form
 *        e9 rel32      unconditional jump, near form
 *        ff e0         indirect jump
 *        c3            return
 *    Any other byte sequence is a decode failure at that address.
 *
 * Decoding is symbol-driven: each GLOBAL STT_FUNC symbol names one
 * procedure's byte range, and the decoder sweeps it linearly. Failures
 * (unknown opcode, truncated instruction, nonzero field where the format
 * requires zero) are recorded per procedure, never thrown — the checker
 * turns them into decode-totality obligations.
 *
 * CFG recovery uses classic leader analysis and is shared between the
 * decoded stream and the source-side RelaxedLayout stream so that both
 * sides of the isomorphism check are built by the same rules: leaders
 * are the procedure base, every intra-procedure branch target, and the
 * address following any control transfer; successors follow from each
 * block's final instruction (target + optional fall-through). Leaders
 * live in a per-byte bitmap and successors in a two-slot array, so a
 * whole object lifts in linear time with no per-block allocation.
 */

#ifndef BALIGN_DISASM_DISASM_H
#define BALIGN_DISASM_DISASM_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "emit/elf.h"
#include "emit/encoding.h"
#include "layout/layout_result.h"

namespace balign {

/// One decoded instruction.
struct DecodedInstr
{
    /// Byte address within .text (program-global). The decoder refuses
    /// a .text of 2^32 bytes or more, so every address fits.
    std::uint32_t addr = 0;

    /// Decoded displacement field, measured from the end of the
    /// instruction (zero for classes without one). For calls this is the
    /// raw rel32 field, which the writer leaves zero.
    std::int32_t disp = 0;

    InstrClass cls = InstrClass::Body;

    /// Short/Near for the variable model's relaxable classes; None for
    /// everything else (including every fixed-word instruction).
    BranchForm form = BranchForm::None;

    /// Encoded size in bytes.
    std::uint8_t size = 0;

    /// True for CondBranch/Jump.
    bool hasTarget = false;

    /// Meaningful when hasTarget: addr + size + disp (modulo 2^64).
    std::uint64_t
    target() const
    {
        return std::uint64_t{addr} + size +
               static_cast<std::uint64_t>(std::int64_t{disp});
    }
};
static_assert(sizeof(DecodedInstr) <= 16,
              "one DecodedInstr per instruction: keep it compact");

/// One procedure's decode: the symbol that named it plus its instructions.
struct DecodedProc
{
    std::string name;
    std::uint32_t symbol = 0;  ///< symtab index
    std::uint64_t base = 0;    ///< symbol value (byte address in .text)
    std::uint64_t size = 0;    ///< symbol size (bytes)

    /// Instructions in address order; covers [base, base+size) exactly
    /// when ok.
    std::vector<DecodedInstr> instrs;

    /// False when the linear sweep hit an undecodable or truncated
    /// instruction; `error` names the first offending byte address.
    bool ok = true;
    std::string error;
};

/// Whole-object disassembly.
struct Disassembly
{
    /// False only for structural problems (unknown e_machine, symbol
    /// table unusable); per-procedure decode failures leave ok true and
    /// land in the DecodedProc.
    bool ok = true;
    std::string error;

    EncodingModelKind model = EncodingModelKind::FixedWord;

    /// One entry per GLOBAL STT_FUNC symbol, in symtab order.
    std::vector<DecodedProc> procs;

    std::uint64_t textBytes = 0;
};

/**
 * Decodes every procedure of @p elf. The instruction set is chosen from
 * e_machine (EM_X86_64 -> variable, EM_NONE -> fixed-word, anything else
 * is a structural error).
 */
Disassembly disassembleObject(const ParsedElf &elf);

/// As above with the instruction set forced (for objects whose e_machine
/// the caller wants to second-guess).
Disassembly disassembleObject(const ParsedElf &elf, EncodingModelKind model);

// ---------------------------------------------------------------------
// CFG recovery (shared by the decoded and source-side streams).

/**
 * One bit per byte address of a procedure's range [base, base + size):
 * its instruction boundaries or its block leaders. The checker keeps one
 * for a whole object and reset() reuses its storage, so the per-procedure
 * sets cost no allocation past the largest procedure.
 */
class ByteBitmap
{
  public:
    /// Clears every bit and covers [@p base, @p base + @p size).
    void reset(std::uint64_t base, std::uint64_t size);

    /// Sets @p addr's bit; addresses outside the range are ignored.
    void
    set(std::uint64_t addr)
    {
        const std::uint64_t offset = addr - base_;
        if (addr >= base_ && offset < size_)
            words_[offset >> 6] |= std::uint64_t{1} << (offset & 63);
    }

    /// False for addresses outside the range.
    bool
    test(std::uint64_t addr) const
    {
        const std::uint64_t offset = addr - base_;
        return addr >= base_ && offset < size_ &&
               ((words_[offset >> 6] >> (offset & 63)) & 1) != 0;
    }

  private:
    std::uint64_t base_ = 0;
    std::uint64_t size_ = 0;
    std::vector<std::uint64_t> words_;
};

/**
 * A block's successor leader addresses, sorted ascending without
 * duplicates. A block has at most two (a conditional branch's target and
 * its fall-through); unused slots hold zero, so == compares sets.
 */
struct LiftedSuccs
{
    std::array<std::uint64_t, 2> addrs{};
    std::uint8_t count = 0;

    /// Inserts @p addr in order; a duplicate is dropped.
    void add(std::uint64_t addr);

    const std::uint64_t *begin() const { return addrs.data(); }
    const std::uint64_t *end() const { return addrs.data() + count; }
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    bool operator==(const LiftedSuccs &other) const = default;
};

/// One recovered basic block.
struct LiftedBlock
{
    std::uint64_t addr = 0;        ///< leader byte address
    std::uint32_t firstInstr = 0;  ///< index into the lifted stream
    std::uint32_t numInstrs = 0;

    /// Class of the final instruction when it transfers control
    /// (CondBranch / Jump / IndirectJump / Return); Body when the block
    /// simply runs into the next leader.
    InstrClass terminator = InstrClass::Body;

    LiftedSuccs succs;
};

/// One procedure's recovered graph; blocks in address order (so the
/// block at the procedure base — the entry — is always first).
struct LiftedCfg
{
    std::vector<LiftedBlock> blocks;
};

/**
 * Leader analysis over one cleanly decoded procedure (instructions in
 * strictly increasing address order covering [base, base + size)),
 * read in place: splits the stream into basic blocks and derives each
 * block's successors into @p out, which is cleared first. Leaders are
 * the procedure base, every in-range branch target and the address after
 * any control transfer; @p leaders holds them, one bit per byte, so
 * lifting is linear in the instructions plus size / 64 words. Branch
 * targets outside the procedure range still become successors (the
 * checker flags them); they just cannot start a block here.
 */
void liftCfg(const DecodedProc &proc, ByteBitmap &leaders, LiftedCfg &out);

/**
 * The same rules over procedure @p proc's slice of a RelaxedLayout:
 * branch targets resolve through the relaxed block placements, i.e. this
 * is the graph the bytes are SUPPOSED to encode.
 */
void liftCfg(const RelaxedLayout &relaxed, ProcId proc, ByteBitmap &leaders,
             LiftedCfg &out);

}  // namespace balign

#endif  // BALIGN_DISASM_DISASM_H
