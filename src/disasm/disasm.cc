#include "disasm/disasm.h"

#include <limits>
#include <sstream>

#include "support/types.h"

namespace balign {

namespace {

/// Variadic ostringstream shorthand for error messages.
template <typename... Args>
std::string
msg(Args &&...args)
{
    std::ostringstream out;
    (out << ... << args);
    return out.str();
}

/// Two-digit lowercase hex of one byte.
std::string
hexByte(std::uint8_t v)
{
    static const char digits[] = "0123456789abcdef";
    return std::string{digits[v >> 4], digits[v & 0xf]};
}

// ELF constants restated locally (see file comment in disasm.h: this
// module re-derives every format fact instead of importing the writer's).
constexpr std::uint16_t kMachineNone = 0;    // EM_NONE -> fixed-word
constexpr std::uint16_t kMachineX86_64 = 62; // EM_X86_64 -> variable
constexpr std::uint8_t kGlobalFunc = 0x12;   // (STB_GLOBAL<<4)|STT_FUNC

std::int64_t
signExtend8(std::uint8_t v)
{
    return static_cast<std::int8_t>(v);
}

std::int64_t
signExtend24(std::uint32_t v)
{
    v &= 0xffffff;
    if (v & 0x800000)
        v |= 0xff000000;
    return static_cast<std::int32_t>(v);
}

std::uint32_t
readLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

/**
 * Decodes one fixed-word instruction at @p addr. The synthetic format is
 * a class tag byte (0xb0 + InstrClass) followed by the low three bytes
 * of the displacement, little-endian, sign-extended; classes without a
 * displacement must carry a zero field (calls included — their target is
 * relocation-carried).
 */
bool
decodeFixedWord(const std::uint8_t *bytes, std::uint64_t addr,
                std::uint64_t avail, DecodedInstr &out, std::string &error)
{
    if (avail < 4) {
        error = msg("truncated fixed-word instruction at byte ", addr, " (",
                    avail, " bytes left, need 4)");
        return false;
    }
    const std::uint8_t tag = bytes[0];
    if (tag < 0xb0 || tag > 0xb5) {
        error = msg("unknown fixed-word tag 0x", hexByte(tag), " at byte ",
                    addr);
        return false;
    }
    const auto cls = static_cast<InstrClass>(tag - 0xb0);
    const std::uint32_t raw = static_cast<std::uint32_t>(bytes[1]) |
                              (static_cast<std::uint32_t>(bytes[2]) << 8) |
                              (static_cast<std::uint32_t>(bytes[3]) << 16);
    const std::int64_t disp = signExtend24(raw);

    out = DecodedInstr{};
    out.cls = cls;
    out.form = BranchForm::None;
    out.addr = static_cast<std::uint32_t>(addr);
    out.size = 4;
    out.disp = static_cast<std::int32_t>(disp);
    if (cls == InstrClass::CondBranch || cls == InstrClass::Jump) {
        out.hasTarget = true;
    } else if (raw != 0) {
        error = msg("nonzero displacement field in non-branch fixed-word "
                    "instruction at byte ",
                    addr);
        return false;
    }
    return true;
}

/// Decodes one variable-model (x86-64-flavoured) instruction at @p addr.
bool
decodeVariable(const std::uint8_t *bytes, std::uint64_t addr,
               std::uint64_t avail, DecodedInstr &out, std::string &error)
{
    out = DecodedInstr{};
    out.addr = static_cast<std::uint32_t>(addr);
    out.form = BranchForm::None;

    const auto need = [&](std::uint64_t n) {
        if (avail >= n)
            return true;
        error = msg("truncated instruction at byte ", addr, " (", avail,
                    " bytes left, need ", n, ")");
        return false;
    };

    switch (bytes[0]) {
      case 0x0f:
        if (!need(2))
            return false;
        if (bytes[1] == 0x1f) {  // 0f 1f 40 00: canonical 4-byte nop
            if (!need(4))
                return false;
            if (bytes[2] != 0x40 || bytes[3] != 0x00) {
                error = msg("unknown nop shape 0f 1f ", hexByte(bytes[2]), " ",
                            hexByte(bytes[3]), " at byte ", addr);
                return false;
            }
            out.cls = InstrClass::Body;
            out.size = 4;
            return true;
        }
        if (bytes[1] == 0x84) {  // 0f 84 rel32: je near
            if (!need(6))
                return false;
            out.cls = InstrClass::CondBranch;
            out.form = BranchForm::Near;
            out.size = 6;
            out.disp = static_cast<std::int32_t>(readLe32(bytes + 2));
            out.hasTarget = true;
            return true;
        }
        error = msg("unknown two-byte opcode 0f ", hexByte(bytes[1]),
                    " at byte ", addr);
        return false;
      case 0x74:  // 74 rel8: je short
        if (!need(2))
            return false;
        out.cls = InstrClass::CondBranch;
        out.form = BranchForm::Short;
        out.size = 2;
        out.disp = signExtend8(bytes[1]);
        out.hasTarget = true;
        return true;
      case 0xeb:  // eb rel8: jmp short
        if (!need(2))
            return false;
        out.cls = InstrClass::Jump;
        out.form = BranchForm::Short;
        out.size = 2;
        out.disp = signExtend8(bytes[1]);
        out.hasTarget = true;
        return true;
      case 0xe9:  // e9 rel32: jmp near
        if (!need(5))
            return false;
        out.cls = InstrClass::Jump;
        out.form = BranchForm::Near;
        out.size = 5;
        out.disp = static_cast<std::int32_t>(readLe32(bytes + 1));
        out.hasTarget = true;
        return true;
      case 0xe8:  // e8 rel32: call (field zero; relocation carries it)
        if (!need(5))
            return false;
        out.cls = InstrClass::Call;
        out.size = 5;
        out.disp = static_cast<std::int32_t>(readLe32(bytes + 1));
        return true;
      case 0xff:  // ff e0: jmp *%rax
        if (!need(2))
            return false;
        if (bytes[1] != 0xe0) {
            error = msg("unknown opcode ff ", hexByte(bytes[1]), " at byte ",
                        addr);
            return false;
        }
        out.cls = InstrClass::IndirectJump;
        out.size = 2;
        return true;
      case 0xc3:  // c3: ret
        out.cls = InstrClass::Return;
        out.size = 1;
        return true;
      default:
        error = msg("unknown opcode ", hexByte(bytes[0]), " at byte ", addr);
        return false;
    }
}

DecodedProc
decodeProc(const std::vector<std::uint8_t> &text, const ElfSymbolInfo &sym,
           std::uint32_t symbolIndex, EncodingModelKind model)
{
    DecodedProc proc;
    proc.name = sym.name;
    proc.symbol = symbolIndex;
    proc.base = sym.value;
    proc.size = sym.size;

    if (sym.value > text.size() || sym.size > text.size() - sym.value) {
        proc.ok = false;
        proc.error = msg("symbol range [", sym.value, ", ",
                         sym.value + sym.size, ") escapes .text (",
                         text.size(), " bytes)");
        return proc;
    }

    std::uint64_t addr = sym.value;
    const std::uint64_t end = sym.value + sym.size;
    std::string error;
    // Exact for fixed-word; variable-model code averages over 4 bytes
    // per instruction, so this rarely grows.
    proc.instrs.reserve(sym.size / 4 + 1);
    while (addr < end) {
        DecodedInstr instr;
        const bool ok =
            model == EncodingModelKind::FixedWord
                ? decodeFixedWord(text.data() + addr, addr, end - addr,
                                  instr, error)
                : decodeVariable(text.data() + addr, addr, end - addr,
                                 instr, error);
        if (!ok) {
            proc.ok = false;
            proc.error = error;
            return proc;
        }
        proc.instrs.push_back(instr);
        addr += instr.size;
    }
    return proc;
}

}  // namespace

Disassembly
disassembleObject(const ParsedElf &elf, EncodingModelKind model)
{
    Disassembly out;
    out.model = model;
    if (!elf.ok) {
        out.ok = false;
        out.error = msg("unparseable object: ", elf.error);
        return out;
    }
    out.textBytes = elf.text.size();
    if (out.textBytes > std::numeric_limits<std::uint32_t>::max()) {
        out.ok = false;
        out.error = msg(".text of ", out.textBytes,
                        " bytes is past the decoder's 32-bit addresses");
        return out;
    }
    for (std::uint32_t i = 0; i < elf.symbols.size(); ++i) {
        const ElfSymbolInfo &sym = elf.symbols[i];
        if (sym.info != kGlobalFunc)
            continue;
        out.procs.push_back(decodeProc(elf.text, sym, i, model));
    }
    return out;
}

Disassembly
disassembleObject(const ParsedElf &elf)
{
    if (!elf.ok)
        return disassembleObject(elf, EncodingModelKind::FixedWord);
    switch (elf.machine) {
      case kMachineNone:
        return disassembleObject(elf, EncodingModelKind::FixedWord);
      case kMachineX86_64:
        return disassembleObject(elf, EncodingModelKind::Variable);
      default: {
        Disassembly out;
        out.ok = false;
        out.error = msg("unknown e_machine ", elf.machine,
                        " (no matching encoding model)");
        return out;
      }
    }
}

void
ByteBitmap::reset(std::uint64_t base, std::uint64_t size)
{
    base_ = base;
    size_ = size;
    words_.assign((size + 63) / 64, 0);
}

void
LiftedSuccs::add(std::uint64_t addr)
{
    // At most two calls per block: a target and a fall-through.
    std::size_t slot = count;
    for (std::size_t i = 0; i < count; ++i)
        if (addrs[i] == addr)
            return;
    for (; slot > 0 && addrs[slot - 1] > addr; --slot)
        addrs[slot] = addrs[slot - 1];
    addrs[slot] = addr;
    ++count;
}

namespace {

/// The per-instruction view the lifter consumes: address, class and the
/// resolved intra-procedure branch target (when any).
struct CfgInstr
{
    std::uint64_t addr = 0;
    InstrClass cls = InstrClass::Body;
    bool hasTarget = false;
    std::uint64_t target = 0;
};

bool
transfers(InstrClass cls)
{
    return cls == InstrClass::CondBranch || cls == InstrClass::Jump ||
           cls == InstrClass::IndirectJump || cls == InstrClass::Return;
}

/**
 * The lifter over @p count instructions read through @p at(i), which
 * returns the i-th instruction's CfgInstr view by value, so decoded and
 * relaxed instructions are read where they lie.
 */
template <typename At>
void
liftStream(std::size_t count, const At &at, std::uint64_t base,
           std::uint64_t size, ByteBitmap &leaders, LiftedCfg &out)
{
    out.blocks.clear();
    if (count == 0)
        return;
    const std::uint64_t end = base + size;

    // Leaders: procedure base, every in-range branch target, and the
    // address after any control transfer.
    leaders.reset(base, size);
    leaders.set(base);
    for (std::size_t i = 0; i < count; ++i) {
        const CfgInstr instr = at(i);
        if (instr.hasTarget && instr.target >= base && instr.target < end)
            leaders.set(instr.target);
        if (transfers(instr.cls) && i + 1 < count)
            leaders.set(at(i + 1).addr);
    }

    // Cut the stream at leaders; instrs are in address order, so blocks
    // come out in address order with the entry (at base) first.
    std::size_t i = 0;
    while (i < count) {
        LiftedBlock &block = out.blocks.emplace_back();
        block.addr = at(i).addr;
        block.firstInstr = static_cast<std::uint32_t>(i);
        CfgInstr last;
        while (i < count) {
            last = at(i);
            ++block.numInstrs;
            ++i;
            if (transfers(last.cls)) {
                block.terminator = last.cls;
                break;
            }
            if (i < count && leaders.test(at(i).addr))
                break;
        }

        switch (block.terminator) {
          case InstrClass::CondBranch:
            if (last.hasTarget)
                block.succs.add(last.target);
            // Fall-through edge: the next address (procedure end when the
            // branch is the final instruction — both streams agree).
            block.succs.add(i < count ? at(i).addr : end);
            break;
          case InstrClass::Jump:
            if (last.hasTarget)
                block.succs.add(last.target);
            break;
          case InstrClass::IndirectJump:
          case InstrClass::Return:
            break;
          default:
            // Block cut by a leader: falls through to the next address.
            if (i < count)
                block.succs.add(at(i).addr);
            break;
        }
    }
}

}  // namespace

void
liftCfg(const DecodedProc &proc, ByteBitmap &leaders, LiftedCfg &out)
{
    const DecodedInstr *instrs = proc.instrs.data();
    liftStream(
        proc.instrs.size(),
        [instrs](std::size_t i) {
            const DecodedInstr &instr = instrs[i];
            return CfgInstr{instr.addr, instr.cls, instr.hasTarget,
                            instr.target()};
        },
        proc.base, proc.size, leaders, out);
}

void
liftCfg(const RelaxedLayout &relaxed, ProcId proc, ByteBitmap &leaders,
        LiftedCfg &out)
{
    const RelaxedProc &rp = relaxed.procs[proc];
    const RelaxedInstr *slots = relaxed.instrs.data() + rp.firstInstr;
    liftStream(
        rp.numInstrs,
        [&rp, slots](std::size_t i) {
            const RelaxedInstr &slot = slots[i];
            CfgInstr view{slot.byteAddr, slot.cls, false, 0};
            if ((slot.cls == InstrClass::CondBranch ||
                 slot.cls == InstrClass::Jump) &&
                slot.targetBlock() != kNoBlock) {
                view.hasTarget = true;
                view.target = rp.blocks[slot.targetBlock()].byteAddr;
            }
            return view;
        },
        rp.byteBase, rp.byteSize, leaders, out);
}

}  // namespace balign
