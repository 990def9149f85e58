#include "emit/encoding.h"

#include <algorithm>
#include <limits>

#include "support/log.h"
#include "support/types.h"

namespace balign {

namespace {

void
appendLe32(std::vector<std::uint8_t> &out, std::int64_t value)
{
    const auto v = static_cast<std::uint32_t>(value);
    out.push_back(static_cast<std::uint8_t>(v & 0xff));
    out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
    out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
    out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

/// Sets every class and form of @p table to @p bytes and the
/// displacement range [@p min_disp, @p max_disp]; nothing relaxable.
void
fillTable(EncodingTable &table, unsigned bytes, std::int64_t min_disp,
          std::int64_t max_disp)
{
    for (std::size_t c = 0; c < kNumInstrClasses; ++c) {
        table.bytes[c].fill(static_cast<std::uint8_t>(bytes));
        table.minDisp[c].fill(min_disp);
        table.maxDisp[c].fill(max_disp);
        table.relaxable[c] = false;
    }
}

/**
 * Legacy model: every slot is one kInstrBytes word and nothing relaxes.
 * The synthetic encoding is a class tag byte followed by the low three
 * bytes of the displacement (zero for non-branches) — deterministic and
 * self-describing, so the ELF round-trip tests can check text bytes
 * without an external toolchain.
 */
class FixedWordModel final : public EncodingModel
{
  public:
    FixedWordModel() : EncodingModel(makeTable()) {}

    EncodingModelKind kind() const override
    {
        return EncodingModelKind::FixedWord;
    }
    const char *name() const override { return "fixed-word"; }

    void
    encode(InstrClass cls, BranchForm /*form*/, std::int64_t disp,
           std::vector<std::uint8_t> &out) const override
    {
        const auto v = static_cast<std::uint32_t>(disp);
        out.push_back(static_cast<std::uint8_t>(0xb0 +
                                                static_cast<unsigned>(cls)));
        out.push_back(static_cast<std::uint8_t>(v & 0xff));
        out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
        out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
    }

  private:
    static EncodingTable
    makeTable()
    {
        // Every slot one word; three displacement bytes in the synthetic
        // record, whatever the class.
        EncodingTable table;
        fillTable(table, kInstrBytes, -(1 << 23), (1 << 23) - 1);
        return table;
    }
};

/**
 * x86-64-flavoured variable-length model:
 *
 *   Body          0F 1F 40 00         4  (canonical 4-byte nop)
 *   Call          E8 rel32            5  (rel32 zero; relocation fills)
 *   CondBranch    74 rel8             2  short
 *                 0F 84 rel32         6  near
 *   Jump          EB rel8             2  short
 *                 E9 rel32            5  near
 *   IndirectJump  FF E0               2
 *   Return        C3                  1
 *
 * Condition codes are modelled uniformly as JE/JZ: the IR carries branch
 * *realizations*, not concrete predicates, and relaxation only needs
 * sizes to be right.
 */
class VariableModel final : public EncodingModel
{
  public:
    VariableModel() : EncodingModel(makeTable()) {}

    EncodingModelKind kind() const override
    {
        return EncodingModelKind::Variable;
    }
    const char *name() const override { return "variable"; }

    void
    encode(InstrClass cls, BranchForm form, std::int64_t disp,
           std::vector<std::uint8_t> &out) const override
    {
        switch (cls) {
          case InstrClass::Body:
            out.insert(out.end(), {0x0f, 0x1f, 0x40, 0x00});
            return;
          case InstrClass::Call:
            out.push_back(0xe8);
            appendLe32(out, 0);  // relocation fills rel32
            return;
          case InstrClass::CondBranch:
            if (form == BranchForm::Short) {
                out.push_back(0x74);
                out.push_back(static_cast<std::uint8_t>(disp));
            } else {
                out.push_back(0x0f);
                out.push_back(0x84);
                appendLe32(out, disp);
            }
            return;
          case InstrClass::Jump:
            if (form == BranchForm::Short) {
                out.push_back(0xeb);
                out.push_back(static_cast<std::uint8_t>(disp));
            } else {
                out.push_back(0xe9);
                appendLe32(out, disp);
            }
            return;
          case InstrClass::IndirectJump:
            out.insert(out.end(), {0xff, 0xe0});
            return;
          case InstrClass::Return:
            out.push_back(0xc3);
            return;
        }
        panic("VariableModel::encode: bad class");
    }

  private:
    static EncodingTable
    makeTable()
    {
        constexpr std::int64_t rel32_min =
            std::numeric_limits<std::int32_t>::min();
        constexpr std::int64_t rel32_max =
            std::numeric_limits<std::int32_t>::max();
        // Non-relaxable classes take any displacement (calls carry
        // theirs in a relocation; the rest have none).
        EncodingTable table;
        fillTable(table, 0, std::numeric_limits<std::int64_t>::min(),
                  std::numeric_limits<std::int64_t>::max());
        const auto set = [&](InstrClass cls, unsigned bytes) {
            table.bytes[static_cast<std::size_t>(cls)].fill(
                static_cast<std::uint8_t>(bytes));
        };
        set(InstrClass::Body, 4);
        set(InstrClass::Call, 5);
        set(InstrClass::IndirectJump, 2);
        set(InstrClass::Return, 1);
        // Relaxable classes: the short form is rel8, any other is rel32.
        const auto branch = [&](InstrClass cls, unsigned near_bytes) {
            const auto c = static_cast<std::size_t>(cls);
            set(cls, near_bytes);
            table.minDisp[c].fill(rel32_min);
            table.maxDisp[c].fill(rel32_max);
            const auto s = static_cast<std::size_t>(BranchForm::Short);
            table.bytes[c][s] = 2;
            table.minDisp[c][s] = -128;
            table.maxDisp[c][s] = 127;
            table.relaxable[c] = true;
        };
        branch(InstrClass::CondBranch, 6);
        branch(InstrClass::Jump, 5);
        return table;
    }
};

}  // namespace

EncodingModel::EncodingModel(const EncodingTable &table) : table_(table)
{
    for (const auto &forms : table_.bytes)
        for (const std::uint8_t bytes : forms)
            table_.maxBytes = std::max(table_.maxBytes, bytes);
}

const char *
branchFormName(BranchForm form)
{
    switch (form) {
      case BranchForm::None: return "none";
      case BranchForm::Short: return "short";
      case BranchForm::Near: return "near";
    }
    return "?";
}

const char *
encodingModelKindName(EncodingModelKind kind)
{
    switch (kind) {
      case EncodingModelKind::FixedWord: return "fixed-word";
      case EncodingModelKind::Variable: return "variable";
    }
    return "?";
}

std::optional<EncodingModelKind>
parseEncodingModelKind(std::string_view name)
{
    if (name == "fixed-word" || name == "fixed" || name == "word")
        return EncodingModelKind::FixedWord;
    if (name == "variable" || name == "var" || name == "x86")
        return EncodingModelKind::Variable;
    return std::nullopt;
}

const std::vector<EncodingModelKind> &
allEncodingModelKinds()
{
    static const std::vector<EncodingModelKind> kinds = {
        EncodingModelKind::FixedWord,
        EncodingModelKind::Variable,
    };
    return kinds;
}

const EncodingModel &
encodingModel(EncodingModelKind kind)
{
    static const FixedWordModel fixed;
    static const VariableModel variable;
    switch (kind) {
      case EncodingModelKind::FixedWord: return fixed;
      case EncodingModelKind::Variable: return variable;
    }
    panic("encodingModel: bad kind");
}

}  // namespace balign
