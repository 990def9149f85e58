/**
 * @file
 * Pluggable instruction-encoding models.
 *
 * The rest of the library addresses in fixed 4-byte instruction words
 * (support/types.h); this module is the seam where that assumption
 * becomes a *model choice*. An EncodingModel maps each laid-out
 * instruction slot (layout/layout_result.h InstrClass) to a byte size
 * given the branch form chosen for it, decides which classes are
 * relaxable (can shrink to a short form when the displacement fits), and
 * encodes the final bytes the ELF writer emits.
 *
 * Two models exist:
 *
 *  - FixedWord: the legacy model. Every slot is exactly kInstrBytes
 *    bytes, nothing is relaxable, and relaxed byte addresses are exactly
 *    4x the word addresses — the invariant the emit test-suite pins so
 *    selecting this model is byte-identical to pre-emit behaviour.
 *  - Variable: an x86-64-flavoured model with short (rel8) and near
 *    (rel32) branch forms. This is what makes fragment relaxation
 *    (emit/relax.h) non-trivial: a branch that fits rel8 saves bytes,
 *    which moves later addresses, which can let further branches shrink.
 *
 * Displacements are measured from the END of the encoded instruction
 * (x86 convention): disp = target byte address - (instr byte address +
 * instr size).
 */

#ifndef BALIGN_EMIT_ENCODING_H
#define BALIGN_EMIT_ENCODING_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "layout/layout_result.h"

namespace balign {

/// The encoding models the library knows.
enum class EncodingModelKind : std::uint8_t {
    FixedWord,  ///< legacy 4-byte words, no relaxation
    Variable,   ///< x86-64-flavoured short/near branch forms
};

/// Branch form chosen for one instruction slot.
enum class BranchForm : std::uint8_t {
    None,   ///< class is not relaxable under the model
    Short,  ///< rel8 form (displacement in [-128, 127])
    Near,   ///< rel32 form
};

/// Printable form name ("none" / "short" / "near").
const char *branchFormName(BranchForm form);

/// Printable kind name ("fixed-word" / "variable").
const char *encodingModelKindName(EncodingModelKind kind);

/// Inverse of encodingModelKindName; nullopt for unknown names.
std::optional<EncodingModelKind>
parseEncodingModelKind(std::string_view name);

/// Every encoding model the library knows.
const std::vector<EncodingModelKind> &allEncodingModelKinds();

/// Number of InstrClass values (rows of an EncodingTable).
inline constexpr std::size_t kNumInstrClasses = 6;

/// Number of BranchForm values (columns of an EncodingTable).
inline constexpr std::size_t kNumBranchForms = 3;

static_assert(static_cast<std::size_t>(InstrClass::Return) + 1 ==
              kNumInstrClasses);
static_assert(static_cast<std::size_t>(BranchForm::Near) + 1 ==
              kNumBranchForms);

/**
 * One model's sizes and displacement ranges by class and form: the data
 * an EncodingModel answers size questions from. A pass that sizes many
 * slots (relaxation, the relaxed-layout verifier) reads it once per call
 * rather than asking the model per slot.
 */
struct EncodingTable
{
    template <typename T>
    using ByClassForm =
        std::array<std::array<T, kNumBranchForms>, kNumInstrClasses>;

    /// Encoded bytes of a class in a form.
    ByClassForm<std::uint8_t> bytes{};

    /// Representable displacements, [minDisp, maxDisp] inclusive.
    ByClassForm<std::int64_t> minDisp{};
    ByClassForm<std::int64_t> maxDisp{};

    /// Classes with distinct short and near forms.
    std::array<bool, kNumInstrClasses> relaxable{};

    /// Largest size of any class in any form (set by EncodingModel).
    std::uint8_t maxBytes = 0;

    unsigned
    size(InstrClass cls, BranchForm form) const
    {
        return bytes[static_cast<std::size_t>(cls)]
                    [static_cast<std::size_t>(form)];
    }

    bool
    fits(InstrClass cls, BranchForm form, std::int64_t disp) const
    {
        const auto c = static_cast<std::size_t>(cls);
        const auto f = static_cast<std::size_t>(form);
        return disp >= minDisp[c][f] && disp <= maxDisp[c][f];
    }

    bool
    isRelaxable(InstrClass cls) const
    {
        return relaxable[static_cast<std::size_t>(cls)];
    }
};

/**
 * One instruction-encoding model. Stateless; obtain the shared instance
 * via encodingModel(). All sizes are in bytes. Sizes, relaxability and
 * displacement ranges come from the model's EncodingTable; a model
 * subclass supplies that table, its name and its encoder.
 */
class EncodingModel
{
  public:
    virtual ~EncodingModel() = default;

    virtual EncodingModelKind kind() const = 0;

    /// Human-readable name ("fixed-word", "variable").
    virtual const char *name() const = 0;

    /// The model's size and displacement table.
    const EncodingTable &table() const { return table_; }

    /**
     * Encoded size of a @p cls slot in @p form. For non-relaxable
     * classes @p form must be BranchForm::None; for relaxable classes it
     * must be Short or Near.
     */
    unsigned
    instrBytes(InstrClass cls, BranchForm form) const
    {
        return table_.size(cls, form);
    }

    /// True when @p cls has distinct short/near forms the relaxation
    /// pass chooses between.
    bool relaxable(InstrClass cls) const { return table_.isRelaxable(cls); }

    /**
     * True when @p disp (bytes, measured from the end of the encoded
     * instruction) is representable by @p cls in @p form.
     */
    bool
    displacementFits(InstrClass cls, BranchForm form,
                     std::int64_t disp) const
    {
        return table_.fits(cls, form, disp);
    }

    /**
     * Appends the encoded bytes of one slot to @p out. @p disp is the
     * final displacement for branch classes and ignored elsewhere; call
     * displacement fields are emitted as zero (a relocation fills them).
     * Appends exactly instrBytes(cls, form) bytes.
     */
    virtual void encode(InstrClass cls, BranchForm form, std::int64_t disp,
                        std::vector<std::uint8_t> &out) const = 0;

    /// The form the relaxation pass starts @p cls at: Short when
    /// relaxable, None otherwise.
    BranchForm
    initialForm(InstrClass cls) const
    {
        return relaxable(cls) ? BranchForm::Short : BranchForm::None;
    }

  protected:
    /// Takes @p table, filling in its maxBytes.
    explicit EncodingModel(const EncodingTable &table);

  private:
    EncodingTable table_;
};

/// Shared immutable instance of the model for @p kind.
const EncodingModel &encodingModel(EncodingModelKind kind);

}  // namespace balign

#endif  // BALIGN_EMIT_ENCODING_H
