/**
 * @file
 * Branch-architecture identifiers and penalty parameters.
 *
 * The paper evaluates three static and four dynamic configurations, all
 * with a one-cycle misfetch penalty and a four-cycle mispredict penalty
 * (paper §6), plus a 32-entry return stack.
 */

#ifndef BALIGN_BPRED_ARCH_H
#define BALIGN_BPRED_ARCH_H

#include <cstdint>
#include <optional>
#include <string_view>

namespace balign {

/// The branch prediction architectures studied in the paper.
enum class Arch : std::uint8_t {
    Fallthrough,    ///< always predict the fall-through path
    BtFnt,          ///< backward taken, forward not taken
    Likely,         ///< profile-set likely/unlikely bit per branch
    PhtDirect,      ///< 4096-entry direct-mapped PHT, 2-bit counters
    PhtCorrelated,  ///< 4096-entry gshare PHT (addr XOR 12-bit history)
    PhtLocal,       ///< two-level per-branch history (Yeh-Patt PAg),
                    ///< an extension beyond the paper's Table 4
    BtbSmall,       ///< 64-entry 2-way BTB, 2-bit counters
    BtbLarge,       ///< 256-entry 4-way BTB, 2-bit counters (Pentium-like)
};

/// Printable architecture name.
const char *archName(Arch arch);

/// The architecture a command-line name selects: fallthrough, btfnt,
/// likely, pht, gshare, btb-small, btb-large (or btb); nullopt for
/// anything else.
std::optional<Arch> parseArch(std::string_view name);

/// True for the table-based direction predictors.
inline bool
isPht(Arch arch)
{
    return arch == Arch::PhtDirect || arch == Arch::PhtCorrelated ||
           arch == Arch::PhtLocal;
}

/// True for the branch-target-buffer architectures.
inline bool
isBtb(Arch arch)
{
    return arch == Arch::BtbSmall || arch == Arch::BtbLarge;
}

/// True for the purely static architectures.
inline bool
isStatic(Arch arch)
{
    return arch == Arch::Fallthrough || arch == Arch::BtFnt ||
           arch == Arch::Likely;
}

/// Pipeline penalties (cycles), paper §6.
struct Penalties
{
    double misfetch = 1.0;
    double mispredict = 4.0;
};

}  // namespace balign

#endif  // BALIGN_BPRED_ARCH_H
