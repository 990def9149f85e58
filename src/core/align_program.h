/**
 * @file
 * Program-level alignment driver: runs an alignment algorithm over every
 * procedure (the paper aligns each procedure independently; no procedure
 * splitting or reordering), orders the chains, and materializes the final
 * binary layout.
 */

#ifndef BALIGN_CORE_ALIGN_PROGRAM_H
#define BALIGN_CORE_ALIGN_PROGRAM_H

#include <functional>
#include <optional>
#include <vector>

#include "cfg/program.h"
#include "core/aligner.h"
#include "layout/layout_result.h"

namespace balign {

/**
 * Aligns @p program for the architecture described by @p model.
 *
 * @param kind which algorithm (Original returns the identity layout)
 * @param model architecture cost model (unused by Original/Greedy)
 * @param options algorithm and chain-ordering options
 */
ProgramLayout alignProgram(const Program &program, AlignerKind kind,
                           const CostModel *model,
                           const AlignOptions &options = {});

/**
 * @p options as the paper aligns for @p arch (§6.1): BT/FNT replaces
 * options.chainOrder with the Pettis–Hansen precedence ordering, every
 * other architecture keeps it. The one statement of that rule.
 */
AlignOptions archAlignOptions(Arch arch, AlignOptions options);

/**
 * Aligns @p program for @p arch: alignProgram under CostModel(arch) with
 * archAlignOptions(arch, options). Every experiment cell, tool and check
 * that lays a program out for an architecture calls this, so they all
 * agree on what that layout is.
 */
ProgramLayout alignForArch(const Program &program, AlignerKind kind,
                           Arch arch, const AlignOptions &options = {});

/**
 * What sets a configuration's layout apart. For one program and one set of
 * AlignOptions, configurations with equal classes get the same layout, so
 * runConfigs aligns each class once, and forEachSweptLayout aligns each
 * once and serves every architecture of it. The class of (kind,
 * objective, arch), from layoutClass:
 *  - BT/FNT orders chains by its own precedence (§6.1), so its
 *    layouts serve BT/FNT alone;
 *  - Cost and Try15 under an architecture-dependent (Table-1) objective
 *    price through the cost model, so they get one layout per costClass;
 *  - every other layout serves every non-BT/FNT architecture;
 *  - ExtTsp lays out Greedy's chains, so it is classed as Greedy, and an
 *    aligner no objective guides (Original, Greedy) is classed under
 *    TableCost whatever the objective.
 */
struct LayoutClass
{
    AlignerKind kind = AlignerKind::Original;
    ObjectiveKind objective = ObjectiveKind::TableCost;
    /// The serving architecture class, named by its costClass (or
    /// BtFnt); nullopt for every non-BT/FNT architecture.
    std::optional<Arch> arch;

    auto operator<=>(const LayoutClass &) const = default;
};

/// The class of the layout @p kind aligns under @p objective for @p arch.
LayoutClass layoutClass(AlignerKind kind, ObjectiveKind objective,
                        Arch arch);

/**
 * The configuration matrix a check aligns a program under: lint, verify,
 * the differential oracle and the fuzzer's gates each hold one and
 * enumerate it with forEachSweptLayout.
 */
struct ConfigSweep
{
    /// Architectures (empty = all eight).
    std::vector<Arch> archs;
    /// Aligners (empty = Original, Greedy, Cost, Try15).
    std::vector<AlignerKind> kinds;
    /// Objectives (empty = just align.objective).
    std::vector<ObjectiveKind> objectives;
    /// Alignment options; each configuration sets its own objective,
    /// turns the verifier off and applies archAlignOptions on top.
    AlignOptions align;

    /// @c archs with its empty-list default resolved.
    const std::vector<Arch> &sweptArchs() const;
    /// @c kinds with its empty-list default resolved.
    const std::vector<AlignerKind> &sweptKinds() const;
    /// @c objectives with its empty-list default resolved.
    std::vector<ObjectiveKind> sweptObjectives() const;
};

/// One configuration of a ConfigSweep, as forEachSweptLayout aligned it.
struct SweepConfig
{
    ObjectiveKind objective = ObjectiveKind::TableCost;
    /// The architecture the layout was aligned for: the first swept
    /// architecture of its layoutClass.
    Arch arch = Arch::Fallthrough;
    AlignerKind kind = AlignerKind::Original;
    /// The options the layout was aligned with (alignProgram under
    /// CostModel(arch) with these reproduces it).
    AlignOptions align;

    /// layoutClass of this configuration.
    LayoutClass layoutClass() const;
    /// Whether @p target is served by this layout: it has the same
    /// layoutClass as @c arch.
    bool serves(Arch target) const;
    /// The architecture a report names: empty when the layout serves
    /// every non-BT/FNT architecture, else archName(arch).
    const char *archContext() const;
};

/// Called per swept layout; returning true stops the sweep.
using SweepVisitor =
    std::function<bool(const SweepConfig &, ProgramLayout &)>;

/**
 * Aligns @p program once per objective, aligner and layoutClass of
 * @p sweep, in the order objective, architecture, aligner, with
 * alignForArch and the verifier off (a check reports a broken layout, it
 * does not panic on it), and hands each layout to @p visit. A class is
 * aligned at its first swept architecture and serves() the rest. Returns
 * true when @p visit stopped the sweep.
 */
bool forEachSweptLayout(const Program &program, const ConfigSweep &sweep,
                        const SweepVisitor &visit);

/**
 * The per-procedure pipeline behind alignProgram and realignProgram. For
 * each procedure of @p ids, in that order: the aligner's chains,
 * orderChains, materializeProc; then, for an objective-guided aligner
 * whose objective can be priced, the Greedy layout instead wherever the
 * objective prices it strictly cheaper (DESIGN.md §9.4). The procedures
 * are laid out back to back from address 0. Nothing is verified here.
 */
std::vector<ProcLayout> alignProcs(const Program &program,
                                   const std::vector<ProcId> &ids,
                                   AlignerKind kind, const CostModel *model,
                                   const AlignOptions &options);

}  // namespace balign

#endif  // BALIGN_CORE_ALIGN_PROGRAM_H
