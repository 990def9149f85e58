/**
 * @file
 * Branch-alignment algorithm interface (paper §4).
 *
 * An aligner decides, per procedure, which CFG edges become realized
 * fall-throughs (the chain structure). What makes one chain better than
 * another is the pluggable AlignmentObjective (objective/objective.h):
 * the paper's Table-1 cost model by default, or the ExtTSP score. Chain
 * ordering and binary materialization are separate stages
 * (layout/chain_order.h, layout/materialize.h); the program-level driver
 * in align_program.h wires everything together.
 */

#ifndef BALIGN_CORE_ALIGNER_H
#define BALIGN_CORE_ALIGNER_H

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bpred/cost_model.h"
#include "cfg/procedure.h"
#include "layout/chain.h"
#include "layout/chain_order.h"
#include "objective/objective.h"

namespace balign {

/// The alignment algorithms studied in the paper, plus the name of the
/// ExtTSP configuration they are compared against.
enum class AlignerKind : std::uint8_t {
    Original,  ///< identity layout (no reordering)
    Greedy,    ///< Pettis & Hansen bottom-up chaining
    Cost,      ///< greedy chaining guided by the active objective
    Try15,     ///< group-exhaustive search over the hottest edges
    ExtTsp,    ///< Greedy's chains: chain merging by ExtTSP gain
               ///< (arXiv:1809.04676) tied them (DESIGN.md §9.2)
};

/// Printable kind name.
const char *alignerKindName(AlignerKind kind);

/// Inverse of alignerKindName, also accepting tryn and ext-tsp; nullopt
/// for unknown names.
std::optional<AlignerKind> parseAlignerKind(std::string_view name);

/// The aligners the paper studies (including the identity layout). ExtTsp
/// is left out: its layout is Greedy's.
const std::vector<AlignerKind> &allAlignerKinds();

/// Largest TryN group size. The search keeps a group's choices in a
/// 32-bit mask and may visit all 2^N subsets, so 20 keeps a group's worst
/// case near a million leaves.
inline constexpr std::size_t kMaxTry15GroupSize = 20;

/// Options shared by the aligners and the program driver.
struct AlignOptions
{
    /// Objective the Cost/TryN chain searches and the per-procedure
    /// fallback splice price decisions under (objective/objective.h).
    ObjectiveKind objective = ObjectiveKind::TableCost;

    /// Chain concatenation policy (paper §6.1; hot-first everywhere except
    /// under BT/FNT, where archAlignOptions substitutes the precedence
    /// ordering).
    ChainOrderPolicy chainOrder = ChainOrderPolicy::HotFirst;

    /// Group size for the TryN search (paper: 15; 10 is slightly worse but
    /// faster), in [1, kMaxTry15GroupSize].
    std::size_t groupSize = 15;

    /**
     * Prove every produced layout semantically equivalent to the source
     * program before returning it (verify/verify.h). The check is linear
     * in program size and panics naming the first violated obligation, so
     * an aligner bug can never silently reach a simulation. Tools that
     * want failures as findings instead of crashes (the differ, lint, the
     * verify sweep itself) turn it off.
     */
    bool verify = true;
};

/**
 * Estimated Table-1 branch cost (cycles) of block @p id given its current
 * chain successor @p next (kNoBlock when unlinked) and chain predecessor
 * @p prev. Compatibility shim for TableCostObjective::blockCost — see
 * objective/table_cost.h for the semantics.
 */
double blockAlignCost(const Procedure &proc, const CostModel &model,
                      BlockId id, BlockId next,
                      const DirOracle &oracle = DirOracle(),
                      BlockId prev = kNoBlock);

/**
 * The shared edge ordering: alignable (Taken / FallThrough) edges sorted by
 * decreasing weight, ties broken by ascending edge index for determinism.
 * Returns edge indices.
 */
std::vector<std::uint32_t> alignableEdgesByWeight(const Procedure &proc);

/// Alignment algorithm interface: produces the chain structure of one
/// procedure.
class Aligner
{
  public:
    virtual ~Aligner() = default;

    /// Human-readable name ("greedy", "cost", "try15").
    virtual std::string name() const = 0;

    /// Builds chains for @p proc from its edge profile, with direction
    /// hints from @p oracle (cost-aware aligners only). @p by_weight is
    /// alignableEdgesByWeight(proc); a caller that runs several aligners
    /// on one procedure sorts its edges once and passes the order to each.
    virtual ChainSet
    alignProc(const Procedure &proc, const DirOracle &oracle,
              const std::vector<std::uint32_t> &by_weight) const = 0;

    /// Convenience: sorts the edges itself.
    ChainSet
    alignProc(const Procedure &proc, const DirOracle &oracle) const
    {
        return alignProc(proc, oracle, alignableEdgesByWeight(proc));
    }

    /// Convenience: id-based direction hints.
    ChainSet
    alignProc(const Procedure &proc) const
    {
        return alignProc(proc, DirOracle());
    }

    /// True when the materializer should use the architecture cost model
    /// (Cost and TryN under the Table-1 objective; Greedy and any
    /// arch-independent objective are cost-blind).
    virtual bool wantsCostModelMaterialization() const = 0;

    /// True when this aligner optimizes an objective, so the driver's
    /// per-procedure fallback splice applies (never-worse-than-Greedy
    /// under the active objective).
    virtual bool objectiveGuided() const
    {
        return wantsCostModelMaterialization();
    }
};

/**
 * Creates an aligner. The objective selected by @p options.objective
 * guides Cost and TryN; @p model may be null except under the Table-1
 * objective for those kinds. The model must outlive the aligner.
 */
std::unique_ptr<Aligner> makeAligner(AlignerKind kind, const CostModel *model,
                                     const AlignOptions &options = {});

}  // namespace balign

#endif  // BALIGN_CORE_ALIGNER_H
