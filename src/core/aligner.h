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

#include "bpred/cost_model.h"
#include "cfg/procedure.h"
#include "layout/chain.h"
#include "layout/chain_order.h"
#include "objective/objective.h"

namespace balign {

/// The alignment algorithms studied in the paper, plus the modern ExtTSP
/// chain merger they are compared against.
enum class AlignerKind : std::uint8_t {
    Original,  ///< identity layout (no reordering)
    Greedy,    ///< Pettis & Hansen bottom-up chaining
    Cost,      ///< greedy chaining guided by the active objective
    Try15,     ///< group-exhaustive search over the hottest edges
    ExtTsp,    ///< chain merging by ExtTSP gain (arXiv:1809.04676)
};

/// Printable kind name.
const char *alignerKindName(AlignerKind kind);

/// Inverse of alignerKindName, also accepting tryn and ext-tsp; nullopt
/// for unknown names.
std::optional<AlignerKind> parseAlignerKind(std::string_view name);

/**
 * Which profile the aligners consume. Measured uses whatever edge
 * weights the program carries (the walker's true profile, or a degraded
 * one the driver prepared — degradation is a program transform, not an
 * alignment-time choice). Estimated discards the carried weights and
 * aligns against the static profile synthesized by estimate/estimate.h:
 * profile-free alignment, the `none` endpoint of the robustness axis.
 */
enum class ProfileSource : std::uint8_t {
    Measured,
    Estimated,
};

/// Printable source name ("measured" / "estimated").
const char *profileSourceName(ProfileSource source);

/// Options shared by the aligners and the program driver.
struct AlignOptions
{
    /// Objective the Cost/TryN chain searches and the per-procedure
    /// fallback splice price decisions under (objective/objective.h).
    ObjectiveKind objective = ObjectiveKind::TableCost;

    /// Chain concatenation policy (paper §6.1; hot-first is the default
    /// used for all simulations except the dedicated BT/FNT ordering).
    ChainOrderPolicy chainOrder = ChainOrderPolicy::HotFirst;

    /// Group size for the TryN search (paper: 15; 10 is slightly worse but
    /// faster).
    std::size_t groupSize = 15;

    /// TryN ignores edges executed fewer than this many times (paper §4:
    /// "we only examined edges that were executed more than once").
    Weight minEdgeWeight = 2;

    /// TryN considers at most this cumulative weight fraction of the
    /// considered edges (paper §4 suggests 99% as a further speedup; 1.0
    /// disables the cut).
    double coverageFraction = 1.0;

    /// Safety valve for enormous procedures: maximum number of TryN groups
    /// per procedure (0 = unlimited).
    std::size_t maxGroups = 0;

    /**
     * Direction-refinement iterations for cost-aware aligners (>= 1).
     * BT/FNT costs depend on branch direction, which is circular: it is
     * only known after placement (paper §6). With more than one
     * iteration, alignment is repeated using the previous iteration's
     * layout positions as direction hints, which recovers rotations the
     * id-based hints undervalue.
     */
    unsigned directionIterations = 1;

    /**
     * Profile the alignment consumes. Under Estimated the program driver
     * re-profiles a copy of the program with the static estimator before
     * aligning, so the caller's measured weights are never consulted.
     */
    ProfileSource profileSource = ProfileSource::Measured;

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

/// Alignment algorithm interface: produces the chain structure of one
/// procedure.
class Aligner
{
  public:
    virtual ~Aligner() = default;

    /// Human-readable name ("greedy", "cost", "try15", "exttsp").
    virtual std::string name() const = 0;

    /// Builds chains for @p proc from its edge profile, with direction
    /// hints from @p oracle (cost-aware aligners only).
    virtual ChainSet alignProc(const Procedure &proc,
                               const DirOracle &oracle) const = 0;

    /// Convenience: id-based direction hints.
    ChainSet
    alignProc(const Procedure &proc) const
    {
        return alignProc(proc, DirOracle());
    }

    /// True when the materializer should use the architecture cost model
    /// (Cost and TryN under the Table-1 objective; Greedy, ExtTSP and any
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
