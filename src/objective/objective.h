/**
 * @file
 * Pluggable alignment objectives.
 *
 * The paper's aligners optimize exactly one quantity — the Table-1
 * architectural branch cost — but that is a property of the *objective*,
 * not of the chaining algorithms. AlignmentObjective is the seam: it
 * prices a single edge-alignment decision (what the Cost and TryN chain
 * searches consult), prices a whole realized procedure layout (what the
 * greedy-fallback splice and lint's cost.monotone rule consult), and
 * reports whether those prices depend on the target architecture (what
 * the experiment matrix uses to share layouts across architectures).
 *
 * Two implementations exist:
 *
 *  - TableCostObjective (objective/table_cost.h): the paper's Table-1
 *    cost model, byte-for-byte the pre-refactor behaviour.
 *  - ExtTspObjective (objective/exttsp.h): the distance-aware ExtTSP
 *    score of Newell & Pupyrev, "Improved Basic Block Reordering"
 *    (arXiv:1809.04676), architecture-independent.
 *
 * Every objective is a COST (lower is better); score-maximizing
 * objectives return the negated score. Both prices are purely
 * intra-procedural (they read only same-procedure edges and addresses),
 * which is what makes the per-procedure fallback splice in
 * core/align_program.cc exact for any objective (DESIGN.md §9).
 */

#ifndef BALIGN_OBJECTIVE_OBJECTIVE_H
#define BALIGN_OBJECTIVE_OBJECTIVE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cfg/program.h"
#include "layout/chain.h"
#include "layout/layout_result.h"
#include "layout/realization.h"
#include "support/types.h"

namespace balign {

class CostModel;

/// The objectives an aligner can optimize.
enum class ObjectiveKind : std::uint8_t {
    TableCost,  ///< paper Table-1 architectural branch cost (cycles)
    ExtTsp,     ///< negated ExtTSP layout score (arXiv:1809.04676)
    SizeAware,  ///< Table-1 cost + encoded-byte pressure (emit/relax.h)
};

/// Printable kind name ("table-cost" / "exttsp" / "size-aware").
const char *objectiveKindName(ObjectiveKind kind);

/// Inverse of objectiveKindName; nullopt for unknown names.
std::optional<ObjectiveKind> parseObjectiveKind(std::string_view name);

/// Every objective the library knows.
const std::vector<ObjectiveKind> &allObjectiveKinds();

/// Whether layouts priced under @p kind depend on the architecture's cost
/// model (true for TableCost and SizeAware).
bool objectiveArchDependent(ObjectiveKind kind);

/**
 * Direction oracle for alignment-time cost estimation. Without a position
 * table it falls back to original block ids (approximate source order); a
 * position table from a previous layout iteration gives exact hints for
 * that layout.
 *
 * When a live ChainSet is attached (withChains), blocks already placed in
 * the same chain are resolved from their relative chain order, which is
 * definitive: links never reorder within a chain, so whatever the final
 * chain concatenation does, a same-chain target before its branch stays
 * backward. This is what lets the chain searches price a loop-rotation
 * decision correctly — the id/position fallbacks predate the rotation and
 * point the wrong way (paper §6: directions are circular until placed).
 */
class DirOracle
{
  public:
    DirOracle() = default;
    explicit DirOracle(const std::vector<std::uint32_t> *positions)
        : positions_(positions)
    {
    }

    /// A copy of this oracle that resolves same-chain queries from
    /// @p chains first. The ChainSet must outlive the returned oracle and
    /// may keep mutating (queries read its current state).
    DirOracle
    withChains(const ChainSet *chains) const
    {
        DirOracle oracle = *this;
        oracle.chains_ = chains;
        return oracle;
    }

    DirHint
    dir(BlockId target, BlockId src) const
    {
        if (chains_ != nullptr && target != src) {
            // Bounded walks keep a blockCost query O(1): beyond the
            // budget (long chains) this degrades to the fallback hint.
            constexpr unsigned kChainWalkBudget = 64;
            BlockId b = chains_->next(target);
            for (unsigned i = 0; i < kChainWalkBudget && b != kNoBlock;
                 ++i, b = chains_->next(b)) {
                if (b == src)
                    return DirHint::Backward;
            }
            b = chains_->next(src);
            for (unsigned i = 0; i < kChainWalkBudget && b != kNoBlock;
                 ++i, b = chains_->next(b)) {
                if (b == target)
                    return DirHint::Forward;
            }
        }
        if (positions_ == nullptr)
            return target <= src ? DirHint::Backward : DirHint::Forward;
        return (*positions_)[target] <= (*positions_)[src]
                   ? DirHint::Backward
                   : DirHint::Forward;
    }

  private:
    const std::vector<std::uint32_t> *positions_ = nullptr;
    const ChainSet *chains_ = nullptr;
};

/**
 * One alignment objective: prices edge-alignment decisions during chain
 * construction and whole realized layouts after materialization. Lower is
 * better for both prices; the two need not share units across objectives
 * (cycles for TableCost, negated score units for ExtTsp) — callers never
 * mix prices from different objectives.
 */
class AlignmentObjective
{
  public:
    virtual ~AlignmentObjective() = default;

    /// Human-readable name ("table-cost", "exttsp").
    virtual std::string name() const = 0;

    /// The enum tag of this objective.
    virtual ObjectiveKind kind() const = 0;

    /// True when prices depend on the architecture cost model, so layouts
    /// guided by this objective must be rebuilt per architecture.
    virtual bool archDependent() const = 0;

    /**
     * Cost model the materializer should use for realization decisions
     * under this objective, or null for the classic cost-blind
     * materializer (architecture-independent objectives).
     */
    virtual const CostModel *materializationModel() const { return nullptr; }

    /**
     * Price (lower is better) of block @p id given its current chain
     * successor @p next (kNoBlock when unlinked) and chain predecessor
     * @p prev, with direction hints from @p oracle. This is the quantity
     * the Cost and TryN chain searches sum and minimize.
     */
    virtual double blockCost(const Procedure &proc, BlockId id, BlockId next,
                             const DirOracle &oracle = DirOracle(),
                             BlockId prev = kNoBlock) const = 0;

    /**
     * A value blockCost(proc, id, ...) never goes below, whatever the
     * chain successor, chain predecessor and direction hints. The TryN
     * search subtracts each undecided block's distance to its floor from
     * the running cost to bound a subtree (core/try15.cc), so a floor
     * that is too high would silently change layouts.
     */
    virtual double blockCostFloor(const Procedure &proc,
                                  BlockId id) const = 0;

    /**
     * Price of one procedure's realized layout, recomputed from final
     * addresses (independent of any aligner bookkeeping). Must be purely
     * intra-procedural: invariant under rebasing the procedure, so summing
     * per-procedure minima is exact (the fallback splice relies on this).
     */
    virtual double layoutCost(const Procedure &proc,
                              const ProcLayout &layout) const = 0;

    /// Whole-program price: the sum of the per-procedure prices.
    double layoutCost(const Program &program,
                      const ProgramLayout &layout) const;
};

/**
 * Creates the objective for @p kind. @p model is required for TableCost
 * (fatal when null) and ignored by architecture-independent objectives;
 * it must outlive the returned objective.
 */
std::unique_ptr<AlignmentObjective> makeObjective(ObjectiveKind kind,
                                                  const CostModel *model);

}  // namespace balign

#endif  // BALIGN_OBJECTIVE_OBJECTIVE_H
