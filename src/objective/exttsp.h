/**
 * @file
 * The ExtTSP layout objective of Newell & Pupyrev, "Improved Basic Block
 * Reordering" (arXiv:1809.04676), behind the AlignmentObjective interface.
 *
 * ExtTSP generalizes the classic maximum-fallthrough TSP formulation: a
 * realized control transfer over edge (s, t) with weight w contributes
 *
 *   w * 1.0                           when t is layout-adjacent (fallthrough)
 *   w * 0.1 * (1 - d / 1024)          short forward jump, distance d < 1024
 *   w * 0.1 * (1 - d / 640)           short backward jump, distance d < 640
 *   0                                 otherwise
 *
 * where d is the distance from the end of the transfer instruction to the
 * target block's start. The paper measures d in bytes; this model has no
 * byte sizes, so d and the windows are in instruction words (every
 * instruction is one word here — the windows keep the paper's constants
 * and simply assume 1-byte instructions, preserving the shape of the
 * decay). The score is a MAXIMIZED quantity; the objective price is its
 * negation so that, like every AlignmentObjective, lower is better.
 *
 * ExtTSP reads only intra-procedural distances, so it is invariant under
 * procedure rebasing and architecture-independent: one ExtTSP-guided
 * layout serves all eight architectures (modulo the BT/FNT chain-order
 * override, which is a chain-ordering policy, not an objective).
 */

#ifndef BALIGN_OBJECTIVE_EXTTSP_H
#define BALIGN_OBJECTIVE_EXTTSP_H

#include <cstdint>
#include <string>

#include "objective/objective.h"

namespace balign {

/// Weight of a realized fallthrough transfer (the paper's value).
inline constexpr double kExtTspFallthroughWeight = 1.0;
/// Peak weight of a short forward jump (decays linearly with distance).
inline constexpr double kExtTspForwardJumpWeight = 0.1;
/// Peak weight of a short backward jump.
inline constexpr double kExtTspBackwardJumpWeight = 0.1;
/// Forward jump window in instruction words (score is 0 at and beyond).
inline constexpr std::uint32_t kExtTspForwardWindow = 1024;
/// Backward jump window in instruction words.
inline constexpr std::uint32_t kExtTspBackwardWindow = 640;

/**
 * Score of one realized jump (non-adjacent transfer) with weight @p weight
 * from the instruction END address @p source (branch address + 1) to block
 * start @p target. Adjacent fallthroughs are NOT priced here — callers
 * detect adjacency from the realization record and apply
 * kExtTspFallthroughWeight.
 */
double extTspJumpScore(Addr source, Addr target, Weight weight);

/// ExtTSP score of one realized procedure layout (higher is better).
double extTspScore(const Procedure &proc, const ProcLayout &layout);

/// ExtTSP score of a whole program layout.
double extTspScore(const Program &program, const ProgramLayout &layout);

class ExtTspObjective : public AlignmentObjective
{
  public:
    std::string name() const override { return "exttsp"; }
    ObjectiveKind kind() const override { return ObjectiveKind::ExtTsp; }
    bool archDependent() const override { return false; }

    /**
     * Decision price: the negated fallthrough gain of the realized link
     * (distance bonuses are unknowable before chains are placed, so an
     * unlinked block prices at 0). Direction hints are irrelevant to
     * ExtTSP and ignored.
     */
    double blockCost(const Procedure &proc, BlockId id, BlockId next,
                     const DirOracle &oracle = DirOracle(),
                     BlockId prev = kNoBlock) const override;

    /// Every out-edge realized as a fallthrough at once.
    double blockCostFloor(const Procedure &proc,
                          BlockId id) const override;

    /// Negated extTspScore of the realized layout.
    double layoutCost(const Procedure &proc,
                      const ProcLayout &layout) const override;
    using AlignmentObjective::layoutCost;
};

}  // namespace balign

#endif  // BALIGN_OBJECTIVE_EXTTSP_H
