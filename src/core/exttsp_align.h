/**
 * @file
 * ExtTSP chain-merging aligner (Newell & Pupyrev, arXiv:1809.04676, §3).
 *
 * Bottom-up chain merging in the style of Pettis-Hansen, but ranked by the
 * ExtTSP gain of each merge instead of raw edge weight: concatenating
 * chain B after chain A realizes the seeding edge tail(A) -> head(B) as a
 * fallthrough AND fixes the relative distance of every other CFG edge
 * crossing the two chains, whose short-jump bonuses are credited to the
 * merge. Merges are committed greedily by decreasing gain until no
 * alignable edge can seed a further merge; since intra-chain distances are
 * unchanged by concatenation, each merge's gain is exactly the cross-edge
 * score it creates.
 *
 * Two deterministic tie-breaks keep layouts reproducible: equal-gain
 * merges commit in the shared alignableEdgesByWeight order, and a
 * conditional block whose BOTH out-edges could seed a merge only offers
 * its heavier edge (the lighter one stays available if the heavier
 * becomes infeasible) — the fallthrough term dominates the ExtTSP score,
 * so the hot side of every branch is laid out adjacent first, exactly as
 * the Greedy baseline would.
 */

#ifndef BALIGN_CORE_EXTTSP_ALIGN_H
#define BALIGN_CORE_EXTTSP_ALIGN_H

#include "core/aligner.h"
#include "objective/exttsp.h"

namespace balign {

class ExtTspAligner : public Aligner
{
  public:
    ExtTspAligner() = default;
    explicit ExtTspAligner(const ExtTspParams &params) : params_(params) {}

    std::string name() const override { return "exttsp"; }
    using Aligner::alignProc;
    ChainSet alignProc(const Procedure &proc, const DirOracle &oracle,
                       const std::vector<std::uint32_t> &by_weight)
        const override;
    /// Classic (cost-blind) materialization, like Greedy: ExtTSP knows
    /// nothing about Table-1 realization costs.
    bool wantsCostModelMaterialization() const override { return false; }
    bool objectiveGuided() const override { return true; }

    const ExtTspParams &params() const { return params_; }

  private:
    ExtTspParams params_;
};

}  // namespace balign

#endif  // BALIGN_CORE_EXTTSP_ALIGN_H
