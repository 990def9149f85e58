#include "bpred/cost_model.h"

#include "support/log.h"

namespace balign {

const char *
archName(Arch arch)
{
    switch (arch) {
      case Arch::Fallthrough: return "FALLTHROUGH";
      case Arch::BtFnt: return "BT/FNT";
      case Arch::Likely: return "LIKELY";
      case Arch::PhtDirect: return "PHT-direct";
      case Arch::PhtCorrelated: return "PHT-correlated";
      case Arch::PhtLocal: return "PHT-local";
      case Arch::BtbSmall: return "BTB-64x2";
      case Arch::BtbLarge: return "BTB-256x4";
    }
    return "?";
}

std::optional<Arch>
parseArch(std::string_view name)
{
    if (name == "fallthrough")
        return Arch::Fallthrough;
    if (name == "btfnt")
        return Arch::BtFnt;
    if (name == "likely")
        return Arch::Likely;
    if (name == "pht")
        return Arch::PhtDirect;
    if (name == "gshare")
        return Arch::PhtCorrelated;
    if (name == "btb-small")
        return Arch::BtbSmall;
    if (name == "btb-large" || name == "btb")
        return Arch::BtbLarge;
    return std::nullopt;
}

const std::vector<Arch> &
allArchs()
{
    static const std::vector<Arch> archs = {
        Arch::Fallthrough, Arch::BtFnt,     Arch::Likely,
        Arch::PhtDirect,   Arch::PhtCorrelated, Arch::PhtLocal,
        Arch::BtbSmall,    Arch::BtbLarge,
    };
    return archs;
}

const char *
condRealizationName(CondRealization realization)
{
    switch (realization) {
      case CondRealization::FallAdjacent: return "fall-adjacent";
      case CondRealization::TakenAdjacent: return "taken-adjacent";
      case CondRealization::NeitherJumpToFall: return "neither/jump-to-fall";
      case CondRealization::NeitherJumpToTaken:
        return "neither/jump-to-taken";
    }
    return "?";
}

Arch
costClass(Arch arch)
{
    if (isPht(arch))
        return Arch::PhtDirect;
    if (isBtb(arch))
        return Arch::BtbSmall;
    return arch;
}

CostModel::CostModel(Arch arch, const Params &params)
    : arch_(arch), params_(params)
{
}

double
CostModel::uncondCost() const
{
    // Base: the branch instruction itself.
    const double instr = 1.0;
    if (isBtb(arch_)) {
        // On a BTB hit the target is fetched without a bubble; only the
        // btbMissRate fraction pays the misfetch penalty.
        return instr + params_.btbMissRate * params_.penalties.misfetch;
    }
    return instr + params_.penalties.misfetch;
}

double
CostModel::staticCondCost(bool realized_taken, bool predicted_taken) const
{
    const double instr = 1.0;
    if (realized_taken != predicted_taken)
        return instr + params_.penalties.mispredict;
    // Correct prediction: a taken branch still misfetches (the sequential
    // instruction was fetched while the branch decoded).
    return realized_taken ? instr + params_.penalties.misfetch : instr;
}

double
CostModel::condCost(double w_taken, double w_fall, DirHint taken_dir) const
{
    switch (arch_) {
      case Arch::Fallthrough:
        // Always predicted not-taken.
        return w_taken * staticCondCost(true, false) +
               w_fall * staticCondCost(false, false);
      case Arch::BtFnt: {
        const bool predicted_taken = taken_dir == DirHint::Backward;
        return w_taken * staticCondCost(true, predicted_taken) +
               w_fall * staticCondCost(false, predicted_taken);
      }
      case Arch::Likely: {
        const bool likely_taken = w_taken > w_fall;
        return w_taken * staticCondCost(true, likely_taken) +
               w_fall * staticCondCost(false, likely_taken);
      }
      case Arch::PhtDirect:
      case Arch::PhtCorrelated:
      case Arch::PhtLocal: {
        // Paper §6: assume conditionals mispredict dynMispredictRate of the
        // time, regardless of layout; taken branches still pay the misfetch
        // when correctly predicted.
        const double good = 1.0 - params_.dynMispredictRate;
        const double taken_cost = good * staticCondCost(true, true) +
                                  params_.dynMispredictRate *
                                      staticCondCost(true, false);
        const double fall_cost = good * staticCondCost(false, false) +
                                 params_.dynMispredictRate *
                                     staticCondCost(false, true);
        return w_taken * taken_cost + w_fall * fall_cost;
      }
      case Arch::BtbSmall:
      case Arch::BtbLarge: {
        // Paper §6.1: correctly predicted taken branches misfetch only on
        // the btbMissRate fraction of executions.
        const double good = 1.0 - params_.dynMispredictRate;
        const double hit = 1.0 - params_.btbMissRate;
        const double taken_correct =
            1.0 + (1.0 - hit) * params_.penalties.misfetch;
        const double taken_cost =
            good * taken_correct +
            params_.dynMispredictRate * (1.0 + params_.penalties.mispredict);
        const double fall_cost =
            good * 1.0 +
            params_.dynMispredictRate * (1.0 + params_.penalties.mispredict);
        return w_taken * taken_cost + w_fall * fall_cost;
      }
    }
    panic("condCost: bad arch");
}

double
CostModel::condRealizationCost(Weight w_taken_edge, Weight w_fall_edge,
                               CondRealization realization, DirHint dir_taken,
                               DirHint dir_fall) const
{
    const auto wt = static_cast<double>(w_taken_edge);
    const auto wf = static_cast<double>(w_fall_edge);
    switch (realization) {
      case CondRealization::FallAdjacent:
        // CFG taken edge realized as branch-taken; fall edge falls through.
        return condCost(wt, wf, dir_taken);
      case CondRealization::TakenAdjacent:
        // Inverted: CFG fall edge realized as branch-taken.
        return condCost(wf, wt, dir_fall);
      case CondRealization::NeitherJumpToFall:
        // Branch to the taken target; jump (executed w_fall times) to the
        // fall target.
        return condCost(wt, wf, dir_taken) + wf * uncondCost();
      case CondRealization::NeitherJumpToTaken:
        // Inverted branch to the fall target; jump (executed w_taken
        // times) to the taken target.
        return condCost(wf, wt, dir_fall) + wt * uncondCost();
    }
    panic("condRealizationCost: bad realization");
}

CondRealization
CostModel::bestNeitherRealization(Weight w_taken_edge, Weight w_fall_edge,
                                  DirHint dir_taken, DirHint dir_fall) const
{
    const double to_fall =
        condRealizationCost(w_taken_edge, w_fall_edge,
                            CondRealization::NeitherJumpToFall, dir_taken,
                            dir_fall);
    const double to_taken =
        condRealizationCost(w_taken_edge, w_fall_edge,
                            CondRealization::NeitherJumpToTaken, dir_taken,
                            dir_fall);
    return to_taken < to_fall ? CondRealization::NeitherJumpToTaken
                              : CondRealization::NeitherJumpToFall;
}

}  // namespace balign
