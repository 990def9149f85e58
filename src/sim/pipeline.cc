#include "sim/pipeline.h"

#include <cmath>

#include "bpred/static_pred.h"

namespace balign {

Alpha21064Model::Alpha21064Model(const Program &program,
                                 const ProgramLayout &layout)
    : adapter_(program, layout, *this),
      icache_(kICacheBytes, kICacheLineBytes),
      ras_(kRasEntries),
      slots_(kICacheBytes / kInstrBytes, SlotState::Cold)
{
}

void
Alpha21064Model::onInstrs(std::uint64_t count)
{
    instrs_ += count;
}

void
Alpha21064Model::onFetchRange(Addr addr, std::uint32_t count)
{
    if (count == 0)
        return;
    const std::size_t per_line = icache_.instrsPerLine();
    const Addr first = addr / per_line;
    const Addr last = (addr + count - 1) / per_line;
    for (Addr line = first; line <= last; ++line) {
        const Addr line_base = line * per_line;
        if (icache_.access(line_base))
            continue;
        // Line fill: the per-instruction history bits reinitialize.
        for (std::size_t i = 0; i < per_line; ++i)
            slots_[slotIndex(line_base + i)] = SlotState::Cold;
    }
}

void
Alpha21064Model::onBranch(const BranchEvent &event)
{
    switch (event.type) {
      case BranchEvent::Type::Cond: {
        ++condExec_;
        SlotState &slot = slots_[slotIndex(event.site)];
        bool predicted_taken;
        switch (slot) {
          case SlotState::Cold:
            // Fresh line: static prediction from the displacement sign.
            predicted_taken = btFntPredictsTaken(event.site, event.target);
            break;
          case SlotState::Taken:
            predicted_taken = true;
            break;
          case SlotState::NotTaken:
          default:
            predicted_taken = false;
            break;
        }
        slot = event.taken ? SlotState::Taken : SlotState::NotTaken;
        if (predicted_taken != event.taken) {
            ++mispredicts_;
            ++condMispredicts_;
        } else if (event.taken) {
            ++misfetches_;
        }
        break;
      }
      case BranchEvent::Type::Uncond:
        ++misfetches_;
        break;
      case BranchEvent::Type::Call:
        ras_.push(event.site + 1);
        ++misfetches_;
        break;
      case BranchEvent::Type::Indirect:
        ++mispredicts_;
        break;
      case BranchEvent::Type::Return: {
        const Addr predicted = ras_.pop();
        if (event.target == kNoAddr)
            break;  // program exit
        if (predicted == event.target)
            ++misfetches_;
        else
            ++mispredicts_;
        break;
      }
    }
}

double
Alpha21064Model::cycles() const
{
    const double issue = std::ceil(static_cast<double>(instrs_) /
                                   static_cast<double>(kIssueWidth));
    return issue + static_cast<double>(mispredicts_) * kMispredictPenalty +
           static_cast<double>(misfetches_) * kMisfetchPenalty *
               (1.0 - kMisfetchSquashFraction) +
           static_cast<double>(icache_.misses()) * kICacheMissPenalty;
}

}  // namespace balign
