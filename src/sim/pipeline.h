/**
 * @file
 * Dual-issue Alpha AXP 21064-style pipeline timing model (paper §6.1).
 *
 * The 21064 is a dual-issue in-order machine whose conditional branch
 * prediction is "a cross between a direct-mapped PHT table and a BT/FNT
 * architecture": each instruction in the 8 KB on-chip I-cache carries a
 * single history bit recording the branch's previous direction; when a
 * cache line is (re)filled, the bits reinitialize to the static
 * backward-taken/forward-not-taken prediction derived from the branch
 * displacement sign. Misfetch bubbles can be squashed when the pipeline is
 * already stalled — the paper estimates roughly 30% of taken-branch
 * misfetches are hidden.
 *
 * The model estimates total execution time as
 *
 *   cycles = ceil(instructions / issue_width)
 *          + mispredicts * mispredict_penalty
 *          + misfetches * misfetch_penalty * (1 - squash_fraction)
 *          + icache_misses * miss_penalty
 *
 * which captures the first-order effects alignment changes: executed
 * instruction count (inserted/deleted jumps), prediction behaviour, and
 * instruction-cache locality.
 */

#ifndef BALIGN_SIM_PIPELINE_H
#define BALIGN_SIM_PIPELINE_H

#include <vector>

#include "bpred/ras.h"
#include "cfg/program.h"
#include "layout/layout_result.h"
#include "sim/icache.h"
#include "trace/branch_events.h"

namespace balign {

class Alpha21064Model : public BranchEventHandler
{
  public:
    /// The machine of paper §6.1, fixed: dual issue, an 8 KB direct-mapped
    /// I-cache of 32-byte lines and a 32-entry return stack.
    static constexpr unsigned kIssueWidth = 2;
    static constexpr double kMisfetchPenalty = 1.0;
    /// Ten instruction slots at dual issue.
    static constexpr double kMispredictPenalty = 5.0;
    /// Fraction of misfetch bubbles hidden behind other stalls.
    static constexpr double kMisfetchSquashFraction = 0.30;
    static constexpr std::size_t kICacheBytes = 8192;
    static constexpr std::size_t kICacheLineBytes = 32;
    static constexpr double kICacheMissPenalty = 5.0;
    static constexpr std::size_t kRasEntries = 32;

    Alpha21064Model(const Program &program, const ProgramLayout &layout);

    /// The EventSink to drive with a walk.
    EventSink &sink() { return adapter_; }

    void onInstrs(std::uint64_t count) override;
    void onBranch(const BranchEvent &event) override;
    void onFetchRange(Addr addr, std::uint32_t count) override;

    /// Estimated total cycles.
    double cycles() const;

    std::uint64_t instrs() const { return instrs_; }
    std::uint64_t misfetches() const { return misfetches_; }
    std::uint64_t mispredicts() const { return mispredicts_; }
    std::uint64_t icacheMisses() const { return icache_.misses(); }
    std::uint64_t condExec() const { return condExec_; }
    std::uint64_t condMispredicts() const { return condMispredicts_; }

  private:
    /// Per-cached-instruction-slot predictor state.
    enum class SlotState : std::uint8_t { Cold, NotTaken, Taken };

    static std::size_t
    slotIndex(Addr addr)
    {
        return addr & (kICacheBytes / kInstrBytes - 1);
    }

    BranchEventAdapter adapter_;
    ICache icache_;
    ReturnStack ras_;
    std::vector<SlotState> slots_;

    std::uint64_t instrs_ = 0;
    std::uint64_t misfetches_ = 0;
    std::uint64_t mispredicts_ = 0;
    std::uint64_t condExec_ = 0;
    std::uint64_t condMispredicts_ = 0;
};

}  // namespace balign

#endif  // BALIGN_SIM_PIPELINE_H
