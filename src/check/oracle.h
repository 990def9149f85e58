/**
 * @file
 * Reference oracle: a deliberately naive, obviously-correct re-derivation
 * of everything the production evaluation pipeline computes.
 *
 * The production path is optimized for speed (record-once traces, shared
 * adapters, masked table indexing, pooled replays); this oracle is
 * optimized for being checkable by eye. Given the same (program, layout,
 * architecture) triple it independently:
 *
 *  - re-derives every block address, block size, branch address and
 *    inserted-jump address from nothing but the layout's block order and
 *    conditional realizations (the materializer's address bookkeeping is
 *    NOT trusted — crossCheckLayout() compares the two derivations);
 *  - re-maps CFG-level walk events to concrete branch events with its own
 *    straight-line logic (sense inversion, inserted/deleted jumps,
 *    pending-return resolution);
 *  - re-predicts every branch with straight-line predictor models (plain
 *    vectors, modulo indexing, linear scans) written independently of
 *    the batched engine's lanes;
 *  - re-accumulates instruction counts, misfetches, mispredicts, BEP and
 *    relative CPI.
 *
 * The differential harness (check/differ.h) runs this oracle in lockstep
 * with the production BranchEventAdapter, reports the first diverging
 * branch event, and then compares its totals with the batched replay
 * engine (sim/batch_replay.h). Keep this file boring: no caching, no bit
 * tricks, no sharing — every optimization added here weakens the oracle.
 */

#ifndef BALIGN_CHECK_ORACLE_H
#define BALIGN_CHECK_ORACLE_H

#include <memory>
#include <string>
#include <vector>

#include "bpred/evaluator.h"
#include "cfg/program.h"
#include "layout/layout_result.h"
#include "trace/branch_events.h"
#include "trace/event.h"

namespace balign {

/**
 * One resolved, classified branch execution, as derived by either side of
 * the differential harness. Two streams agree only if every field of
 * every sample matches.
 */
struct BranchSample
{
    BranchEvent::Type type = BranchEvent::Type::Cond;
    Addr site = kNoAddr;
    Addr target = kNoAddr;
    bool taken = false;
    ProcId proc = kNoProc;
    BlockId block = kNoBlock;
    /// Penalty attributed to this branch (0 or 1 each).
    std::uint8_t misfetches = 0;
    std::uint8_t mispredicts = 0;
    /// Instructions executed before this branch (the branch's own block
    /// already counted; an inserted jump counts itself first).
    std::uint64_t instrsBefore = 0;

    bool operator==(const BranchSample &other) const = default;
};

/// Human-readable one-line rendering of a sample.
std::string formatSample(const BranchSample &sample);

/**
 * Independently derived address bookkeeping for one layout. Only the
 * layout's per-procedure block orders and conditional realizations are
 * consumed; every address and size is recomputed from the CFG.
 */
struct OracleLayout
{
    struct Proc
    {
        Addr base = 0;
        Addr entryAddr = kNoAddr;
        std::uint64_t totalInstrs = 0;
        /// All indexed by BlockId.
        std::vector<Addr> addr;
        std::vector<Addr> branchAddr;  ///< kNoAddr when none
        std::vector<Addr> jumpAddr;    ///< kNoAddr when none
        std::vector<std::uint32_t> baseInstrs;
        std::vector<std::uint32_t> finalInstrs;
        std::vector<bool> jumpInserted;
        std::vector<bool> jumpRemoved;
    };

    std::vector<Proc> procs;

    /// Inconsistencies between the layout's decisions and the CFG (e.g. a
    /// FallAdjacent realization whose fall successor is not adjacent).
    /// A non-empty list means the layout is structurally broken.
    std::vector<std::string> structuralErrors;
};

/// Re-derives addresses and sizes from (program, layout decisions).
OracleLayout deriveOracleLayout(const Program &program,
                                const ProgramLayout &layout);

/**
 * Compares the production materializer's bookkeeping (addresses, sizes,
 * flags) against the oracle's independent derivation. Returns one message
 * per mismatch; empty means the materializer's arithmetic checks out.
 */
std::vector<std::string> crossCheckLayout(const Program &program,
                                          const ProgramLayout &layout);

/**
 * The oracle evaluator: an EventSink fed with CFG-level walk events
 * (directly from walk() or from a RecordedTrace replay) that derives the
 * branch-event stream and all metrics on its own.
 */
class OracleEvaluator : public EventSink
{
  public:
    OracleEvaluator(const Program &program, const ProgramLayout &layout,
                    const EvalParams &params);
    ~OracleEvaluator() override;

    /// Only references are kept; temporaries would dangle.
    OracleEvaluator(const Program &, ProgramLayout &&,
                    const EvalParams &) = delete;
    OracleEvaluator(Program &&, const ProgramLayout &,
                    const EvalParams &) = delete;

    void onBlock(ProcId proc, BlockId block) override;
    void onCall(ProcId proc, BlockId block, const CallSite &site) override;
    void onReturn(ProcId proc, BlockId block, const CallSite &site) override;
    void onEdge(ProcId proc, std::uint32_t edge_index) override;
    void onExit() override;

    /// Accumulated metrics (same record the production evaluator fills).
    const EvalResult &result() const { return result_; }

    /// Every branch execution, in order.
    const std::vector<BranchSample> &samples() const { return samples_; }

    /// Structural problems found while deriving the layout.
    const std::vector<std::string> &
    structuralErrors() const
    {
        return derived_.structuralErrors;
    }

    /// The independently derived address bookkeeping.
    const OracleLayout &derivedLayout() const { return derived_; }

  private:
    struct Predictors;  // naive predictor state, defined in oracle.cc

    void branchEvent(BranchEvent::Type type, Addr site, Addr target,
                     bool taken, ProcId proc, BlockId block);
    void resolvePendingReturn(Addr actual_target);

    const Program &program_;
    const ProgramLayout &layout_;
    EvalParams params_;
    OracleLayout derived_;
    EvalResult result_;
    std::vector<BranchSample> samples_;
    std::unique_ptr<Predictors> pred_;

    ProcId curProc_ = kNoProc;
    BlockId curBlock_ = kNoBlock;
    std::uint64_t instrs_ = 0;
};

}  // namespace balign

#endif  // BALIGN_CHECK_ORACLE_H
