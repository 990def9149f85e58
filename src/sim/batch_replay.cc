#include "sim/batch_replay.h"

#include <algorithm>
#include <array>

#include "bpred/arch.h"
#include "bpred/ras.h"
#include "bpred/static_pred.h"
#include "layout/materialize.h"
#include "support/log.h"
#include "support/saturating_counter.h"
#include "trace/event.h"

namespace balign {

namespace {

constexpr std::uint32_t kNoIndex = 0xFFFFFFFFu;

/// condOutcome(realization, kind) flattened to lookup tables indexed by
/// [CondRealization][traversed the Taken edge].
constexpr bool kOutTaken[4][2] = {
    {false, true},   // FallAdjacent
    {true, false},   // TakenAdjacent
    {false, true},   // NeitherJumpToFall
    {true, false},   // NeitherJumpToTaken
};
constexpr bool kOutJump[4][2] = {
    {false, false},  // FallAdjacent
    {false, false},  // TakenAdjacent
    {true, false},   // NeitherJumpToFall
    {false, true},   // NeitherJumpToTaken
};

/// EventSink that canonicalizes a replay into a BatchTrace. Mirrors the
/// BranchEventAdapter state machine (trace/branch_events.cc), minus
/// everything layout-dependent.
class BatchTraceBuilder : public EventSink
{
  public:
    BatchTraceBuilder(const Program &program, BatchTrace &out)
        : program_(program), out_(out)
    {
    }

    void
    onBlock(ProcId proc, BlockId block) override
    {
        cur_ = global(proc, block);
        ++out_.activations[cur_];
    }

    void
    onCall(ProcId proc, BlockId block, const CallSite &site) override
    {
        const std::uint32_t g = global(proc, block);
        push(BatchTrace::Op::Call, g, site.callee, site.offset);
        pushRas(0, g, site.offset);
        ++out_.callExec;
    }

    void
    onReturn(ProcId proc, BlockId block, const CallSite &site) override
    {
        const std::uint32_t g = global(proc, block);
        if (pendingReturn()) {
            push(BatchTrace::Op::Ret, cur_, g, site.offset);
            pushRas(1, g, site.offset);
            ++out_.returnExec;
        }
        cur_ = g;
    }

    void
    onExit() override
    {
        if (pendingReturn()) {
            push(BatchTrace::Op::RetExit, cur_, 0, 0);
            pushRas(2, 0, 0);
            ++out_.returnExec;
            ++out_.exitReturns;
        }
        cur_ = kNoIndex;
    }

    void
    onEdge(ProcId proc, std::uint32_t edge_index) override
    {
        const Procedure &procedure = program_.proc(proc);
        const Edge &edge = procedure.edge(edge_index);
        const std::uint32_t src = global(proc, edge.src);
        const std::uint32_t dst = global(proc, edge.dst);
        switch (procedure.block(edge.src).term) {
          case Terminator::CondBranch: {
            const bool via_taken = edge.kind == EdgeKind::Taken;
            push(BatchTrace::Op::Cond, src, dst, via_taken ? 1 : 0);
            ++out_.condExec;
            ++(via_taken ? out_.takenCount : out_.fallCount)[src];
            break;
          }
          case Terminator::UncondBranch:
            push(BatchTrace::Op::Uncond, src, dst, 0);
            ++out_.takenCount[src];
            break;
          case Terminator::FallThrough:
            push(BatchTrace::Op::FallJump, src, dst, 0);
            ++out_.fallCount[src];
            break;
          case Terminator::IndirectJump:
            push(BatchTrace::Op::Indirect, src, dst, 0);
            ++out_.indirectExec;
            break;
          case Terminator::Return:
            panic("BatchTraceBuilder: edge out of a return block");
        }
    }

  private:
    std::uint32_t
    global(ProcId proc, BlockId block) const
    {
        return out_.blockBase[proc] + block;
    }

    /// Like BranchEventAdapter::resolvePendingReturn: the block being
    /// left emits a Return event only when it actually ends in one.
    bool
    pendingReturn() const
    {
        return cur_ != kNoIndex &&
               static_cast<Terminator>(out_.term[cur_]) ==
                   Terminator::Return;
    }

    void
    push(BatchTrace::Op op, std::uint32_t a, std::uint32_t b,
         std::uint32_t c)
    {
        out_.ops.push_back(static_cast<std::uint8_t>(op));
        out_.opA.push_back(a);
        out_.opB.push_back(b);
        out_.opC.push_back(c);
    }

    void
    pushRas(std::uint8_t op, std::uint32_t block, std::uint32_t offset)
    {
        out_.rasOps.push_back(op);
        out_.rasBlock.push_back(block);
        out_.rasOffset.push_back(offset);
    }

    const Program &program_;
    BatchTrace &out_;
    std::uint32_t cur_ = kNoIndex;
};

}  // namespace

BatchTrace::BatchTrace(const Program &program, const RecordedTrace &trace)
{
    blockBase.resize(program.numProcs());
    std::uint32_t total = 0;
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        blockBase[p] = total;
        total += static_cast<std::uint32_t>(program.proc(p).numBlocks());
    }
    totalBlocks = total;

    term.resize(total);
    takenDst.assign(total, kNoIndex);
    fallDst.assign(total, kNoIndex);
    activations.assign(total, 0);
    takenCount.assign(total, 0);
    fallCount.assign(total, 0);
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        const Procedure &proc = program.proc(p);
        for (const BasicBlock &block : proc.blocks()) {
            const std::uint32_t g = blockBase[p] + block.id;
            term[g] = static_cast<std::uint8_t>(block.term);
            if (block.term != Terminator::CondBranch)
                continue;
            takenDst[g] =
                blockBase[p] +
                proc.edge(static_cast<std::uint32_t>(
                              proc.takenEdge(block.id)))
                    .dst;
            fallDst[g] =
                blockBase[p] +
                proc.edge(static_cast<std::uint32_t>(
                              proc.fallThroughEdge(block.id)))
                    .dst;
        }
    }

    BatchTraceBuilder builder(program, *this);
    trace.replay(program, builder);
}

std::size_t
BatchTrace::sizeBytes() const
{
    return ops.capacity() + opA.capacity() * 4 + opB.capacity() * 4 +
           opC.capacity() * 4 + rasOps.capacity() +
           rasBlock.capacity() * 4 + rasOffset.capacity() * 4 +
           (activations.capacity() + takenCount.capacity() +
            fallCount.capacity()) *
               8 +
           term.capacity() + takenDst.capacity() * 4 +
           fallDst.capacity() * 4 + blockBase.capacity() * 4;
}

namespace {

/// One global block's layout facts.
struct BlockRow
{
    Addr addr = 0;
    Addr branchAddr = 0;
    Addr jumpAddr = 0;
    Addr condTarget = kNoAddr;  ///< realized branch target (Cond only)
    std::uint32_t baseInstrs = 0;
    std::uint8_t cond = 0;  ///< CondRealization
    std::uint8_t jumpInserted = 0;
    std::uint8_t jumpRemoved = 0;
};

/// Per-layout tables: every fact the pass gathers, one row per global
/// block, so the inner loops never touch Program or ProgramLayout and a
/// lane reads one row per op.
struct LayoutTables
{
    std::vector<BlockRow> block;  ///< per global block
    std::vector<Addr> entryAddr;  ///< per proc
};

LayoutTables
flattenLayout(const BatchTrace &trace, const ProgramLayout &layout)
{
    LayoutTables t;
    t.block.resize(trace.totalBlocks);
    t.entryAddr.resize(layout.procs.size());

    for (ProcId p = 0; p < layout.procs.size(); ++p) {
        const ProcLayout &proc = layout.procs[p];
        t.entryAddr[p] = layout.procEntryAddr(p);
        const std::uint32_t base = trace.blockBase[p];
        for (std::uint32_t b = 0; b < proc.blocks.size(); ++b) {
            const BlockLayout &bl = proc.blocks[b];
            BlockRow &row = t.block[base + b];
            row.addr = bl.addr;
            row.branchAddr = bl.branchAddr;
            row.jumpAddr = bl.jumpAddr;
            row.baseInstrs = bl.baseInstrs;
            row.cond = static_cast<std::uint8_t>(bl.cond);
            row.jumpInserted = bl.jumpInserted ? 1 : 0;
            row.jumpRemoved = bl.jumpRemoved ? 1 : 0;
        }
    }
    // Second pass: realized conditional-branch targets need final block
    // addresses.
    for (std::uint32_t g = 0; g < trace.totalBlocks; ++g) {
        if (static_cast<Terminator>(trace.term[g]) !=
            Terminator::CondBranch)
            continue;
        BlockRow &row = t.block[g];
        const bool targets_taken =
            branchTargetKind(static_cast<CondRealization>(row.cond)) ==
            EdgeKind::Taken;
        row.condTarget =
            t.block[targets_taken ? trace.takenDst[g] : trace.fallDst[g]]
                .addr;
    }
    return t;
}

/// Architecture-independent totals for one layout, all O(blocks).
struct SharedCounters
{
    std::uint64_t instrs = 0;
    std::uint64_t condTaken = 0;
    std::uint64_t uncondExec = 0;
    std::uint64_t btbLookups = 0;
};

SharedCounters
computeShared(const BatchTrace &trace, const LayoutTables &tables)
{
    SharedCounters shared;
    for (std::uint32_t g = 0; g < trace.totalBlocks; ++g) {
        const BlockRow &row = tables.block[g];
        shared.instrs += trace.activations[g] * row.baseInstrs;
        switch (static_cast<Terminator>(trace.term[g])) {
          case Terminator::CondBranch: {
            const std::uint8_t real = row.cond;
            const std::uint64_t taken = trace.takenCount[g];
            const std::uint64_t fall = trace.fallCount[g];
            shared.condTaken += (kOutTaken[real][1] ? taken : 0) +
                                (kOutTaken[real][0] ? fall : 0);
            const std::uint64_t jumps = (kOutJump[real][1] ? taken : 0) +
                                        (kOutJump[real][0] ? fall : 0);
            shared.instrs += jumps;
            shared.uncondExec += jumps;
            break;
          }
          case Terminator::UncondBranch:
            if (row.jumpRemoved == 0)
                shared.uncondExec += trace.takenCount[g];
            break;
          case Terminator::FallThrough:
            if (row.jumpInserted != 0) {
                shared.instrs += trace.fallCount[g];
                shared.uncondExec += trace.fallCount[g];
            }
            break;
          default:
            break;
        }
    }
    // Exit returns pop the return stack but emit no penalty-assessed
    // event, so they never reach a BTB lookup.
    shared.btbLookups = trace.condExec + shared.uncondExec +
                        trace.callExec + trace.indirectExec +
                        (trace.returnExec - trace.exitReturns);
    return shared;
}

/// Correct return-stack predictions over the dense call/return stream.
/// Layout-dependent only through wrap-around and underflow effects, so it
/// must be simulated, not derived.
std::uint64_t
countRasCorrect(const BatchTrace &trace, const LayoutTables &tables,
                std::size_t ras_entries)
{
    ReturnStack ras(ras_entries);
    std::uint64_t correct = 0;
    const std::size_t n = trace.rasOps.size();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t block = trace.rasBlock[i];
        switch (trace.rasOps[i]) {
          case 0:
            ras.push(tables.block[block].addr + trace.rasOffset[i] + 1);
            break;
          case 1:
            correct += ras.pop() ==
                       tables.block[block].addr + trace.rasOffset[i] + 1;
            break;
          default:
            ras.pop();
            break;
        }
    }
    return correct;
}

/// Penalties a conditional-branch stream costs a static predictor whose
/// per-block prediction is fixed: pure arithmetic over the traversal
/// histogram, no sweep at all.
void
tallyStaticCond(const BatchTrace &trace, const LayoutTables &tables,
                const std::vector<std::uint8_t> &predict_taken,
                std::uint64_t &mispredicts, std::uint64_t &misfetches)
{
    for (std::uint32_t g = 0; g < trace.totalBlocks; ++g) {
        if (static_cast<Terminator>(trace.term[g]) !=
            Terminator::CondBranch)
            continue;
        const std::uint8_t real = tables.block[g].cond;
        const bool pred = predict_taken[g] != 0;
        for (int via = 0; via < 2; ++via) {
            const std::uint64_t count =
                via != 0 ? trace.takenCount[g] : trace.fallCount[g];
            const bool taken = kOutTaken[real][via];
            if (pred != taken)
                mispredicts += count;
            else if (taken)
                misfetches += count;
        }
    }
}

void
requirePowerOfTwo(std::size_t value, const char *what)
{
    if (value == 0 || (value & (value - 1)) != 0)
        panic("batch replay: %s must be a power of two (%zu)", what, value);
}

/// A history register needs at least one bit, and no more than its
/// shifts and table can hold (@p max_bits).
void
requireHistoryBits(unsigned bits, unsigned max_bits)
{
    if (bits == 0 || bits > max_bits)
        panic("batch replay: bad history length %u", bits);
}

/// One PHT-family lane, stepped on every Cond op with its layout's site
/// address and realized direction. A direct-mapped PHT is gshare with a
/// zero history mask; the local two-level predictor (kLocal) instead
/// indexes its pattern table with a per-site history.
class PhtLane
{
  public:
    PhtLane(const EvalParams &params, const LayoutTables &tables,
            EvalResult &result)
        : out(&result), block_(tables.block.data()),
          max_(static_cast<std::uint8_t>((1u << params.counterBits) - 1)),
          siteMask_(params.phtEntries - 1)
    {
        std::size_t table_entries = params.phtEntries;
        switch (params.arch) {
          case Arch::PhtDirect:
            requirePowerOfTwo(params.phtEntries, "PHT entries");
            break;
          case Arch::PhtCorrelated:
            requirePowerOfTwo(params.phtEntries, "gshare entries");
            requireHistoryBits(params.historyBits, 63);
            historyMask_ = (1ull << params.historyBits) - 1;
            break;
          case Arch::PhtLocal:
            requirePowerOfTwo(params.phtEntries, "history entries");
            requireHistoryBits(params.historyBits, 24);
            historyMask_ = (1u << params.historyBits) - 1;
            histories_.assign(params.phtEntries, 0);
            table_entries = std::size_t{1} << params.historyBits;
            break;
          default:
            panic("batch replay: not a PHT architecture");
        }
        table_.assign(table_entries, static_cast<std::uint8_t>(max_ / 2));
    }

    /// Steps the lane through @p n conditionals in trace order: source
    /// blocks @p src, traversed-edge flags @p via. The lane's state lives
    /// in locals for the loop, so counter-table stores cannot force it
    /// back to memory on every step.
    template <bool kLocal>
    void
    scan(const std::uint32_t *src, const std::uint8_t *via, std::size_t n)
    {
        const BlockRow *block = block_;
        std::uint8_t *table = table_.data();
        std::uint32_t *histories = histories_.data();
        const std::uint8_t max = max_;
        const std::size_t site_mask = siteMask_;
        const std::uint64_t history_mask = historyMask_;
        std::uint64_t history = history_;
        std::uint64_t misp = 0;
        std::uint64_t misf = 0;
        for (std::size_t k = 0; k < n; ++k) {
            const BlockRow &row = block[src[k]];
            const Addr site = row.branchAddr;
            const std::uint8_t taken = kOutTaken[row.cond][via[k]] ? 1 : 0;
            std::size_t idx;
            if constexpr (kLocal) {
                std::uint32_t &local = histories[site & site_mask];
                idx = local;
                local = static_cast<std::uint32_t>(((local << 1) | taken) &
                                                   history_mask);
            } else {
                idx = (site ^ history) & site_mask;
                history = ((history << 1) | taken) & history_mask;
            }
            const std::uint8_t counter = table[idx];
            const std::uint8_t predicted =
                saturatingTaken(counter, max) ? 1 : 0;
            const std::uint8_t wrong = predicted ^ taken;
            misp += wrong;
            misf += static_cast<std::uint8_t>((wrong ^ 1) & taken);
            table[idx] = saturatingUpdate(counter, max, taken != 0);
        }
        history_ = history;
        mispredicts += misp;
        misfetches += misf;
    }

    EvalResult *out;
    std::uint64_t mispredicts = 0;
    std::uint64_t misfetches = 0;

  private:
    const BlockRow *block_;
    std::uint8_t max_;
    std::size_t siteMask_;
    std::uint64_t historyMask_ = 0;
    std::uint64_t history_ = 0;
    std::vector<std::uint32_t> histories_;  ///< per site (local only)
    std::vector<std::uint8_t> table_;
};

/// The branch target buffer (paper §3): full-tag set-associative, LRU by
/// update tick. Only taken branches are inserted, each entry holding its
/// target and a saturating counter reset to weakly taken; a hit trains
/// the counter, and a taken hit also retrains the target. A set's ways
/// are adjacent, so a lookup touches one or two cache lines. One extra
/// slot past the last entry stands for a miss: it is never valid, never
/// written, and its counter predicts not-taken, so a lookup's outcome can
/// be read without first branching on whether it hit.
class BtbLanes
{
  public:
    BtbLanes(std::size_t entries, std::size_t ways, unsigned counter_bits)
        : ways_(ways), setMask_(entries / ways - 1), miss_(entries),
          max_(static_cast<std::uint8_t>((1u << counter_bits) - 1)),
          entries_(entries + 1)
    {
        if (entries == 0 || ways == 0 || entries % ways != 0)
            panic("batch replay: bad BTB geometry %zux%zu", entries, ways);
        const std::size_t sets = entries / ways;
        if ((sets & (sets - 1)) != 0)
            panic("batch replay: BTB sets must be a power of two");
    }

    /// Index of the hitting entry, or the miss slot. Only a miss inserts,
    /// so a tag is valid in at most one way of its set and every way can
    /// be tested without an early exit.
    std::size_t
    find(Addr site) const
    {
        const std::size_t set = (site & setMask_) * ways_;
        std::size_t hit = miss_;
        for (std::size_t w = 0; w < ways_; ++w) {
            const Entry &entry = entries_[set + w];
            const std::size_t match =
                static_cast<std::size_t>(entry.valid != 0) &
                static_cast<std::size_t>(entry.tag == site);
            hit ^= (hit ^ (set + w)) & (std::size_t{0} - match);
        }
        return hit;
    }

    bool hit(std::size_t e) const { return e != miss_; }
    bool counterTaken(std::size_t e) const
    {
        return saturatingTaken(entries_[e].counter, max_);
    }
    Addr target(std::size_t e) const { return entries_[e].target; }

    /// Trains the BTB on @p site, whose entry find(site) just returned as
    /// @p e: nothing touches the BTB between the lookup and the update,
    /// so the update reuses it instead of searching the set again.
    void
    updateAt(std::size_t e, Addr site, bool taken, Addr target)
    {
        ++tick_;
        if (e != miss_) {
            Entry &entry = entries_[e];
            entry.counter = saturatingUpdate(entry.counter, max_, taken);
            entry.target = taken ? target : entry.target;
            entry.lastUse = tick_;
            return;
        }
        if (!taken)
            return;  // only taken branches are inserted
        const std::size_t set = (site & setMask_) * ways_;
        std::size_t victim = set;
        for (std::size_t w = 0; w < ways_; ++w) {
            const std::size_t candidate = set + w;
            if (entries_[candidate].valid == 0) {
                victim = candidate;
                break;
            }
            if (entries_[candidate].lastUse < entries_[victim].lastUse)
                victim = candidate;
        }
        Entry &entry = entries_[victim];
        entry.valid = 1;
        entry.tag = site;
        entry.target = target;
        entry.counter =
            static_cast<std::uint8_t>(max_ / 2 + 1);  // resetWeak(true)
        entry.lastUse = tick_;
    }

  private:
    struct Entry
    {
        Addr tag = 0;
        Addr target = 0;
        std::uint64_t lastUse = 0;
        std::uint8_t counter = 0;
        std::uint8_t valid = 0;
    };

    std::size_t ways_;
    std::size_t setMask_;
    std::size_t miss_;
    std::uint8_t max_;
    std::uint64_t tick_ = 0;
    std::vector<Entry> entries_;
};

/// One BTB lane: its BTB, its own return stack (interleaved with the
/// lookups) and the penalty counters it accumulates; the execution-mix
/// counters come from SharedCounters. Each op method reads its layout's
/// tables and tallies penalties arithmetically from the lookup, by the
/// paper's penalty rules (bpred/evaluator.h).
class BtbLane
{
  public:
    BtbLane(const EvalParams &params, const LayoutTables &tables,
            EvalResult &result)
        : out(&result), block_(tables.block.data()),
          entryAddr_(tables.entryAddr.data()),
          btb_(params.btbEntries, params.btbWays, params.counterBits),
          ras_(params.rasEntries)
    {
    }

    void
    cond(std::uint32_t a, std::uint32_t b, int via)
    {
        const BlockRow &src = block_[a];
        const bool taken = kOutTaken[src.cond][via];
        const Addr site = src.branchAddr;
        const Addr target = src.condTarget;
        const std::size_t e = btb_.find(site);
        btbHits += btb_.hit(e);
        // A predicted-taken conditional with the wrong stored target
        // also mispredicts. Fixed conditional targets make that
        // partial-tag aliasing path unreachable; the oracle assesses it
        // too, so the two engines cannot drift.
        const bool predicted = btb_.counterTaken(e);
        const bool wrong = (predicted != taken) |
                           (predicted & taken & (btb_.target(e) != target));
        condMispredicts += wrong;
        btb_.updateAt(e, site, taken, target);
        if (kOutJump[src.cond][via])
            uncondBreak(src.jumpAddr, block_[b].addr);
    }

    void
    uncond(std::uint32_t a, std::uint32_t b)
    {
        const BlockRow &src = block_[a];
        if (src.jumpRemoved == 0)
            uncondBreak(src.branchAddr, block_[b].addr);
    }

    void
    fallJump(std::uint32_t a, std::uint32_t b)
    {
        const BlockRow &src = block_[a];
        if (src.jumpInserted != 0)
            uncondBreak(src.jumpAddr, block_[b].addr);
    }

    void
    indirect(std::uint32_t a, std::uint32_t b)
    {
        const Addr site = block_[a].branchAddr;
        const Addr target = block_[b].addr;
        const std::size_t e = btb_.find(site);
        btbHits += btb_.hit(e);
        indirectMispredicts +=
            !(btb_.counterTaken(e) & (btb_.target(e) == target));
        btb_.updateAt(e, site, true, target);
    }

    void
    call(std::uint32_t a, std::uint32_t callee, std::uint32_t offset)
    {
        const Addr site = block_[a].addr + offset;
        ras_.push(site + 1);
        uncondBreak(site, entryAddr_[callee]);
    }

    /// A wrong return-stack prediction mispredicts whether or not the
    /// BTB hits; a right one misfetches only on a BTB miss.
    void
    ret(std::uint32_t a, std::uint32_t resume, std::uint32_t offset)
    {
        const Addr site = block_[a].branchAddr;
        const Addr target = block_[resume].addr + offset + 1;
        const bool ras_correct = ras_.pop() == target;
        const std::size_t e = btb_.find(site);
        const bool hit = btb_.hit(e);
        btbHits += hit;
        returnMispredicts += !ras_correct;
        misfetches += !hit & ras_correct;
        btb_.updateAt(e, site, true, target);
    }

    /// Exit returns pop the stack but assess no penalty and make no BTB
    /// lookup: there is no in-program resume address.
    void retExit() { ras_.pop(); }

    EvalResult *out;
    std::uint64_t btbHits = 0;
    std::uint64_t misfetches = 0;
    std::uint64_t condMispredicts = 0;
    std::uint64_t returnMispredicts = 0;
    std::uint64_t indirectMispredicts = 0;

  private:
    /// An always-taken break with a decode-time target under a BTB: a
    /// hit predicting taken with the right target is free, everything
    /// else redirects after decode.
    void
    uncondBreak(Addr site, Addr target)
    {
        const std::size_t e = btb_.find(site);
        btbHits += btb_.hit(e);
        misfetches += !(btb_.counterTaken(e) & (btb_.target(e) == target));
        btb_.updateAt(e, site, true, target);
    }

    const BlockRow *block_;
    const Addr *entryAddr_;
    BtbLanes btb_;
    ReturnStack ras_;
};

/// Every dynamic lane of a replay, across all of its layouts.
struct DynamicLanes
{
    std::vector<BtbLane> btb;
    std::vector<PhtLane> pht;    ///< direct-mapped and gshare
    std::vector<PhtLane> local;  ///< local two-level
};

/// The one pass over the op stream, in chunks small enough to stay in
/// L1: a chunk's Cond ops are first gathered, branch-free, into a
/// scratch list that every PHT-family lane scans; then every op of the
/// chunk steps every BTB lane. Each lane still sees its ops in
/// trace order, and lanes never interact, so the interleave cannot
/// change a counter.
void
sweepOps(const BatchTrace &trace, DynamicLanes &lanes)
{
    constexpr std::size_t kChunk = 512;
    std::array<std::uint32_t, kChunk> cond_src;
    std::array<std::uint8_t, kChunk> cond_via;
    const bool any_pht = !lanes.pht.empty() || !lanes.local.empty();
    const std::size_t n = trace.ops.size();
    for (std::size_t begin = 0; begin < n; begin += kChunk) {
        const std::size_t end = std::min(n, begin + kChunk);
        if (any_pht) {
            std::size_t conds = 0;
            for (std::size_t i = begin; i < end; ++i) {
                cond_src[conds] = trace.opA[i];
                cond_via[conds] = trace.opC[i] != 0 ? 1 : 0;
                conds += trace.ops[i] ==
                         static_cast<std::uint8_t>(BatchTrace::Op::Cond);
            }
            for (PhtLane &lane : lanes.pht)
                lane.scan<false>(cond_src.data(), cond_via.data(), conds);
            for (PhtLane &lane : lanes.local)
                lane.scan<true>(cond_src.data(), cond_via.data(), conds);
        }
        if (lanes.btb.empty())
            continue;
        for (std::size_t i = begin; i < end; ++i) {
            const std::uint32_t a = trace.opA[i];
            const std::uint32_t b = trace.opB[i];
            const std::uint32_t c = trace.opC[i];
            switch (static_cast<BatchTrace::Op>(trace.ops[i])) {
              case BatchTrace::Op::Cond: {
                const int via = c != 0 ? 1 : 0;
                for (BtbLane &lane : lanes.btb)
                    lane.cond(a, b, via);
                break;
              }
              case BatchTrace::Op::Uncond:
                for (BtbLane &lane : lanes.btb)
                    lane.uncond(a, b);
                break;
              case BatchTrace::Op::FallJump:
                for (BtbLane &lane : lanes.btb)
                    lane.fallJump(a, b);
                break;
              case BatchTrace::Op::Indirect:
                for (BtbLane &lane : lanes.btb)
                    lane.indirect(a, b);
                break;
              case BatchTrace::Op::Call:
                for (BtbLane &lane : lanes.btb)
                    lane.call(a, b, c);
                break;
              case BatchTrace::Op::Ret:
                for (BtbLane &lane : lanes.btb)
                    lane.ret(a, b, c);
                break;
              case BatchTrace::Op::RetExit:
                for (BtbLane &lane : lanes.btb)
                    lane.retExit();
                break;
            }
        }
    }
}

/// Counters of a non-BTB lane: only the conditional-branch penalties
/// (@p cond_misp, @p cond_misf) vary by architecture. Everything else is
/// the shared execution mix plus the return-stack accuracy. A PHT-family
/// lane is set with zero conditional penalties before the pass and adds
/// its own after it.
void
setNonBtbPenalties(EvalResult &r, const BatchTrace &trace,
                   const SharedCounters &shared, std::uint64_t ras_ok,
                   std::uint64_t cond_misp, std::uint64_t cond_misf)
{
    const std::uint64_t ras_bad =
        trace.returnExec - trace.exitReturns - ras_ok;
    r.condMispredicts = cond_misp;
    r.returnMispredicts = ras_bad;
    // Misfetches: every unconditional break and call, every correct
    // return-stack pop, plus correctly-predicted taken conditionals.
    r.misfetches = shared.uncondExec + trace.callExec + ras_ok + cond_misf;
    // Mispredicts: indirect jumps, wrong return-stack pops, and the
    // architecture's conditional mispredictions.
    r.mispredicts = trace.indirectExec + ras_bad + cond_misp;
}

}  // namespace

std::uint64_t
batchLayoutInstrs(const BatchTrace &trace, const ProgramLayout &layout)
{
    return computeShared(trace, flattenLayout(trace, layout)).instrs;
}

std::vector<std::vector<EvalResult>>
runBatchReplay(const Program &program,
               const std::vector<LayoutLanes> &layouts,
               const BatchTrace &trace)
{
    std::vector<std::vector<EvalResult>> results(layouts.size());
    // The lanes point into their layout's tables, so this never resizes.
    std::vector<LayoutTables> tables(layouts.size());
    DynamicLanes dynamic;

    for (std::size_t k = 0; k < layouts.size(); ++k) {
        const ProgramLayout &layout = *layouts[k].layout;
        const std::vector<EvalParams> &lanes = layouts[k].lanes;
        results[k].resize(lanes.size());
        if (lanes.empty())
            continue;

        tables[k] = flattenLayout(trace, layout);
        const LayoutTables &t = tables[k];
        const SharedCounters shared = computeShared(trace, t);

        // LIKELY bits flattened to global block indices (profile-majority
        // realized direction; bpred/static_pred.cc is the source of
        // truth).
        std::vector<std::uint8_t> likely_bits;
        if (std::any_of(lanes.begin(), lanes.end(),
                        [](const EvalParams &lane) {
                            return lane.arch == Arch::Likely;
                        })) {
            const LikelyBits likely(program, layout);
            likely_bits.resize(trace.totalBlocks);
            for (ProcId p = 0; p < program.numProcs(); ++p) {
                const std::size_t blocks = program.proc(p).numBlocks();
                for (BlockId b = 0; b < blocks; ++b)
                    likely_bits[trace.blockBase[p] + b] =
                        likely.taken(p, b) ? 1 : 0;
            }
        }

        // Correct return-stack pops are shared by every non-BTB lane with
        // the same stack size (BTB lanes re-simulate the stack inside the
        // pass, interleaved with their lookups).
        std::vector<std::pair<std::size_t, std::uint64_t>> ras_correct_cache;
        auto ras_correct_for = [&](std::size_t entries) {
            for (const auto &cached : ras_correct_cache) {
                if (cached.first == entries)
                    return cached.second;
            }
            const std::uint64_t correct = countRasCorrect(trace, t, entries);
            ras_correct_cache.emplace_back(entries, correct);
            return correct;
        };

        bool needs_pass = false;
        for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
            const EvalParams &params = lanes[lane];
            EvalResult &r = results[k][lane];
            r.penalties = params.penalties;
            r.instrs = shared.instrs;
            r.condExec = trace.condExec;
            r.condTaken = shared.condTaken;
            r.uncondExec = shared.uncondExec;
            r.callExec = trace.callExec;
            r.returnExec = trace.returnExec;
            r.indirectExec = trace.indirectExec;

            if (isBtb(params.arch)) {
                r.btbLookups = shared.btbLookups;
                dynamic.btb.emplace_back(params, t, r);
                needs_pass = true;
                continue;
            }

            std::uint64_t cond_misp = 0;
            std::uint64_t cond_misf = 0;
            switch (params.arch) {
              case Arch::Fallthrough:
                // Never predicts taken: every realized-taken conditional
                // mispredicts, none misfetch.
                cond_misp = shared.condTaken;
                break;
              case Arch::BtFnt: {
                std::vector<std::uint8_t> predict(trace.totalBlocks, 0);
                for (std::uint32_t g = 0; g < trace.totalBlocks; ++g) {
                    if (static_cast<Terminator>(trace.term[g]) ==
                        Terminator::CondBranch)
                        predict[g] = btFntPredictsTaken(t.block[g].branchAddr,
                                                        t.block[g].condTarget)
                                         ? 1
                                         : 0;
                }
                tallyStaticCond(trace, t, predict, cond_misp, cond_misf);
                break;
              }
              case Arch::Likely:
                tallyStaticCond(trace, t, likely_bits, cond_misp,
                                cond_misf);
                break;
              case Arch::PhtLocal:
                dynamic.local.emplace_back(params, t, r);
                needs_pass = true;
                break;
              default:
                dynamic.pht.emplace_back(params, t, r);
                needs_pass = true;
                break;
            }
            setNonBtbPenalties(r, trace, shared,
                               ras_correct_for(params.rasEntries), cond_misp,
                               cond_misf);
        }
        // Static-only layouts are complete; only layouts with dynamic
        // lanes keep their tables for the pass.
        if (!needs_pass)
            tables[k] = LayoutTables{};
    }

    sweepOps(trace, dynamic);

    for (const BtbLane &lane : dynamic.btb) {
        lane.out->btbHits = lane.btbHits;
        lane.out->misfetches = lane.misfetches;
        lane.out->mispredicts = lane.condMispredicts +
                                lane.returnMispredicts +
                                lane.indirectMispredicts;
        lane.out->condMispredicts = lane.condMispredicts;
        lane.out->returnMispredicts = lane.returnMispredicts;
    }
    for (const std::vector<PhtLane> *family : {&dynamic.pht, &dynamic.local}) {
        for (const PhtLane &lane : *family) {
            lane.out->condMispredicts += lane.mispredicts;
            lane.out->mispredicts += lane.mispredicts;
            lane.out->misfetches += lane.misfetches;
        }
    }
    return results;
}

std::vector<EvalResult>
runBatchReplay(const Program &program, const ProgramLayout &layout,
               const BatchTrace &trace, const std::vector<EvalParams> &lanes)
{
    return std::move(runBatchReplay(program, {{&layout, lanes}}, trace)[0]);
}

}  // namespace balign
