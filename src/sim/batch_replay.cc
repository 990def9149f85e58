#include "sim/batch_replay.h"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <unordered_map>

#include "bpred/arch.h"
#include "bpred/ras.h"
#include "bpred/static_pred.h"
#include "layout/materialize.h"
#include "support/log.h"
#include "support/saturating_counter.h"

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

/**
 * Canonicalizes the walk that walkInto drives it through into a
 * BatchTrace. Mirrors the BranchEventAdapter state machine
 * (trace/branch_events.cc), minus everything layout-dependent. It has
 * the walker's sink methods but is no EventSink: walkBatchTrace is its
 * only driver, so every event call is a direct call.
 */
class BatchTraceBuilder
{
  public:
    /// Sizes the per-block tables of @p out for @p program, the program
    /// walked; fatal() when its blocks, call sites or indirect-jump edges
    /// exceed kTraceIndexCap.
    BatchTraceBuilder(const Program &program, BatchTrace &out)
        : out_(out), cur_(kNoIndex)
    {
        BatchTrace &t = out_;
        t.blockBase.resize(program.numProcs());
        edgeBase_.resize(program.numProcs());
        std::size_t total = 0;
        std::size_t edges = 0;
        for (ProcId p = 0; p < program.numProcs(); ++p) {
            t.blockBase[p] = static_cast<std::uint32_t>(total);
            edgeBase_[p] = static_cast<std::uint32_t>(edges);
            total += program.proc(p).numBlocks();
            edges += program.proc(p).numEdges();
            checkTraceIndexCount(total, "blocks");
        }
        t.totalBlocks = static_cast<std::uint32_t>(total);

        t.term.resize(total);
        t.takenDst.assign(total, kNoIndex);
        t.fallDst.assign(total, kNoIndex);
        t.activations.assign(total, 0);
        t.takenCount.assign(total, 0);
        t.fallCount.assign(total, 0);
        edges_.reserve(edges);
        callBase_.reserve(total + 1);
        for (ProcId p = 0; p < program.numProcs(); ++p) {
            const Procedure &proc = program.proc(p);
            const std::uint32_t base = t.blockBase[p];
            for (const Edge &edge : proc.edges()) {
                const std::uint32_t src = base + edge.src;
                const std::uint32_t dst = base + edge.dst;
                edges_.push_back(
                    EdgeRow{src, edge.kind == EdgeKind::Taken ? 1u : 0u});
                // The first edge of its kind, as Procedure::findOutEdge finds
                // it; the terminator contract allows no second one.
                if (edge.kind == EdgeKind::Taken &&
                    t.takenDst[src] == kNoIndex)
                    t.takenDst[src] = dst;
                if (edge.kind == EdgeKind::FallThrough &&
                    t.fallDst[src] == kNoIndex)
                    t.fallDst[src] = dst;
            }
            for (const BasicBlock &block : proc.blocks()) {
                const std::uint32_t g = base + block.id;
                t.term[g] = static_cast<std::uint8_t>(block.term);
                callBase_.push_back(
                    static_cast<std::uint32_t>(t.callSites.size()));
                for (const CallSite &site : block.calls)
                    t.callSites.push_back({g, site.offset, site.callee});
                if (block.term == Terminator::IndirectJump) {
                    for (const std::uint32_t index : block.outEdges) {
                        edges_[edgeBase_[p] + index].aux =
                            static_cast<std::uint32_t>(t.indirectEdges.size());
                        t.indirectEdges.push_back(
                            {g, base + proc.edge(index).dst});
                    }
                }
            }
        }
        checkTraceIndexCount(t.callSites.size(), "call sites");
        checkTraceIndexCount(t.indirectEdges.size(), "indirect edges");
        t.callSites.shrink_to_fit();
        t.indirectEdges.shrink_to_fit();
        callBase_.push_back(static_cast<std::uint32_t>(t.callSites.size()));
        t.indirectCount.assign(t.indirectEdges.size(), 0);
    }

    void
    onBlock(ProcId proc, BlockId block)
    {
        cur_ = global(proc, block);
        ++out_.activations[cur_];
    }

    void
    onCall(ProcId proc, BlockId block, const CallSite &site)
    {
        const std::uint32_t g = global(proc, block);
        const std::uint32_t k = siteIndex(g, site);
        push(BatchTrace::kCall, k);
        rasOps_.push(0 | k << 2);
        ++out_.callExec;
    }

    void
    onReturn(ProcId proc, BlockId block, const CallSite &site)
    {
        const std::uint32_t g = global(proc, block);
        if (pendingReturn()) {
            const std::uint32_t k = siteIndex(g, site);
            push(BatchTrace::kRet, returnRow(cur_, k));
            rasOps_.push(1 | k << 2);
            ++out_.returnExec;
        }
        cur_ = g;
    }

    void
    onEdge(ProcId proc, std::uint32_t edge_index)
    {
        // An Uncond or FallJump op stores no destination: such a block has
        // one out-edge (cfg.terminator-arity), whose dst is takenDst/fallDst.
        const EdgeRow &edge = edges_[edgeBase_[proc] + edge_index];
        const std::uint32_t src = edge.src;
        switch (static_cast<Terminator>(out_.term[src])) {
          case Terminator::CondBranch: {
            const bool via_taken = edge.aux != 0;
            push(via_taken ? BatchTrace::kCondTaken : BatchTrace::kCondFall,
                 src);
            ++out_.condExec;
            ++(via_taken ? out_.takenCount : out_.fallCount)[src];
            break;
          }
          case Terminator::UncondBranch:
            push(BatchTrace::kUncond, src);
            ++out_.takenCount[src];
            break;
          case Terminator::FallThrough:
            push(BatchTrace::kFallJump, src);
            ++out_.fallCount[src];
            break;
          case Terminator::IndirectJump: {
            push(BatchTrace::kIndirect, edge.aux);
            ++out_.indirectExec;
            ++out_.indirectCount[edge.aux];
            break;
          }
          case Terminator::Return:
            panic("BatchTraceBuilder: edge out of a return block");
        }
    }

    void
    onExit()
    {
        if (pendingReturn()) {
            push(BatchTrace::kRetExit, cur_);
            rasOps_.push(2);
            ++out_.returnExec;
            ++out_.exitReturns;
        }
        cur_ = kNoIndex;
    }

    /// Copies the staged streams once into the trace's vectors, at their
    /// exact size; the builder is spent afterwards.
    void
    finish()
    {
        out_.ops = ops_.take();
        out_.rasOps = rasOps_.take();
        out_.returnRows.shrink_to_fit();
    }

  private:
    /**
     * An append-only stream staged in fixed-size segments: an append
     * never moves what is already there, and take() allocates the
     * trace's vector once at its exact size, freeing each segment as it
     * is copied.
     */
    template <typename T>
    class Staged
    {
      public:
        static constexpr std::size_t kSegment = std::size_t{1} << 16;

        void
        push(const T &value)
        {
            if (fill_ == kSegment) {
                segments_.emplace_back(new T[kSegment]);
                fill_ = 0;
            }
            segments_.back()[fill_++] = value;
        }

        std::vector<T>
        take()
        {
            std::vector<T> out;
            if (segments_.empty())
                return out;
            out.reserve((segments_.size() - 1) * kSegment + fill_);
            for (std::size_t s = 0; s < segments_.size(); ++s) {
                const std::size_t n =
                    s + 1 < segments_.size() ? kSegment : fill_;
                out.insert(out.end(), segments_[s].get(),
                           segments_[s].get() + n);
                segments_[s].reset();
            }
            segments_.clear();
            fill_ = kSegment;
            return out;
        }

      private:
        std::vector<std::unique_ptr<T[]>> segments_;
        std::size_t fill_ = kSegment;  ///< used slots of the last segment
    };

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
               static_cast<Terminator>(out_.term[cur_]) == Terminator::Return;
    }

    /// Index in BatchTrace::callSites of @p site, a call of block @p g.
    std::uint32_t
    siteIndex(std::uint32_t g, const CallSite &site) const
    {
        for (std::uint32_t k = callBase_[g]; k < callBase_[g + 1]; ++k) {
            const BatchTrace::CallSiteRow &row = out_.callSites[k];
            if (row.offset == site.offset && row.callee == site.callee)
                return k;
        }
        panic("BatchTraceBuilder: call at offset %u is not a call site of its "
              "block",
              site.offset);
    }

    /// Row of BatchTrace::returnRows for a return from block @p g to call
    /// site @p k, appended on the pair's first return.
    std::uint32_t
    returnRow(std::uint32_t g, std::uint32_t k)
    {
        std::vector<BatchTrace::ReturnRow> &rows = out_.returnRows;
        const auto [at, added] = returnIndex_.try_emplace(
            std::uint64_t{k} << 32 | g,
            static_cast<std::uint32_t>(rows.size()));
        if (added) {
            checkTraceIndexCount(rows.size() + 1, "return rows");
            rows.push_back({g, k});
        }
        return at->second;
    }

    void
    push(std::uint32_t tag, std::uint32_t index)
    {
        ops_.push(tag | index << BatchTrace::kTagBits);
    }

    /// One intra-procedure edge with its source made global, so that
    /// onEdge reads one row and never touches the Program.
    struct EdgeRow
    {
        std::uint32_t src;
        /// CondBranch source: 1 for the Taken edge. IndirectJump source:
        /// the edge's row of BatchTrace::indirectEdges and indirectCount.
        std::uint32_t aux;
    };

    BatchTrace &out_;
    std::uint32_t cur_;  ///< executing global block, or none
    std::vector<std::uint32_t> edgeBase_;  ///< per proc: first EdgeRow
    std::vector<EdgeRow> edges_;
    /// Per global block, plus one: first index in out_.callSites.
    std::vector<std::uint32_t> callBase_;
    /// Per (call site, returning block), its row of out_.returnRows.
    std::unordered_map<std::uint64_t, std::uint32_t> returnIndex_;
    Staged<std::uint32_t> ops_;
    Staged<std::uint32_t> rasOps_;
};

}  // namespace

void
checkTraceIndexCount(std::size_t count, const char *what)
{
    if (count > kTraceIndexCap)
        fatal("program has %zu %s; a batched trace indexes at most "
              "kTraceIndexCap (%u) of them",
              count, what, kTraceIndexCap);
}

BatchTrace
walkBatchTrace(const Program &program, const WalkOptions &options,
               WalkResult *result)
{
    BatchTrace trace;
    BatchTraceBuilder builder(program, trace);
    const WalkResult walked = walkInto(program, options, builder);
    builder.finish();
    if (result != nullptr)
        *result = walked;
    return trace;
}

namespace {

void
addWeight(Procedure &proc, std::int64_t edge, std::uint64_t count)
{
    // An edge the walk never traversed may be absent (a dead end).
    if (count != 0)
        proc.edge(static_cast<std::uint32_t>(edge)).weight += count;
}

}  // namespace

ProgramStats
applyTraceProfile(Program &program, const BatchTrace &trace)
{
    program.setProfileProvenance(ProfileProvenance::Measured);
    ProgramStats stats;
    std::size_t slot = 0;
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        Procedure &proc = program.proc(p);
        for (const BasicBlock &block : proc.blocks()) {
            const std::uint32_t g = trace.blockBase[p] + block.id;
            const std::uint64_t taken = trace.takenCount[g];
            const std::uint64_t fall = trace.fallCount[g];
            stats.instrsTraced += trace.activations[g] * block.numInstrs;
            switch (block.term) {
              case Terminator::CondBranch:
                addWeight(proc, proc.takenEdge(block.id), taken);
                addWeight(proc, proc.fallThroughEdge(block.id), fall);
                stats.takenCondBranches += taken;
                break;
              case Terminator::UncondBranch:
                addWeight(proc, proc.takenEdge(block.id), taken);
                stats.uncondBranches += taken;
                break;
              case Terminator::FallThrough:
                addWeight(proc, proc.fallThroughEdge(block.id), fall);
                break;
              case Terminator::IndirectJump:
                for (const std::uint32_t index : block.outEdges)
                    proc.edge(index).weight += trace.indirectCount[slot++];
                break;
              case Terminator::Return:
                break;
            }
        }
    }
    stats.condBranches = trace.condExec;
    stats.indirectJumps = trace.indirectExec;
    stats.calls = trace.callExec;
    stats.returns = trace.returnExec;
    fillStaticStats(program, stats);
    return stats;
}

ProgramStats
profileProgram(Program &program, const WalkOptions &options)
{
    return applyTraceProfile(program, walkBatchTrace(program, options));
}

BatchTrace::DecodedOp
BatchTrace::decode(std::size_t i) const
{
    const std::uint32_t index = ops[i] >> kTagBits;
    switch (static_cast<Tag>(ops[i] & kTagMask)) {
      case kCondFall:
        return {Op::Cond, index, fallDst[index], 0};
      case kCondTaken:
        return {Op::Cond, index, takenDst[index], 1};
      case kUncond:
        return {Op::Uncond, index, takenDst[index], 0};
      case kFallJump:
        return {Op::FallJump, index, fallDst[index], 0};
      case kIndirect: {
        const IndirectRow &edge = indirectEdges[index];
        return {Op::Indirect, edge.src, edge.dst, 0};
      }
      case kCall: {
        const CallSiteRow &site = callSites[index];
        return {Op::Call, site.block, site.callee, site.offset};
      }
      case kRet: {
        const ReturnRow &row = returnRows[index];
        const CallSiteRow &site = callSites[row.site];
        return {Op::Ret, row.block, site.block, site.offset};
      }
      case kRetExit:
        break;
    }
    return {Op::RetExit, index, 0, 0};
}

BatchTrace::DecodedRas
BatchTrace::decodeRas(std::size_t i) const
{
    const std::uint32_t word = rasOps[i];
    const auto op = static_cast<std::uint8_t>(word & 3);
    if (op == 2)
        return {op, 0, 0};
    const CallSiteRow &site = callSites[word >> 2];
    return {op, site.block, site.offset};
}

void
BatchTrace::flipCondEdge(std::size_t i)
{
    if ((ops[i] & kTagMask) > kCondTaken)
        panic("BatchTrace::flipCondEdge: op %zu is not a Cond", i);
    ops[i] ^= 1;
}

std::size_t
BatchTrace::sizeBytes() const
{
    auto bytes = [](const auto &v) {
        return v.capacity() * sizeof(v[0]);
    };
    return bytes(blockBase) + bytes(term) + bytes(takenDst) +
           bytes(fallDst) + bytes(callSites) + bytes(indirectEdges) +
           bytes(returnRows) + bytes(ops) + bytes(rasOps) +
           bytes(activations) + bytes(takenCount) + bytes(fallCount) +
           bytes(indirectCount);
}

namespace {

/// One global block's layout facts.
struct BlockRow
{
    Addr addr = 0;
    Addr branchAddr = 0;
    Addr jumpAddr = 0;
    std::uint32_t baseInstrs = 0;
    std::uint8_t cond = 0;  ///< CondRealization
    std::uint8_t jumpInserted = 0;
    std::uint8_t jumpRemoved = 0;
};

/// What a PHT-family lane reads of a conditional block, packed so that a
/// scan touches 16 bytes per site: the branch address and the realized
/// direction for each traversed edge (kOutTaken).
struct CondRow
{
    Addr site = 0;
    std::uint8_t taken[2] = {0, 0};
};

/// One call site's layout facts: its address and the callee's entry.
struct CallRow
{
    Addr addr = 0;
    Addr target = 0;
};

/// Per-layout tables: every fact the pass gathers, one row per global
/// block and one per call site, so the inner loops never touch Program
/// or ProgramLayout and a lane reads one row per op.
struct LayoutTables
{
    std::vector<BlockRow> block;  ///< per global block
    std::vector<CondRow> cond;    ///< per global block
    std::vector<CallRow> call;    ///< per BatchTrace::callSites entry
};

LayoutTables
flattenLayout(const BatchTrace &trace, const ProgramLayout &layout)
{
    LayoutTables t;
    t.block.resize(trace.totalBlocks);
    t.cond.resize(trace.totalBlocks);
    std::vector<Addr> entry_addr(layout.procs.size());

    for (ProcId p = 0; p < layout.procs.size(); ++p) {
        const ProcLayout &proc = layout.procs[p];
        entry_addr[p] = layout.procEntryAddr(p);
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
            CondRow &cond = t.cond[base + b];
            cond.site = bl.branchAddr;
            cond.taken[0] = kOutTaken[row.cond][0] ? 1 : 0;
            cond.taken[1] = kOutTaken[row.cond][1] ? 1 : 0;
        }
    }
    // Call sites need final block addresses.
    t.call.reserve(trace.callSites.size());
    for (const BatchTrace::CallSiteRow &site : trace.callSites)
        t.call.push_back(
            {t.block[site.block].addr + site.offset, entry_addr[site.callee]});
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
    for (const std::uint32_t word : trace.rasOps) {
        switch (word & 3) {
          case 0:
            ras.push(tables.call[word >> 2].addr + 1);
            break;
          case 1:
            correct += ras.pop() == tables.call[word >> 2].addr + 1;
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
        : out(&result), cond_(tables.cond.data()),
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
        const CondRow *cond = cond_;
        std::uint8_t *table = table_.data();
        std::uint32_t *histories = histories_.data();
        const std::uint8_t max = max_;
        const std::size_t site_mask = siteMask_;
        const std::uint64_t history_mask = historyMask_;
        std::uint64_t history = history_;
        std::uint64_t misp = 0;
        std::uint64_t misf = 0;
        for (std::size_t k = 0; k < n; ++k) {
            const CondRow &row = cond[src[k]];
            const Addr site = row.site;
            const std::uint8_t taken = row.taken[via[k]];
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
    const CondRow *cond_;
    std::uint8_t max_;
    std::size_t siteMask_;
    std::uint64_t historyMask_ = 0;
    std::uint64_t history_ = 0;
    std::vector<std::uint32_t> histories_;  ///< per site (local only)
    std::vector<std::uint8_t> table_;
};

/// Site ids of the trace's call sites, indexed like
/// BatchTrace::callSites: one id per distinct (block, offset), since two
/// calls at one offset share an address. Call sites are program facts, so
/// one table serves every layout of a replay. Ids follow the
/// 2 * totalBlocks block-branch and inserted-jump ids (BtbLane).
struct CallSiteIds
{
    std::vector<std::uint32_t> id;  ///< per call site
    std::uint32_t sites = 0;        ///< every site id, calls included

    explicit CallSiteIds(const BatchTrace &trace)
        : id(trace.callSites.size()), sites(2 * trace.totalBlocks)
    {
        const std::vector<BatchTrace::CallSiteRow> &rows = trace.callSites;
        for (std::size_t k = 0; k < rows.size(); ++k) {
            // A block's call sites are adjacent: reuse an earlier one's id
            // at the same offset.
            std::uint32_t sid = kNoIndex;
            for (std::size_t j = k; j-- > 0;) {
                if (rows[j].block != rows[k].block)
                    break;
                if (rows[j].offset == rows[k].offset) {
                    sid = id[j];
                    break;
                }
            }
            id[k] = sid != kNoIndex ? sid : sites++;
        }
    }
};

/// The branch target buffer (paper §3): set-associative, LRU by update
/// tick. Only taken branches are inserted, each entry holding its target
/// and a saturating counter reset to weakly taken; a hit trains the
/// counter, and a taken hit also retrains the target.
///
/// A lookup names its branch by a site id as well as its address: a dense
/// index fixed per layout, distinct for distinct addresses (BtbLane). So
/// no tag is compared. A byte map holds, per site, the way the site lives
/// in, or `ways` when it is absent, and each set has one slot past its
/// ways that is never filled and whose counter predicts not-taken: entry
/// `set * (ways + 1) + way[sid]` is the hit or the set's miss slot, read
/// without a branch. An entry keeps its site id in place of a tag. A
/// taken miss evicts the set's first least-recently-used way (unused ways
/// hold tick 0, so they go first, lowest way first) and marks the
/// evicted site absent.
class Btb
{
  public:
    /// Where a site is: its entry, or its set's miss slot.
    struct Lookup
    {
        std::size_t index;
        bool hit;
    };

    /// A BTB of @p entries in @p ways for site ids below @p sites.
    Btb(std::size_t entries, std::size_t ways, unsigned counter_bits,
        std::uint32_t sites)
        : ways_(checkedWays(entries, ways)), stride_(ways + 1),
          setMask_(entries / ways - 1),
          max_(static_cast<std::uint8_t>((1u << counter_bits) - 1)),
          // Unused entries name the spare site past the last real one, so
          // an eviction can mark its victim absent without a branch.
          entries_(entries / ways * stride_, Entry{0, 0, sites, 0}),
          way_(std::size_t{sites} + 1, static_cast<std::uint8_t>(ways))
    {
    }

    Lookup
    find(std::uint32_t sid, Addr site) const
    {
        const std::uint8_t way = way_[sid];
        return {(site & setMask_) * stride_ + way, way != ways_};
    }

    bool counterTaken(const Lookup &at) const
    {
        return saturatingTaken(entries_[at.index].counter, max_);
    }
    Addr target(const Lookup &at) const { return entries_[at.index].target; }

    /// Trains the BTB on site @p sid, whose lookup find() just returned
    /// as @p at: nothing touches the BTB between the lookup and the
    /// update, so the update reuses it. A site with one target per
    /// layout passes none: its entry's target is never read (BtbLane).
    void
    updateAt(const Lookup &at, std::uint32_t sid, bool taken,
             Addr target = 0)
    {
        ++tick_;
        if (at.hit) {
            Entry &entry = entries_[at.index];
            entry.counter = saturatingUpdate(entry.counter, max_, taken);
            entry.target = taken ? target : entry.target;
            entry.lastUse = tick_;
            return;
        }
        if (!taken)
            return;  // only taken branches are inserted
        const std::size_t set = at.index - ways_;
        std::size_t victim = set;
        for (std::size_t w = 1; w < ways_; ++w) {
            if (entries_[set + w].lastUse < entries_[victim].lastUse)
                victim = set + w;
        }
        Entry &entry = entries_[victim];
        way_[entry.sid] = static_cast<std::uint8_t>(ways_);
        way_[sid] = static_cast<std::uint8_t>(victim - set);
        entry.sid = sid;
        entry.target = target;
        entry.counter =
            static_cast<std::uint8_t>(max_ / 2 + 1);  // resetWeak(true)
        entry.lastUse = tick_;
    }

  private:
    struct Entry
    {
        Addr target;
        std::uint64_t lastUse;
        std::uint32_t sid;
        std::uint8_t counter;
    };

    /// @p ways, once the geometry is one the engine can simulate: a
    /// power-of-two set count, and at most 255 ways so that a way and the
    /// absent marker fit the byte map.
    static std::size_t
    checkedWays(std::size_t entries, std::size_t ways)
    {
        if (entries == 0 || ways == 0 || entries % ways != 0)
            panic("batch replay: bad BTB geometry %zux%zu", entries, ways);
        const std::size_t sets = entries / ways;
        if ((sets & (sets - 1)) != 0)
            panic("batch replay: BTB sets must be a power of two");
        if (ways > 255)
            panic("batch replay: BTB ways %zu exceed the way map's 255",
                  ways);
        return ways;
    }

    std::size_t ways_;
    std::size_t stride_;  ///< ways plus the miss slot
    std::size_t setMask_;
    std::uint8_t max_;
    std::uint64_t tick_ = 0;
    std::vector<Entry> entries_;
    std::vector<std::uint8_t> way_;  ///< per site id, plus one spare
};

/// One BTB lane: its BTB, its own return stack (interleaved with the
/// lookups) and the penalty counters it accumulates; the execution-mix
/// counters come from SharedCounters. Each op method reads its layout's
/// tables and tallies penalties arithmetically from the lookup, by the
/// paper's penalty rules (bpred/evaluator.h).
///
/// Site ids: block g's terminator branch is g, its inserted jump is
/// totalBlocks + g, and call site k takes CallSiteIds::id[k]. Within one
/// layout distinct sites have distinct addresses (DESIGN §11.2), so an id
/// stands for its address exactly.
///
/// A conditional branch, a kept unconditional branch and an inserted jump
/// have one target per site id, so an entry of theirs always holds the
/// target a lookup would compare it with: their lookups neither read nor
/// store one. Calls, indirect jumps and returns do compare, since one id
/// can have several targets: two calls at one offset to different
/// callees share an id.
class BtbLane
{
  public:
    BtbLane(const EvalParams &params, const LayoutTables &tables,
            const CallSiteIds &calls, const BatchTrace &trace,
            EvalResult &result)
        : out(&result), block_(tables.block.data()),
          call_(tables.call.data()), callSid_(calls.id.data()),
          indirect_(trace.indirectEdges.data()),
          return_(trace.returnRows.data()), jumpSid_(trace.totalBlocks),
          btb_(params.btbEntries, params.btbWays, params.counterBits,
               calls.sites),
          ras_(params.rasEntries)
    {
    }

    void
    cond(std::uint32_t a, std::uint32_t via)
    {
        const BlockRow &src = block_[a];
        const bool taken = kOutTaken[src.cond][via];
        const Btb::Lookup e = btb_.find(a, src.branchAddr);
        btbHits += e.hit;
        // The oracle also mispredicts a predicted-taken conditional whose
        // stored target is wrong; a fixed target makes that unreachable.
        condMispredicts += btb_.counterTaken(e) != taken;
        btb_.updateAt(e, a, taken);
        if (kOutJump[src.cond][via])
            fixedBreak(jumpSid_ + a, src.jumpAddr);
    }

    void
    uncond(std::uint32_t a)
    {
        const BlockRow &src = block_[a];
        if (src.jumpRemoved == 0)
            fixedBreak(a, src.branchAddr);
    }

    void
    fallJump(std::uint32_t a)
    {
        const BlockRow &src = block_[a];
        if (src.jumpInserted != 0)
            fixedBreak(jumpSid_ + a, src.jumpAddr);
    }

    /// The indirect-jump edge of row @p row of BatchTrace::indirectEdges.
    void
    indirect(std::uint32_t row)
    {
        const BatchTrace::IndirectRow &edge = indirect_[row];
        const std::uint32_t a = edge.src;
        const Addr target = block_[edge.dst].addr;
        const Btb::Lookup e = btb_.find(a, block_[a].branchAddr);
        btbHits += e.hit;
        indirectMispredicts +=
            !(btb_.counterTaken(e) & (btb_.target(e) == target));
        btb_.updateAt(e, a, true, target);
    }

    /// An always-taken break with a decode-time target, like
    /// fixedBreak, but its id may have several targets.
    void
    call(std::uint32_t site)
    {
        const CallRow &c = call_[site];
        const std::uint32_t sid = callSid_[site];
        ras_.push(c.addr + 1);
        const Btb::Lookup e = btb_.find(sid, c.addr);
        btbHits += e.hit;
        misfetches += !(btb_.counterTaken(e) & (btb_.target(e) == c.target));
        btb_.updateAt(e, sid, true, c.target);
    }

    /// The return of row @p row of BatchTrace::returnRows. A wrong
    /// return-stack prediction mispredicts whether or not the BTB hits; a
    /// right one misfetches only on a BTB miss.
    void
    ret(std::uint32_t row)
    {
        const std::uint32_t a = return_[row].block;
        const Addr target = call_[return_[row].site].addr + 1;
        const bool ras_correct = ras_.pop() == target;
        const Btb::Lookup e = btb_.find(a, block_[a].branchAddr);
        btbHits += e.hit;
        returnMispredicts += !ras_correct;
        misfetches += !e.hit & ras_correct;
        btb_.updateAt(e, a, true, target);
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
    /// hit predicting taken (with the right target, which a fixed target
    /// always is) is free, everything else redirects after decode.
    void
    fixedBreak(std::uint32_t sid, Addr site)
    {
        const Btb::Lookup e = btb_.find(sid, site);
        btbHits += e.hit;
        misfetches += !btb_.counterTaken(e);
        btb_.updateAt(e, sid, true);
    }

    const BlockRow *block_;
    const CallRow *call_;
    const std::uint32_t *callSid_;
    const BatchTrace::IndirectRow *indirect_;
    const BatchTrace::ReturnRow *return_;
    std::uint32_t jumpSid_;  ///< site id of block 0's inserted jump
    Btb btb_;
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
    const std::uint32_t *ops = trace.ops.data();
    const std::size_t n = trace.ops.size();
    for (std::size_t begin = 0; begin < n; begin += kChunk) {
        const std::size_t end = std::min(n, begin + kChunk);
        if (any_pht) {
            std::size_t conds = 0;
            for (std::size_t i = begin; i < end; ++i) {
                const std::uint32_t word = ops[i];
                cond_src[conds] = word >> BatchTrace::kTagBits;
                cond_via[conds] = static_cast<std::uint8_t>(word & 1);
                conds += (word & BatchTrace::kTagMask) <=
                         BatchTrace::kCondTaken;
            }
            for (PhtLane &lane : lanes.pht)
                lane.scan<false>(cond_src.data(), cond_via.data(), conds);
            for (PhtLane &lane : lanes.local)
                lane.scan<true>(cond_src.data(), cond_via.data(), conds);
        }
        if (lanes.btb.empty())
            continue;
        for (std::size_t i = begin; i < end; ++i) {
            const std::uint32_t word = ops[i];
            const std::uint32_t index = word >> BatchTrace::kTagBits;
            const auto tag =
                static_cast<BatchTrace::Tag>(word & BatchTrace::kTagMask);
            switch (tag) {
              case BatchTrace::kCondFall:
              case BatchTrace::kCondTaken:
                for (BtbLane &lane : lanes.btb)
                    lane.cond(index, word & 1);
                break;
              case BatchTrace::kUncond:
                for (BtbLane &lane : lanes.btb)
                    lane.uncond(index);
                break;
              case BatchTrace::kFallJump:
                for (BtbLane &lane : lanes.btb)
                    lane.fallJump(index);
                break;
              case BatchTrace::kIndirect:
                for (BtbLane &lane : lanes.btb)
                    lane.indirect(index);
                break;
              case BatchTrace::kCall:
                for (BtbLane &lane : lanes.btb)
                    lane.call(index);
                break;
              case BatchTrace::kRet:
                for (BtbLane &lane : lanes.btb)
                    lane.ret(index);
                break;
              case BatchTrace::kRetExit:
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
    std::optional<CallSiteIds> calls;  // built for the first BTB lane
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
                if (!calls)
                    calls.emplace(trace);
                dynamic.btb.emplace_back(params, t, *calls, trace, r);
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
                // Backward taken: compare the branch with its realized
                // target, the dst of the edge it branches over.
                std::vector<std::uint8_t> predict(trace.totalBlocks, 0);
                for (std::uint32_t g = 0; g < trace.totalBlocks; ++g) {
                    if (static_cast<Terminator>(trace.term[g]) !=
                        Terminator::CondBranch)
                        continue;
                    const BlockRow &row = t.block[g];
                    const std::uint32_t dst =
                        branchTargetKind(static_cast<CondRealization>(
                            row.cond)) == EdgeKind::Taken
                            ? trace.takenDst[g]
                            : trace.fallDst[g];
                    predict[g] =
                        btFntPredictsTaken(row.branchAddr, t.block[dst].addr)
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
