#include "core/exttsp_align.h"

#include <algorithm>
#include <limits>

#include "core/greedy.h"

namespace balign {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/**
 * The merge loop of one procedure (DESIGN §9.2). Candidates are the
 * alignable edges in alignableEdgesByWeight order; a candidate's rank is
 * its index there. A max-heap holds (gain, rank) entries, and queued_
 * holds each candidate's live gain (NaN when it has none): an entry whose
 * gain is not its candidate's live gain is stale. A candidate is queued
 * only while it is feasible and not blocked by its sibling.
 *
 * Each chain is named by the block it started as. A block's instruction
 * offset and ordinal within its chain are stored relative to a per-chain
 * base, so a merge relabels only the shorter chain. Each chain also keeps
 * a linked list of the alignable edges incident to it; an edge whose ends
 * have come into one chain stays listed until a walk drops it.
 */
class MergeLoop
{
  public:
    MergeLoop(const Procedure &proc, const ExtTspParams &params,
              const std::vector<std::uint32_t> &by_weight)
        : proc_(proc),
          params_(params),
          chains_(proc.numBlocks(), proc.entry()),
          candidates_(by_weight),
          edges_(proc.numEdges()),
          members_(proc.numBlocks()),
          chainInfo_(proc.numBlocks()),
          queued_(candidates_.size(),
                  std::numeric_limits<double>::quiet_NaN()),
          stamp_(candidates_.size(), 0)
    {
        for (std::size_t i = 0; i < candidates_.size(); ++i)
            edges_[candidates_[i]].rank = static_cast<std::uint32_t>(i);
        for (BlockId b = 0; b < proc.numBlocks(); ++b) {
            const BasicBlock &block = proc.block(b);
            members_[b].chain = b;
            chainInfo_[b] = {0, 0, block.numInstrs, b, b, kNone, kNone, 0};
            if (block.term == Terminator::CondBranch) {
                const auto taken =
                    static_cast<std::uint32_t>(proc.takenEdge(b));
                const auto fall =
                    static_cast<std::uint32_t>(proc.fallThroughEdge(b));
                edges_[taken].sibling = fall;
                edges_[fall].sibling = taken;
            }
        }
        nodes_.reserve(2 * candidates_.size());
        for (const std::uint32_t index : candidates_) {
            const Edge &edge = proc.edge(index);
            if (edge.src == edge.dst)
                continue;
            append(edge.src, index);
            append(edge.dst, index);
        }
    }

    ChainSet
    run()
    {
        heap_.reserve(candidates_.size());
        for (std::uint32_t r = 0; r < candidates_.size(); ++r) {
            if (feasible(r))
                reprice(r, false);
        }
        std::make_heap(heap_.begin(), heap_.end(), lower);
        while (!heap_.empty()) {
            std::pop_heap(heap_.begin(), heap_.end(), lower);
            const Entry top = heap_.back();
            heap_.pop_back();
            // Entries with equal (gain, rank) are interchangeable, and a
            // NaN live gain matches no entry.
            if (top.gain != queued_[top.rank])
                continue;
            queued_[top.rank] = std::numeric_limits<double>::quiet_NaN();
            if (feasible(top.rank))
                merge(proc_.edge(candidates_[top.rank]));
        }
        return std::move(chains_);
    }

  private:
    struct EdgeInfo
    {
        std::uint32_t rank = kNone;     ///< candidate rank (alignable only)
        std::uint32_t sibling = kNone;  ///< other out-edge of a cond block
    };

    struct Member
    {
        BlockId chain = 0;        ///< chain the block is in
        std::int64_t offset = 0;  ///< instruction offset minus offsetBase
        std::int64_t index = 0;   ///< ordinal minus indexBase
    };

    struct ChainInfo
    {
        std::int64_t offsetBase;
        std::int64_t indexBase;
        std::uint64_t size;   ///< total instructions
        BlockId head;
        BlockId tail;
        std::uint32_t first;  ///< incident-edge list, into nodes_
        std::uint32_t last;
        std::uint32_t listed;
    };

    struct Node
    {
        std::uint32_t edge;
        std::uint32_t next;
    };

    struct Entry
    {
        double gain;
        std::uint32_t rank;
    };

    /// A crossing edge of the pair being priced, with its place in the sum.
    struct Term
    {
        bool fromB;             ///< source in the second chain
        std::int64_t index;     ///< source's ordinal in its chain
        std::uint32_t edge;
    };

    /// Heap order: higher gain first, then lower rank.
    static bool
    lower(const Entry &a, const Entry &b)
    {
        if (a.gain != b.gain)
            return a.gain < b.gain;
        return a.rank > b.rank;
    }

    std::uint64_t
    offset(BlockId b) const
    {
        const Member &m = members_[b];
        return static_cast<std::uint64_t>(m.offset +
                                          chainInfo_[m.chain].offsetBase);
    }

    std::int64_t
    ordinal(BlockId b) const
    {
        const Member &m = members_[b];
        return m.index + chainInfo_[m.chain].indexBase;
    }

    void
    append(BlockId chain, std::uint32_t edge)
    {
        const auto node = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back({edge, kNone});
        ChainInfo &info = chainInfo_[chain];
        if (info.last == kNone)
            info.first = node;
        else
            nodes_[info.last].next = node;
        info.last = node;
        ++info.listed;
    }

    bool
    feasible(std::uint32_t rank) const
    {
        const Edge &edge = proc_.edge(candidates_[rank]);
        return chains_.canLink(edge.src, edge.dst);
    }

    /// A conditional source offers only its better-ranked out-edge while
    /// both are feasible (see the header comment).
    bool
    blocked(std::uint32_t rank) const
    {
        const EdgeInfo &info = edges_[candidates_[rank]];
        if (info.sibling == kNone || edges_[info.sibling].rank > rank)
            return false;
        const Edge &sibling = proc_.edge(info.sibling);
        return chains_.canLink(sibling.src, sibling.dst);
    }

    /// Re-prices feasible candidate @p rank; pushes an entry unless its
    /// live gain is unchanged. A blocked candidate is left out until its
    /// sibling becomes infeasible, which re-prices it; the sibling's
    /// feasibility only ever goes, so a queued candidate is never blocked.
    void
    reprice(std::uint32_t rank, bool sift = true)
    {
        if (blocked(rank))
            return;
        const double gain = mergeGain(proc_.edge(candidates_[rank]));
        if (gain == queued_[rank])
            return;
        // Only a gain above -1 was ever eligible (NaN never is).
        queued_[rank] =
            gain > -1.0 ? gain : std::numeric_limits<double>::quiet_NaN();
        if (gain > -1.0) {
            heap_.push_back({gain, rank});
            if (sift)
                std::push_heap(heap_.begin(), heap_.end(), lower);
        }
    }

    /// Index of edge @p index in the out-edge list of its source.
    std::size_t
    slot(std::uint32_t index) const
    {
        const std::vector<std::uint32_t> &out =
            proc_.block(proc_.edge(index).src).outEdges;
        return static_cast<std::size_t>(
            std::find(out.begin(), out.end(), index) - out.begin());
    }

    /// ExtTSP gain of concatenating t's chain after s's: the new score of
    /// every CFG edge crossing the two chains (cross edges score 0 while
    /// the chains are apart; intra-chain distances are unchanged). Terms
    /// are summed in chain order of their sources, first chain first, and
    /// in out-edge order within a block.
    double
    mergeGain(const Edge &seed)
    {
        const BlockId a = members_[seed.src].chain;
        const BlockId b = members_[seed.dst].chain;
        const BlockId walked =
            chainInfo_[a].listed <= chainInfo_[b].listed ? a : b;
        terms_.clear();
        ChainInfo &list = chainInfo_[walked];
        std::uint32_t prev = kNone;
        for (std::uint32_t node = list.first; node != kNone;) {
            const std::uint32_t next = nodes_[node].next;
            const std::uint32_t index = nodes_[node].edge;
            const Edge &edge = proc_.edge(index);
            const BlockId from = members_[edge.src].chain;
            const BlockId to = members_[edge.dst].chain;
            if (from == to) {
                // Inside one chain for good: unlink.
                if (prev == kNone)
                    list.first = next;
                else
                    nodes_[prev].next = next;
                if (list.last == node)
                    list.last = prev;
                --list.listed;
            } else {
                if ((from == a && to == b) || (from == b && to == a))
                    terms_.push_back({from == b, ordinal(edge.src), index});
                prev = node;
            }
            node = next;
        }
        std::sort(terms_.begin(), terms_.end(),
                  [&](const Term &x, const Term &y) {
                      if (x.fromB != y.fromB)
                          return y.fromB;
                      if (x.index != y.index)
                          return x.index < y.index;
                      return slot(x.edge) < slot(y.edge);
                  });

        const std::uint64_t shift = chainInfo_[a].size;
        double gain = 0.0;
        for (const Term &term : terms_) {
            const Edge &edge = proc_.edge(term.edge);
            const std::uint64_t pos_u =
                offset(edge.src) + (term.fromB ? shift : 0);
            const std::uint64_t pos_v =
                offset(edge.dst) + (term.fromB ? 0 : shift);
            const std::uint64_t end_u =
                pos_u + proc_.block(edge.src).numInstrs;
            if (pos_v == end_u) {
                gain += static_cast<double>(edge.weight) *
                        params_.fallthroughWeight;
            } else {
                gain += extTspJumpScore(params_, end_u, pos_v, edge.weight);
            }
        }
        return gain;
    }

    /// Marks candidate @p rank for re-pricing after the current merge.
    void
    touch(std::uint32_t rank)
    {
        if (rank == kNone || stamp_[rank] == merges_)
            return;
        stamp_[rank] = merges_;
        touched_.push_back(rank);
    }

    /// Links @p seed and re-prices every candidate whose gain or
    /// eligibility the merge can have changed.
    void
    merge(const Edge &seed)
    {
        ++merges_;
        touched_.clear();
        const BlockId a = members_[seed.src].chain;
        const BlockId b = members_[seed.dst].chain;
        const BlockId head = chainInfo_[a].head;

        // Every candidate into the merged chain's head is priced against
        // the head's chain, which grows by b; reprice() queues nothing for
        // one whose gain is unchanged.
        for (const std::uint32_t index : proc_.block(head).inEdges)
            touch(edges_[index].rank);

        chains_.link(seed.src, seed.dst);
        join(a, b, seed.src, seed.dst);

        // A candidate into seed.dst from another conditional block is now
        // infeasible; its sibling, if it was blocked by it, is free again.
        for (const std::uint32_t index : proc_.block(seed.dst).inEdges) {
            const std::uint32_t sibling = edges_[index].sibling;
            if (sibling != kNone &&
                edges_[index].rank < edges_[sibling].rank)
                touch(edges_[sibling].rank);
        }
        // Every candidate out of the merged chain's tail is priced
        // against the longer chain now.
        for (const std::uint32_t index :
             proc_.block(chainInfo_[members_[seed.src].chain].tail).outEdges)
            touch(edges_[index].rank);

        for (const std::uint32_t rank : touched_) {
            if (feasible(rank))
                reprice(rank);
        }
    }

    /// Appends chain @p b (head @p b_head) after chain @p a (tail
    /// @p a_tail) in the position tables and edge lists.
    void
    join(BlockId a, BlockId b, BlockId a_tail, BlockId b_head)
    {
        ChainInfo &front = chainInfo_[a];
        ChainInfo &back = chainInfo_[b];
        const std::int64_t front_size = static_cast<std::int64_t>(front.size);
        const std::int64_t front_length =
            ordinal(a_tail) + 1;  // ordinals run 0..length-1
        const std::int64_t back_length =
            ordinal(back.tail) + 1;
        BlockId keep;
        if (back_length <= front_length) {
            keep = a;
            for (BlockId u = b_head; u != kNoBlock; u = chains_.next(u)) {
                Member &m = members_[u];
                m.offset += back.offsetBase + front_size - front.offsetBase;
                m.index += back.indexBase + front_length - front.indexBase;
                m.chain = a;
            }
        } else {
            keep = b;
            back.offsetBase += front_size;
            back.indexBase += front_length;
            for (BlockId u = front.head;; u = chains_.next(u)) {
                Member &m = members_[u];
                m.offset += front.offsetBase - back.offsetBase;
                m.index += front.indexBase - back.indexBase;
                m.chain = b;
                if (u == a_tail)
                    break;
            }
        }
        ChainInfo &kept = chainInfo_[keep];
        const ChainInfo &gone = chainInfo_[keep == a ? b : a];
        kept.size = front.size + back.size;
        kept.head = front.head;
        kept.tail = back.tail;
        if (gone.first != kNone) {
            if (kept.last == kNone)
                kept.first = gone.first;
            else
                nodes_[kept.last].next = gone.first;
            kept.last = gone.last;
        }
        kept.listed += gone.listed;
    }

    const Procedure &proc_;
    const ExtTspParams &params_;
    ChainSet chains_;
    const std::vector<std::uint32_t> &candidates_;
    std::vector<EdgeInfo> edges_;
    std::vector<Member> members_;
    std::vector<ChainInfo> chainInfo_;
    std::vector<Node> nodes_;
    std::vector<Entry> heap_;
    std::vector<double> queued_;
    std::vector<std::uint32_t> stamp_;
    std::vector<std::uint32_t> touched_;
    std::vector<Term> terms_;
    std::uint32_t merges_ = 0;
};

}  // namespace

ChainSet
ExtTspAligner::alignProc(const Procedure &proc, const DirOracle &oracle,
                         const std::vector<std::uint32_t> &by_weight) const
{
    (void)oracle;  // ExtTSP has no direction dependence
    return MergeLoop(proc, params_, by_weight).run();
}

}  // namespace balign
