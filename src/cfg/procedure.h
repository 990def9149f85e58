/**
 * @file
 * Procedure: a control-flow graph of basic blocks with weighted edges.
 */

#ifndef BALIGN_CFG_PROCEDURE_H
#define BALIGN_CFG_PROCEDURE_H

#include <cstddef>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "cfg/basic_block.h"
#include "support/types.h"

namespace balign {

/**
 * One block's out- or in-edges, as indices into Procedure::edges(), in the
 * order Procedure::addEdge appended them: a forward range over a circular
 * list threaded through the procedure's per-edge links, entered at its
 * last edge, whose link leads back to the first. Like a vector iterator,
 * it is invalidated by the procedure's next addEdge.
 */
class EdgeList
{
  public:
    /// The last edge of an empty list, and the end iterator's position.
    static constexpr std::uint32_t kEnd = 0xFFFFFFFFu;

    class iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = std::uint32_t;
        using difference_type = std::ptrdiff_t;
        using pointer = const std::uint32_t *;
        using reference = std::uint32_t;

        iterator() = default;
        iterator(const std::uint32_t *next, std::uint32_t index,
                 std::uint32_t last)
            : next_(next), index_(index), last_(last)
        {}

        std::uint32_t operator*() const { return index_; }
        iterator &
        operator++()
        {
            index_ = index_ == last_ ? kEnd : next_[index_];
            return *this;
        }
        iterator
        operator++(int)
        {
            const iterator old = *this;
            ++*this;
            return old;
        }
        bool operator==(const iterator &other) const
        {
            return index_ == other.index_;
        }

      private:
        const std::uint32_t *next_ = nullptr;
        std::uint32_t index_ = kEnd;
        std::uint32_t last_ = kEnd;
    };

    EdgeList(const std::uint32_t *next, std::uint32_t last)
        : next_(next), last_(last)
    {}

    iterator begin() const { return {next_, empty() ? kEnd : front(), last_}; }
    iterator end() const { return {next_, kEnd, last_}; }
    bool empty() const { return last_ == kEnd; }
    /// The first edge; the list must not be empty.
    std::uint32_t front() const { return next_[last_]; }
    /// Number of edges, counted along the list.
    std::size_t size() const
    {
        return static_cast<std::size_t>(std::distance(begin(), end()));
    }

  private:
    const std::uint32_t *next_;
    std::uint32_t last_;
};

/**
 * A procedure's control-flow graph.
 *
 * Blocks are stored densely; the block vector order is the ORIGINAL layout
 * order (the order a compiler emitted them), which defines the baseline the
 * alignment algorithms improve on. Block 0 is the entry unless overridden.
 *
 * The procedure owns the adjacency: per block the last edge of its out-
 * and in-list, per edge the next edge of each (see EdgeList). addEdge
 * appends in O(1), lists read in insertion order, and nothing is built
 * lazily, so const reads are safe from any number of threads. Callers
 * may rewrite blocks and edges in place but not add or remove them other
 * than through addBlock/addEdge; retargeting an edge's endpoints leaves
 * the lists stale, which the cfg.edge-targets rule reports.
 */
class Procedure
{
  public:
    Procedure() = default;
    Procedure(ProcId id, std::string name) : id_(id), name_(std::move(name)) {}

    ProcId id() const { return id_; }
    const std::string &name() const { return name_; }
    void setId(ProcId id) { id_ = id; }
    void setName(std::string name) { name_ = std::move(name); }

    BlockId entry() const { return entry_; }
    void setEntry(BlockId entry) { entry_ = entry; }

    std::size_t numBlocks() const { return blocks_.size(); }
    std::size_t numEdges() const { return edges_.size(); }

    const BasicBlock &block(BlockId id) const { return blocks_[id]; }
    BasicBlock &block(BlockId id) { return blocks_[id]; }

    const std::vector<BasicBlock> &blocks() const { return blocks_; }
    std::span<BasicBlock> blocks() { return blocks_; }

    const Edge &edge(std::uint32_t index) const { return edges_[index]; }
    Edge &edge(std::uint32_t index) { return edges_[index]; }

    const std::vector<Edge> &edges() const { return edges_; }
    std::span<Edge> edges() { return edges_; }

    /// @p id's out-edges, in the order addEdge appended them.
    EdgeList
    outEdges(BlockId id) const
    {
        return {outNext_.data(), outLast_[id]};
    }

    /// @p id's in-edges, in the order addEdge appended them.
    EdgeList
    inEdges(BlockId id) const
    {
        return {inNext_.data(), inLast_[id]};
    }

    /// Appends a block; returns its id.
    BlockId addBlock(std::uint32_t num_instrs, Terminator term);

    /// Appends an edge to the end of @p src's out-list and @p dst's
    /// in-list.
    std::uint32_t addEdge(BlockId src, BlockId dst, EdgeKind kind,
                          Weight weight = 0, double bias = 0.0);

    /**
     * Index of the outgoing edge of @p src with the given kind, or -1 if
     * absent. CondBranch blocks have exactly one Taken and one FallThrough
     * edge; UncondBranch one Taken; FallThrough-terminated one FallThrough.
     */
    std::int64_t findOutEdge(BlockId src, EdgeKind kind) const;

    /// Taken-edge index of @p src or -1.
    std::int64_t takenEdge(BlockId src) const
    {
        return findOutEdge(src, EdgeKind::Taken);
    }

    /// Fall-through-edge index of @p src or -1.
    std::int64_t fallThroughEdge(BlockId src) const
    {
        return findOutEdge(src, EdgeKind::FallThrough);
    }

    /// Total static instruction count over all blocks (original layout).
    std::uint64_t totalInstrs() const;

    /// Sum of all edge weights (dynamic transition count).
    Weight totalEdgeWeight() const;

    /// Resets every edge weight to zero (before re-profiling).
    void clearWeights();

    /// Number of executions of a block = sum of in-edge weights
    /// (entry blocks also count calls; see Program-level accounting).
    Weight blockWeight(BlockId id) const;

  private:
    ProcId id_ = kNoProc;
    std::string name_;
    BlockId entry_ = 0;
    std::vector<BasicBlock> blocks_;
    std::vector<Edge> edges_;
    /// Per block: the last edge of its out- and in-list, kEnd when empty.
    std::vector<std::uint32_t> outLast_;
    std::vector<std::uint32_t> inLast_;
    /// Per edge: the next edge of its source's out-list and of its
    /// destination's in-list (the first, from a list's last edge).
    std::vector<std::uint32_t> outNext_;
    std::vector<std::uint32_t> inNext_;
};

}  // namespace balign

#endif  // BALIGN_CFG_PROCEDURE_H
