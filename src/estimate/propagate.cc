/**
 * @file
 * Frequency propagation and integer flow materialization.
 *
 * Two passes over one procedure:
 *
 *  1. propagateFrequencies — Wu-Larus (MICRO'94): real-valued expected
 *     block executions per invocation. Loops are processed
 *     innermost-first; each loop's cyclic probability (the expected
 *     back-edge mass per header entry) turns into a 1/(1-cp) header
 *     multiplier for the enclosing region. One set of sweeps yields two
 *     solutions: `block` caps cyclic probabilities with the trip-count
 *     prior (it scales the call graph), `flow` does not — it is the
 *     Markov solution of the transition probabilities, and the integer
 *     profile follows it. Irreducible CFGs get a bounded Gauss-Seidel
 *     fallback instead — explicitly flagged, never silently
 *     mis-modelled.
 *
 *  2. materializeFlow — the integer profile, in one demand-driven pass
 *     over the loop forest. The entry count is split over the places
 *     flow leaves the procedure (sink blocks and trap-SCC entries) by
 *     their expected mass. Each region (the procedure, or a loop) is
 *     then walked in reverse RPO with its child loops as single nodes.
 *     A block's demand (the weight already placed on its out-edges) is
 *     split over its in-edges by edge frequency. A child loop's entries
 *     I (its exit weights plus anything absorbed inside it) give its
 *     header count N = max(I, round(I x multiplier)); N - I is split
 *     over its back edges, the loop's own region is walked, and I is
 *     split over the header's entering edges. Every split divides one
 *     integer exactly (largest remainder), so per-block conservation
 *     holds by construction, no weight is negative, and the cost is
 *     O(edges x loop depth). Header counts saturate at
 *     kEstimateWeightCeiling. Flow that enters a trap SCC (an
 *     inescapable cycle) is absorbed at its entry as stranded flow;
 *     when the trap is a loop its header count circulates first, so
 *     infinite loops look hot. Retreating edges that are not back
 *     edges (irreducible regions) get no flow.
 */

#include "estimate/internal.h"

#include <algorithm>
#include <cmath>

namespace balign {
namespace estimate_detail {

namespace {

/// Frequencies above this are runaway (fuzzer CFGs can chain dozens of
/// near-saturated loops); clamping keeps the arithmetic finite without
/// affecting well-behaved programs.
constexpr double kFreqCeiling = 1e15;

/// Trip-count prior: cyclic probability is capped at this value, so a
/// loop contributes at most 1 / (1 - cap) iterations per entry (cap
/// 15/16 = 16 iterations; Wu-Larus use a similar epsilon guard). The
/// prior shapes the call-graph invocation counts and the circulation of
/// trap loops; the integer profile inside a procedure follows the
/// uncapped probabilities.
constexpr double kMaxCyclicProb = 1.0 - 1.0 / 16.0;

/// Tighter trip-count prior for nested loops (depth >= 2): inner loops
/// run fewer iterations per entry than their enclosing loop runs in
/// total (the classic profile observation), so their cyclic probability
/// is capped lower — about 2.5 iterations — to keep deep nests from
/// dwarfing every acyclic path in the estimate.
constexpr double kNestedCyclicProb = 0.60;

/// Gauss-Seidel passes for the irreducible-region fallback.
constexpr unsigned kIrreduciblePasses = 16;

/// Tarjan SCC over the valid out-edges of reachable blocks; returns the
/// blocks that sit in an SCC with no edge leaving it (counting only
/// cyclic SCCs: size > 1 or a self-loop). Iterative, deterministic.
std::vector<bool>
trapBlocks(const Procedure &proc, const RpoOrder &rpo)
{
    const std::size_t n = proc.numBlocks();
    std::vector<std::uint32_t> index(n, 0), lowlink(n, 0);
    std::vector<bool> onStack(n, false), visited(n, false);
    std::vector<std::int32_t> sccOf(n, -1);
    std::vector<BlockId> stack;
    std::uint32_t next_index = 1;
    std::int32_t next_scc = 0;
    std::vector<bool> sccCyclic;

    struct Frame
    {
        BlockId block;
        EdgeList::iterator next;  ///< the next out-edge to follow
    };
    std::vector<Frame> work;

    auto valid_dst = [&](std::uint32_t e) -> std::int64_t {
        const BlockId dst = proc.edge(e).dst;
        if (dst >= n || !rpo.reachable(dst))
            return -1;
        return dst;
    };

    for (const BlockId root : rpo.order) {
        if (visited[root])
            continue;
        work.push_back({root, proc.outEdges(root).begin()});
        visited[root] = true;
        index[root] = lowlink[root] = next_index++;
        stack.push_back(root);
        onStack[root] = true;
        while (!work.empty()) {
            Frame &frame = work.back();
            if (frame.next != proc.outEdges(frame.block).end()) {
                const std::int64_t dst = valid_dst(*frame.next++);
                if (dst < 0)
                    continue;
                const BlockId d = static_cast<BlockId>(dst);
                if (!visited[d]) {
                    visited[d] = true;
                    index[d] = lowlink[d] = next_index++;
                    stack.push_back(d);
                    onStack[d] = true;
                    work.push_back({d, proc.outEdges(d).begin()});
                } else if (onStack[d]) {
                    lowlink[frame.block] =
                        std::min(lowlink[frame.block], index[d]);
                }
                continue;
            }
            const BlockId b = frame.block;
            work.pop_back();
            if (!work.empty()) {
                lowlink[work.back().block] =
                    std::min(lowlink[work.back().block], lowlink[b]);
            }
            if (lowlink[b] == index[b]) {
                // b roots an SCC; pop it and note whether it is cyclic.
                bool cyclic = false;
                std::size_t size = 0;
                for (std::size_t i = stack.size(); i-- > 0;) {
                    ++size;
                    if (stack[i] == b)
                        break;
                }
                BlockId member;
                std::size_t popped = 0;
                do {
                    member = stack.back();
                    stack.pop_back();
                    onStack[member] = false;
                    sccOf[member] = next_scc;
                    ++popped;
                    if (size == 1) {
                        // Self-loop check for singleton SCCs.
                        for (const std::uint32_t e :
                             proc.outEdges(member)) {
                            if (valid_dst(e) ==
                                static_cast<std::int64_t>(member))
                                cyclic = true;
                        }
                    }
                } while (member != b);
                if (popped > 1)
                    cyclic = true;
                sccCyclic.push_back(cyclic);
                ++next_scc;
            }
        }
    }

    // An SCC is a trap iff it is cyclic and no edge leaves it.
    std::vector<bool> escapes(sccCyclic.size(), false);
    for (const BlockId b : rpo.order) {
        for (const std::uint32_t e : proc.outEdges(b)) {
            const std::int64_t dst = valid_dst(e);
            if (dst >= 0 && sccOf[b] >= 0 &&
                sccOf[static_cast<BlockId>(dst)] != sccOf[b])
                escapes[sccOf[b]] = true;
        }
    }
    std::vector<bool> trap(n, false);
    for (const BlockId b : rpo.order) {
        if (sccOf[b] >= 0 && sccCyclic[sccOf[b]] && !escapes[sccOf[b]])
            trap[b] = true;
    }
    return trap;
}

/// Role of edge @p e (Dead when the index is out of range).
EdgeRole
roleOf(const ProcFreqs &freqs, std::uint32_t e)
{
    return e < freqs.edgeRole.size() ? freqs.edgeRole[e] : EdgeRole::Dead;
}

/**
 * Splits @p x into parts proportional to @p weight by largest remainder:
 * the parts sum to exactly x and each is the floor or ceiling of its
 * quota, ties going to the lower index. All-zero weights split
 * uniformly. @p rem and @p order are scratch.
 */
void
splitExact(Weight x, const std::vector<double> &weight,
           std::vector<Weight> &part, std::vector<double> &rem,
           std::vector<std::uint32_t> &order)
{
    const std::size_t k = weight.size();
    part.assign(k, 0);
    if (k == 0 || x == 0)
        return;
    double total = 0.0;
    for (const double w : weight)
        total += w;
    const bool uniform = !(total > 0.0) || !std::isfinite(total);
    const double xd = static_cast<double>(x);
    rem.resize(k);
    order.clear();
    Weight placed = 0;
    for (std::size_t i = 0; i < k; ++i) {
        const double quota = uniform ? xd / static_cast<double>(k)
                                     : xd * (weight[i] / total);
        const double base = std::min(std::floor(quota), xd);
        part[i] = static_cast<Weight>(base);
        rem[i] = quota - base;
        placed += part[i];
        if (uniform || weight[i] > 0.0)
            order.push_back(static_cast<std::uint32_t>(i));
    }
    // Quota rounding can overshoot by a unit; take it from the largest.
    while (placed > x) {
        --*std::max_element(part.begin(), part.end());
        --placed;
    }
    if (placed == x)
        return;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return rem[a] > rem[b] || (rem[a] == rem[b] && a < b);
              });
    for (std::size_t i = 0; placed < x; ++i, ++placed)
        ++part[order[i % order.size()]];
}

/// One materializeFlow call: the loop forest's regions as node lists
/// plus the split buffers shared by every block.
class Materializer
{
  public:
    Materializer(Procedure &proc, const ProcAnalysis &analysis,
                 const std::vector<double> &edgeProb, const ProcFreqs &freqs)
        : proc_(proc), edgeProb_(edgeProb),
          freqs_(freqs), loops_(analysis.loops.loops),
          headerLoop_(proc.numBlocks(), kNoLoop),
          absorbed_(proc.numBlocks(), 0), backTotal_(loops_.size(), 0),
          stamp_(proc.numBlocks(), kNoLoop), nodes_(loops_.size() + 1)
    {
        for (std::size_t l = 0; l < loops_.size(); ++l)
            headerLoop_[loops_[l].header] = l;
        // Region lists in RPO order. A header is a node of its own loop
        // and stands for that whole loop in the enclosing region.
        const std::vector<std::size_t> &innermost = analysis.loops.innermost;
        for (const BlockId b : analysis.rpo().order) {
            const std::size_t own = headerLoop_[b];
            const std::size_t region =
                own != kNoLoop ? loops_[own].parent
                : b < innermost.size() ? innermost[b]
                                       : kNoLoop;
            nodes_[region == kNoLoop ? loops_.size() : region].push_back(b);
            if (own != kNoLoop)
                nodes_[own].push_back(b);
        }
    }

    Weight
    run(Weight entries)
    {
        weights_.clear();
        for (const SinkMass &sink : freqs_.sinks)
            weights_.push_back(sink.mass);
        splitExact(entries, weights_, parts_, rem_, order_);
        Weight stranded = 0;
        for (std::size_t i = 0; i < freqs_.sinks.size(); ++i) {
            absorbed_[freqs_.sinks[i].block] = parts_[i];
            if (freqs_.sinks[i].trap)
                stranded += parts_[i];
        }
        walkRegions();
        return stranded;
    }

  private:
    Weight
    outWeight(BlockId b) const
    {
        Weight sum = 0;
        for (const std::uint32_t e : proc_.outEdges(b)) {
            if (roleOf(freqs_, e) != EdgeRole::Dead)
                sum += proc_.edge(e).weight;
        }
        return sum;
    }

    /// Splits @p amount over @p b's in-edges of @p role by edge
    /// frequency. The procedure entry has no forward in-edge: what
    /// reaches it is the invocation itself, which no edge carries.
    void
    splitInto(BlockId b, Weight amount, EdgeRole role)
    {
        edges_.clear();
        weights_.clear();
        for (const std::uint32_t e : proc_.inEdges(b)) {
            if (roleOf(freqs_, e) != role)
                continue;
            edges_.push_back(e);
            weights_.push_back(freqs_.flow[proc_.edge(e).src] * edgeProb_[e]);
        }
        splitExact(amount, weights_, parts_, rem_, order_);
        for (std::size_t i = 0; i < edges_.size(); ++i)
            proc_.edge(edges_[i]).weight += parts_[i];
    }

    /// Walks the procedure's region in reverse RPO, and each loop's
    /// region when the walk reaches that loop's node, so every
    /// successor's in-edge share is placed before its predecessors are
    /// visited. An explicit stack: nests can be as deep as the CFG.
    void
    walkRegions()
    {
        struct Frame
        {
            std::size_t region;
            std::size_t next;  // nodes of the region still to visit
        };
        std::vector<Frame> stack{{loops_.size(), nodes_.back().size()}};
        while (!stack.empty()) {
            Frame &frame = stack.back();
            if (frame.next == 0) {
                stack.pop_back();
                continue;
            }
            const std::size_t region = frame.region;
            const BlockId b = nodes_[region][--frame.next];
            const std::size_t own = headerLoop_[b];
            if (own != kNoLoop && own != region) {
                if (enterLoop(own))
                    stack.push_back({own, nodes_[own].size()});
                continue;
            }
            Weight demand = absorbed_[b] + outWeight(b);
            if (own == region)
                demand -= backTotal_[region];  // already on its back edges
            splitInto(b, demand, EdgeRole::Forward);
        }
    }

    /// Places loop @p l's back-edge weight from its entries (exit
    /// weights plus anything absorbed inside); false when nothing
    /// enters it, so its region stays at zero.
    bool
    enterLoop(std::size_t l)
    {
        const NaturalLoop &loop = loops_[l];
        for (const BlockId x : loop.blocks)
            stamp_[x] = l;
        Weight entries = 0;
        for (const BlockId x : loop.blocks) {
            entries += absorbed_[x];
            for (const std::uint32_t e : proc_.outEdges(x)) {
                if (roleOf(freqs_, e) != EdgeRole::Dead &&
                    stamp_[proc_.edge(e).dst] != l)
                    entries += proc_.edge(e).weight;
            }
        }
        if (entries == 0)
            return false;
        const double ceiling = static_cast<double>(kEstimateWeightCeiling);
        const double target = std::min(
            std::round(static_cast<double>(entries) * freqs_.headerMul[l]),
            ceiling);
        const Weight count =
            target > static_cast<double>(entries)
                ? static_cast<Weight>(target)
                : entries;
        backTotal_[l] = count - entries;
        splitInto(loop.header, backTotal_[l], EdgeRole::Back);
        return true;
    }

    Procedure &proc_;
    const std::vector<double> &edgeProb_;
    const ProcFreqs &freqs_;
    const std::vector<NaturalLoop> &loops_;
    /// Loop headed at each block, or kNoLoop.
    std::vector<std::size_t> headerLoop_;
    /// Flow each sink or trap entry absorbs.
    std::vector<Weight> absorbed_;
    /// Weight placed on each loop's back edges (its N - I).
    std::vector<Weight> backTotal_;
    /// Loop whose membership was stamped last, per block.
    std::vector<std::size_t> stamp_;
    /// Nodes of each loop's region, then the procedure's, in RPO order.
    std::vector<std::vector<BlockId>> nodes_;
    std::vector<std::uint32_t> edges_;
    std::vector<double> weights_;
    std::vector<Weight> parts_;
    std::vector<double> rem_;
    std::vector<std::uint32_t> order_;
};

}  // namespace

ProcFreqs
propagateFrequencies(const Procedure &proc, const ProcAnalysis &analysis,
                     const std::vector<double> &edgeProb)
{
    ProcFreqs freqs;
    const std::size_t n = proc.numBlocks();
    const LoopForest &loops = analysis.loops;
    freqs.block.assign(n, 0.0);
    freqs.flow.assign(n, 0.0);
    freqs.headerMul.assign(loops.loops.size(), 1.0);
    freqs.edgeRole.assign(proc.numEdges(), EdgeRole::Dead);
    const RpoOrder &rpo = analysis.rpo();
    if (rpo.order.empty())
        return freqs;

    for (std::uint32_t e = 0; e < proc.numEdges(); ++e) {
        const Edge &edge = proc.edge(e);
        if (edge.src >= n || edge.dst >= n || !rpo.reachable(edge.src))
            continue;
        if (rpo.indexOf[edge.dst] > rpo.indexOf[edge.src])
            freqs.edgeRole[e] = EdgeRole::Forward;
        else if (analysis.doms.dominates(edge.dst, edge.src))
            freqs.edgeRole[e] = EdgeRole::Back;
        else
            freqs.edgeRole[e] = EdgeRole::Retreating;
    }
    auto role = [&](std::uint32_t e) { return roleOf(freqs, e); };
    const std::vector<bool> trap = trapBlocks(proc, rpo);

    // Index of the loop headed at each block, if any (one loop per
    // header after normalization).
    std::vector<std::size_t> headerLoop(n, kNoLoop);
    for (std::size_t i = 0; i < loops.loops.size(); ++i)
        headerLoop[loops.loops[i].header] = i;

    if (loops.irreducible()) {
        // Bounded-iteration fallback: damped Gauss-Seidel sweeps in RPO
        // order. Retreating flow re-enters on the next sweep; the pass
        // bound plays the role the cyclic-probability cap plays on the
        // reducible path.
        freqs.irreducibleFallback = true;
        std::vector<double> f(n, 0.0);
        for (unsigned pass = 0; pass < kIrreduciblePasses; ++pass) {
            for (const BlockId b : rpo.order) {
                double in = b == proc.entry() ? 1.0 : 0.0;
                for (const std::uint32_t e : proc.inEdges(b)) {
                    if (role(e) != EdgeRole::Dead)
                        in += f[proc.edge(e).src] * edgeProb[e];
                }
                f[b] = std::min(in, kFreqCeiling);
            }
        }
        freqs.block = f;
        freqs.flow = f;
        // Each natural loop's multiplier, read back off the solution.
        for (std::size_t l = 0; l < loops.loops.size(); ++l) {
            const BlockId h = loops.loops[l].header;
            double entering = h == proc.entry() ? 1.0 : 0.0;
            for (const std::uint32_t e : proc.inEdges(h)) {
                if (role(e) == EdgeRole::Forward)
                    entering += f[proc.edge(e).src] * edgeProb[e];
            }
            if (entering > 0.0)
                freqs.headerMul[l] = std::max(f[h] / entering, 1.0);
        }
    } else {
        // Wu-Larus closed form, capped (fc, capMul) and uncapped (fr,
        // rawMul) side by side.
        std::vector<double> capMul(n, 1.0), rawMul(n, 1.0);
        std::vector<double> fc(n, 0.0), fr(n, 0.0);

        // One propagation sweep over `blocks` (in RPO order) with unit
        // input at `head`. Applies inner-loop multipliers at their
        // headers; `selfLoop` (the loop being measured) gets none. Back
        // edges are folded into the header multipliers, and the head's
        // other in-edges lie outside the region, so the head takes only
        // its unit input.
        auto sweep = [&](const std::vector<BlockId> &blocks, BlockId head,
                         std::size_t selfLoop) {
            for (const BlockId b : blocks) {
                double inC = b == head ? 1.0 : 0.0;
                double inR = inC;
                if (b != head) {
                    for (const std::uint32_t e : proc.inEdges(b)) {
                        if (role(e) != EdgeRole::Forward)
                            continue;
                        const BlockId src = proc.edge(e).src;
                        inC += fc[src] * edgeProb[e];
                        inR += fr[src] * edgeProb[e];
                    }
                }
                if (headerLoop[b] != kNoLoop && headerLoop[b] != selfLoop) {
                    inC *= capMul[b];
                    inR *= rawMul[b];
                }
                fc[b] = std::min(inC, kFreqCeiling);
                fr[b] = std::min(inR, kFreqCeiling);
            }
        };

        // Innermost-first: loops are ordered outer-before-inner, so walk
        // the vector backwards.
        std::vector<BlockId> members;
        for (std::size_t l = loops.loops.size(); l-- > 0;) {
            const NaturalLoop &loop = loops.loops[l];
            members.clear();
            for (const BlockId b : loop.blocks) {
                if (rpo.reachable(b))
                    members.push_back(b);
            }
            std::sort(members.begin(), members.end(),
                      [&](BlockId a, BlockId b) {
                          return rpo.indexOf[a] < rpo.indexOf[b];
                      });
            sweep(members, loop.header, l);
            double cyclic = 0.0, rawCyclic = 0.0;
            for (const BlockId latch : loop.latches) {
                for (const std::uint32_t e : proc.outEdges(latch)) {
                    if (role(e) != EdgeRole::Dead &&
                        proc.edge(e).dst == loop.header) {
                        cyclic += fc[latch] * edgeProb[e];
                        rawCyclic += fr[latch] * edgeProb[e];
                    }
                }
            }
            // The nested prior yields to hard evidence: a latch whose
            // branch carries deterministic pattern metadata announces
            // its real trip count, so only stochastic nested loops get
            // the tighter cap.
            bool patterned_latch = false;
            for (const BlockId latch : loop.latches)
                patterned_latch =
                    patterned_latch || proc.block(latch).patternLength > 0;
            const double cap = loop.depth >= 2 && !patterned_latch
                                   ? kNestedCyclicProb
                                   : kMaxCyclicProb;
            if (cyclic > cap) {
                cyclic = cap;
                ++freqs.tripCappedLoops;
            }
            capMul[loop.header] = 1.0 / (1.0 - cyclic);
            // An inescapable loop has no finite Markov multiplier; it
            // keeps the prior's, so its circulation stays bounded.
            rawMul[loop.header] =
                trap[loop.header] ? capMul[loop.header]
                : rawCyclic < 1.0
                    ? std::min(1.0 / (1.0 - rawCyclic), kFreqCeiling)
                    : kFreqCeiling;
            freqs.headerMul[l] = rawMul[loop.header];
        }

        sweep(rpo.order, proc.entry(), kNoLoop);
        freqs.block = fc;
        freqs.flow = fr;
    }

    // Where one invocation's flow leaves the procedure: blocks without
    // out-edges, and the entries of trap SCCs (mass crossing into them).
    double trapMass = 0.0;
    for (const BlockId b : rpo.order) {
        bool has_out = false;
        for (const std::uint32_t e : proc.outEdges(b))
            has_out = has_out || role(e) != EdgeRole::Dead;
        if (!has_out) {
            freqs.sinks.push_back({b, freqs.flow[b], false});
            continue;
        }
        if (!trap[b])
            continue;
        bool entered = b == proc.entry();
        double mass = entered ? 1.0 : 0.0;
        for (const std::uint32_t e : proc.inEdges(b)) {
            if (role(e) == EdgeRole::Forward && !trap[proc.edge(e).src]) {
                entered = true;
                mass += freqs.flow[proc.edge(e).src] * edgeProb[e];
            }
        }
        if (entered) {
            freqs.sinks.push_back({b, mass, true});
            trapMass += mass;
        }
    }
    freqs.trapMass = std::min(trapMass, 1.0);
    return freqs;
}

Weight
materializeFlow(Procedure &proc, const ProcAnalysis &analysis,
                const std::vector<double> &edgeProb, const ProcFreqs &freqs,
                Weight entries)
{
    if (entries == 0 || analysis.rpo().order.empty())
        return 0;
    return Materializer(proc, analysis, edgeProb, freqs).run(entries);
}

}  // namespace estimate_detail
}  // namespace balign
