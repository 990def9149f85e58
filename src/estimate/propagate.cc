/**
 * @file
 * Frequency propagation and integer flow materialization.
 *
 * Two passes over one procedure:
 *
 *  1. propagateFrequencies — Wu-Larus (MICRO'94): real-valued expected
 *     block/edge executions per invocation. Loops are processed
 *     innermost-first; each loop's cyclic probability (the expected
 *     back-edge mass per header entry, capped by the trip-count prior)
 *     turns into a 1/(1-cp) header multiplier for the enclosing region.
 *     Irreducible CFGs get a bounded Gauss-Seidel fallback instead —
 *     explicitly flagged, never silently mis-modelled.
 *
 *  2. pushFlow — the integer profile. Real frequencies rounded per edge
 *     cannot guarantee the exact per-block conservation the prof.*
 *     rules demand, so the integer profile is *pushed*: every block
 *     re-apportions exactly the integer flow it received across its
 *     out-edges (largest-remainder rounding with signed per-edge
 *     carries, so low-probability exits accumulate credit and
 *     eventually drain cycling flow). Conservation is exact by
 *     construction. Shares follow each edge's REMAINING expected total
 *     (the pass-1 frequency times the entry count, minus weight already
 *     placed), not the raw transition probability: a loop therefore
 *     drains through its real exits once its back edge has carried its
 *     expected total, instead of cycling excess flow through whatever
 *     edge happens to be uncapped — which would corrupt the relative
 *     weights of hot branches (the one thing aligners consume). Only
 *     when every out-edge has met its target (saturated cold paths,
 *     trap SCCs) does apportionment fall back to the probabilities.
 *     Flow that enters a trap SCC (an inescapable cycle) circulates a
 *     few rounds — so infinite loops look hot — then strands, which
 *     the lint slack tolerates in the quantity estimate.cc budgets for.
 */

#include "estimate/internal.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace balign {
namespace estimate_detail {

namespace {

/// Frequencies above this are runaway (fuzzer CFGs can chain dozens of
/// near-saturated loops); clamping keeps the arithmetic finite without
/// affecting well-behaved programs.
constexpr double kFreqCeiling = 1e15;

/// RPO passes pushFlow may spend before stranding whatever still moves.
constexpr unsigned kMaxPushPasses = 8192;

/// Passes during which trap-SCC blocks still forward flow, so the edges
/// of an inescapable cycle carry visible weight before the flow strands.
constexpr unsigned kTrapSpinPasses = 16;

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
        std::size_t edgePos;
    };
    std::vector<Frame> work;

    auto valid_dst = [&](std::uint32_t e) -> std::int64_t {
        if (e >= proc.numEdges())
            return -1;
        const BlockId dst = proc.edge(e).dst;
        if (dst >= n || !rpo.reachable(dst))
            return -1;
        return dst;
    };

    for (const BlockId root : rpo.order) {
        if (visited[root])
            continue;
        work.push_back({root, 0});
        visited[root] = true;
        index[root] = lowlink[root] = next_index++;
        stack.push_back(root);
        onStack[root] = true;
        while (!work.empty()) {
            Frame &frame = work.back();
            const BasicBlock &block = proc.block(frame.block);
            if (frame.edgePos < block.outEdges.size()) {
                const std::int64_t dst =
                    valid_dst(block.outEdges[frame.edgePos++]);
                if (dst < 0)
                    continue;
                const BlockId d = static_cast<BlockId>(dst);
                if (!visited[d]) {
                    visited[d] = true;
                    index[d] = lowlink[d] = next_index++;
                    stack.push_back(d);
                    onStack[d] = true;
                    work.push_back({d, 0});
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
                             proc.block(member).outEdges) {
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
        for (const std::uint32_t e : proc.block(b).outEdges) {
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

}  // namespace

ProcFreqs
propagateFrequencies(const Procedure &proc, const ProcAnalysis &analysis,
                     const std::vector<double> &edgeProb,
                     const EstimateOptions &options)
{
    ProcFreqs freqs;
    const std::size_t n = proc.numBlocks();
    freqs.block.assign(n, 0.0);
    freqs.edge.assign(proc.numEdges(), 0.0);
    const RpoOrder &rpo = analysis.rpo();
    if (rpo.order.empty())
        return freqs;
    freqs.trapBlock = trapBlocks(proc, rpo);

    auto is_back_edge = [&](BlockId src, BlockId dst) {
        return analysis.doms.dominates(dst, src);
    };
    auto valid_edge = [&](std::uint32_t e) {
        return e < proc.numEdges() && proc.edge(e).src < n &&
               proc.edge(e).dst < n && rpo.reachable(proc.edge(e).src);
    };

    const LoopForest &loops = analysis.loops;
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
        for (unsigned pass = 0; pass < options.irreduciblePasses; ++pass) {
            for (const BlockId b : rpo.order) {
                double in = b == proc.entry() ? 1.0 : 0.0;
                for (const std::uint32_t e : proc.block(b).inEdges) {
                    if (valid_edge(e))
                        in += f[proc.edge(e).src] * edgeProb[e];
                }
                f[b] = std::min(in, kFreqCeiling);
            }
        }
        freqs.block = f;
    } else {
        // Wu-Larus closed form. cp[l] is loop l's capped cyclic
        // probability; headerMul[b] the resulting 1/(1-cp) multiplier.
        std::vector<double> cp(loops.loops.size(), 0.0);
        std::vector<double> headerMul(n, 1.0);
        std::vector<double> f(n, 0.0);

        // One propagation sweep over `region` (nullptr = whole CFG) with
        // unit input at `head`. Applies inner-loop multipliers at their
        // headers; `selfLoop` (the loop being measured) gets none.
        auto sweep = [&](const NaturalLoop *region, BlockId head,
                         std::size_t selfLoop) {
            std::fill(f.begin(), f.end(), 0.0);
            for (const BlockId b : rpo.order) {
                if (region && !region->contains(b))
                    continue;
                double in = b == head ? 1.0 : 0.0;
                for (const std::uint32_t e : proc.block(b).inEdges) {
                    if (!valid_edge(e))
                        continue;
                    const BlockId src = proc.edge(e).src;
                    if (region && !region->contains(src))
                        continue;
                    if (is_back_edge(src, b))
                        continue;  // folded into the header multiplier
                    in += f[src] * edgeProb[e];
                }
                if (headerLoop[b] != kNoLoop && headerLoop[b] != selfLoop)
                    in *= headerMul[b];
                f[b] = std::min(in, kFreqCeiling);
            }
        };

        // Innermost-first: loops are ordered outer-before-inner, so walk
        // the vector backwards.
        for (std::size_t l = loops.loops.size(); l-- > 0;) {
            const NaturalLoop &loop = loops.loops[l];
            sweep(&loop, loop.header, l);
            double cyclic = 0.0;
            for (const BlockId latch : loop.latches) {
                for (const std::uint32_t e : proc.block(latch).outEdges) {
                    if (valid_edge(e) && proc.edge(e).dst == loop.header)
                        cyclic += f[latch] * edgeProb[e];
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
                                   ? std::min(options.maxCyclicProb,
                                              options.nestedCyclicProb)
                                   : options.maxCyclicProb;
            if (cyclic > cap) {
                cyclic = cap;
                ++freqs.tripCappedLoops;
            }
            cp[l] = cyclic;
            headerMul[loop.header] = 1.0 / (1.0 - cyclic);
        }

        sweep(nullptr, proc.entry(), kNoLoop);
        freqs.block = f;
    }

    for (std::uint32_t e = 0; e < proc.numEdges(); ++e) {
        if (valid_edge(e)) {
            freqs.edge[e] = std::min(
                freqs.block[proc.edge(e).src] * edgeProb[e], kFreqCeiling);
        }
    }

    // Expected per-invocation mass crossing from free blocks into traps.
    double trapMass = 0.0;
    for (std::uint32_t e = 0; e < proc.numEdges(); ++e) {
        if (valid_edge(e) && !freqs.trapBlock[proc.edge(e).src] &&
            freqs.trapBlock[proc.edge(e).dst])
            trapMass += freqs.edge[e];
    }
    freqs.trapMass = std::min(trapMass, 1.0);
    return freqs;
}

Weight
pushFlow(Procedure &proc, const ProcAnalysis &analysis,
         const std::vector<double> &edgeProb, const ProcFreqs &freqs,
         Weight entries)
{
    const std::size_t n = proc.numBlocks();
    const RpoOrder &rpo = analysis.rpo();
    if (entries == 0 || rpo.order.empty() || proc.entry() >= n)
        return 0;

    auto valid_edge = [&](std::uint32_t e) {
        return e < proc.numEdges() && proc.edge(e).dst < n;
    };

    // Expected integer totals from the closed form: the targets the push
    // steers toward. Shares are proportional to the REMAINING target, so
    // the realized totals track pass 1 everywhere — in particular a loop
    // stops swallowing flow once its back edge has carried its expected
    // total, and the excess drains through the loop's exits instead of
    // inverting the latch branch's relative weights.
    const double scale = static_cast<double>(entries);
    std::vector<double> expect(proc.numEdges(), 0.0);
    for (std::uint32_t e = 0; e < proc.numEdges(); ++e) {
        if (valid_edge(e))
            expect[e] = std::min(freqs.edge[e] * scale, 1e18);
    }

    // Valid out-edges of the block at each RPO position (CSR), built once.
    const std::size_t m = rpo.order.size();
    std::vector<std::uint32_t> outBegin(m + 1, 0);
    std::vector<std::uint32_t> outEdges;
    std::size_t maxOut = 0;
    for (std::size_t pos = 0; pos < m; ++pos) {
        for (const std::uint32_t e : proc.block(rpo.order[pos]).outEdges) {
            if (valid_edge(e))
                outEdges.push_back(e);
        }
        outBegin[pos + 1] = static_cast<std::uint32_t>(outEdges.size());
        maxOut = std::max<std::size_t>(maxOut,
                                       outBegin[pos + 1] - outBegin[pos]);
    }

    std::vector<Weight> pending(n, 0);
    std::vector<double> carry(proc.numEdges(), 0.0);
    pending[proc.entry()] = entries;

    std::vector<double> share(maxOut);
    std::vector<Weight> alloc(maxOut);
    std::vector<std::uint32_t> order(maxOut);

    // A pass sweeps the RPO, but visits only the positions holding flow:
    // `current` marks this pass's (a target later in RPO joins it as it
    // receives flow), `upcoming` the next pass's (back-edge and self-loop
    // targets). Both are bitsets over RPO positions, drained lowest first.
    const std::size_t words = (m + 63) / 64;
    std::vector<std::uint64_t> current(words, 0), upcoming(words, 0);
    auto mark = [](std::vector<std::uint64_t> &set, std::uint32_t pos) {
        set[pos >> 6] |= std::uint64_t{1} << (pos & 63);
    };
    if (rpo.reachable(proc.entry()))
        mark(current, rpo.indexOf[proc.entry()]);

    for (unsigned pass = 0; pass < kMaxPushPasses; ++pass) {
        bool queued = false;
        for (std::size_t w = 0; w < words; ++w) {
            while (current[w] != 0) {
                const auto pos = static_cast<std::uint32_t>(
                    w * 64 + static_cast<unsigned>(
                                 std::countr_zero(current[w])));
                current[w] &= current[w] - 1;
                const BlockId b = rpo.order[pos];
                const Weight x = pending[b];  // > 0: only flow marks
                if (freqs.trapBlock[b] && pass >= kTrapSpinPasses)
                    continue;  // strand: the cycle is inescapable
                const std::uint32_t *outs = outEdges.data() + outBegin[pos];
                const std::size_t k = outBegin[pos + 1] - outBegin[pos];
                if (k == 0) {
                    pending[b] = 0;  // sink: Return or dead end absorbs
                    continue;
                }

                // Shares from remaining expected totals; when every
                // target is met (saturated cold paths, trap SCCs) fall
                // back to the transition probabilities so residual flow
                // still moves.
                double total = 0.0;
                for (std::size_t i = 0; i < k; ++i) {
                    const std::uint32_t e = outs[i];
                    share[i] = std::max(
                        expect[e] - static_cast<double>(proc.edge(e).weight),
                        0.0);
                    total += share[i];
                }
                if (total <= 0.0) {
                    for (std::size_t i = 0; i < k; ++i) {
                        share[i] = edgeProb[outs[i]];
                        total += share[i];
                    }
                }
                const double uniform = 1.0 / static_cast<double>(k);
                for (std::size_t i = 0; i < k; ++i)
                    share[i] = total > 0.0 ? share[i] / total : uniform;

                // Largest-remainder apportionment against the
                // carry-adjusted targets; the correction step pins the
                // total to exactly x.
                Weight allocated = 0;
                for (std::size_t i = 0; i < k; ++i) {
                    const double target =
                        static_cast<double>(x) * share[i] + carry[outs[i]];
                    const double base = std::floor(std::max(target, 0.0));
                    alloc[i] = static_cast<Weight>(
                        std::min(base, static_cast<double>(x)));
                    allocated += alloc[i];
                }
                auto frac = [&](std::size_t i) {
                    return static_cast<double>(x) * share[i] +
                           carry[outs[i]] - static_cast<double>(alloc[i]);
                };
                while (allocated > x) {  // over-allocation from carries
                    std::size_t victim = k;
                    for (std::size_t i = 0; i < k; ++i) {
                        if (alloc[i] > 0 &&
                            (victim == k || frac(i) < frac(victim)))
                            victim = i;
                    }
                    --alloc[victim];
                    --allocated;
                }
                if (allocated < x) {
                    // Stable insertion sort, largest fraction first.
                    for (std::size_t i = 0; i < k; ++i) {
                        const auto v = static_cast<std::uint32_t>(i);
                        std::size_t j = i;
                        for (; j > 0 && frac(v) > frac(order[j - 1]); --j)
                            order[j] = order[j - 1];
                        order[j] = v;
                    }
                    std::size_t i = 0;
                    while (allocated < x) {
                        ++alloc[order[i % k]];
                        ++allocated;
                        ++i;
                    }
                }
                for (std::size_t i = 0; i < k; ++i) {
                    carry[outs[i]] = static_cast<double>(x) * share[i] +
                                     carry[outs[i]] -
                                     static_cast<double>(alloc[i]);
                    // Keep carries bounded even after cap-induced skew.
                    carry[outs[i]] =
                        std::clamp(carry[outs[i]], -2.0, 2.0);
                    if (alloc[i] > 0) {
                        Edge &edge = proc.edge(outs[i]);
                        edge.weight += alloc[i];
                        pending[edge.dst] += alloc[i];
                        if (!rpo.reachable(edge.dst))
                            continue;
                        const std::uint32_t dst_pos = rpo.indexOf[edge.dst];
                        if (dst_pos > pos) {
                            mark(current, dst_pos);
                        } else {
                            mark(upcoming, dst_pos);
                            queued = true;
                        }
                    }
                }
                pending[b] -= x;  // self-loop allocations stay pending
            }
        }
        if (!queued)
            break;
        current.swap(upcoming);
    }

    Weight stranded = 0;
    for (BlockId b = 0; b < n; ++b) {
        if (!proc.block(b).outEdges.empty())
            stranded += pending[b];
    }
    return stranded;
}

}  // namespace estimate_detail
}  // namespace balign
