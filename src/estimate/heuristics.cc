/**
 * @file
 * The branch-heuristic registry and per-branch probability assignment.
 *
 * Each heuristic is a syntactic test over the CFG and its loop forest in
 * the Ball-Larus tradition ("Branch Prediction for Free", PLDI'93): if
 * the test applies to a conditional branch, it votes for one successor
 * with the registry's empirical probability. Multiple firing heuristics
 * are combined with the Dempster-Shafer rule (estimate.cc). Heuristics
 * this IR cannot express (pointer/opcode guards — there are no operand
 * values) are replaced by the structural analogues the metadata does
 * support: dead-end successors and the deterministic outcome pattern.
 */

#include "estimate/internal.h"

#include <algorithm>
#include <bit>

namespace balign {

const std::vector<HeuristicInfo> &
allEstimateHeuristics()
{
    // Probabilities follow Ball-Larus/Wu-Larus: the measured frequency
    // with which the heuristic's prediction was right on their suites.
    static const std::vector<HeuristicInfo> heuristics = {
        {"loop-branch", 0.88,
         "a back edge (latch to dominating header) is taken"},
        {"loop-exit", 0.80,
         "a branch inside a loop keeps iterating rather than exit"},
        {"loop-header", 0.70,
         "the successor that enters a fresh loop is preferred"},
        {"call", 0.78,
         "the successor without embedded call sites is preferred"},
        {"return", 0.72,
         "the successor that does not immediately return is preferred"},
        {"dead-end", 0.85,
         "the successor that is not a non-return dead end is preferred"},
        {"pattern", 0.50,
         "deterministic outcome pattern metadata: taken fraction of one "
         "period (probability is computed per branch)"},
        {"correlated", 0.50,
         "outcome-correlation metadata: the branch realizes the "
         "controlling branch's rate, possibly inverted (probability is "
         "copied per branch)"},
        {"guard", 0.62,
         "a forward conditional no other heuristic explains is a guard "
         "and falls through"},
    };
    return heuristics;
}

namespace estimate_detail {

namespace {

enum HeuristicIndex : std::size_t {
    kLoopBranch,
    kLoopExit,
    kLoopHeader,
    kCall,
    kReturn,
    kDeadEnd,
    kPattern,
    kCorrelated,
    kGuard,
};

/// Combined branch probabilities are clamped to
/// [kProbFloor, 1 - kProbFloor]: static evidence is never certainty.
constexpr double kProbFloor = 1.0 / 64.0;

double
clampProb(double p)
{
    return std::min(std::max(p, kProbFloor), 1.0 - kProbFloor);
}

/// One vote: the heuristic at @p index predicts @p taken's side.
void
vote(std::vector<HeuristicVote> &votes, std::vector<std::size_t> &hits,
     std::size_t index, bool predictsTaken, double prob)
{
    const HeuristicInfo &info = allEstimateHeuristics()[index];
    HeuristicVote v;
    v.heuristic = info.name;
    v.predictsTaken = predictsTaken;
    v.takenProb = predictsTaken ? prob : 1.0 - prob;
    votes.push_back(v);
    ++hits[index];
}

}  // namespace

std::vector<double>
branchProbabilities(const Procedure &proc, const ProcAnalysis &analysis,
                    std::vector<BranchEstimate> &branches,
                    std::vector<std::size_t> &hits)
{
    std::vector<double> edgeProb(proc.numEdges(), 0.0);
    const LoopForest &loops = analysis.loops;
    // Combined taken-probability per already-estimated conditional, for
    // the correlated heuristic (-1 = not a shaped conditional / not yet
    // seen; the generator's controlling branch always precedes its
    // followers in id order, matching this loop).
    std::vector<double> blockProb(proc.numBlocks(), -1.0);

    // A back edge in the dominator sense; false for unreachable blocks.
    auto is_back_edge = [&](BlockId src, BlockId dst) {
        return analysis.doms.dominates(dst, src);
    };
    // dst starts a loop that does not already contain src.
    auto enters_fresh_loop = [&](BlockId src, BlockId dst) {
        for (const NaturalLoop &loop : loops.loops) {
            if (loop.header == dst && !loop.contains(src))
                return true;
        }
        return false;
    };
    auto is_dead_end = [&](const BasicBlock &block) {
        return block.outEdges.empty() && block.term != Terminator::Return;
    };

    for (const BasicBlock &block : proc.blocks()) {
        // Robustness first (the lint rules run the estimator before
        // validation): only edges with in-range endpoints participate.
        std::vector<std::uint32_t> outs;
        for (const std::uint32_t index : block.outEdges) {
            if (index < proc.numEdges() &&
                proc.edge(index).dst < proc.numBlocks())
                outs.push_back(index);
        }
        if (outs.empty())
            continue;

        const std::int64_t taken_index = proc.takenEdge(block.id);
        const std::int64_t fall_index = proc.fallThroughEdge(block.id);
        const bool shaped_cond =
            block.term == Terminator::CondBranch && outs.size() == 2 &&
            taken_index >= 0 && fall_index >= 0 &&
            taken_index != fall_index;
        if (!shaped_cond) {
            // Single-successor blocks take probability 1; indirect
            // jumps (and malformed shapes) spread uniformly — there is
            // no static evidence to order computed targets.
            const double share = 1.0 / static_cast<double>(outs.size());
            for (const std::uint32_t index : outs)
                edgeProb[index] = share;
            continue;
        }

        const BlockId taken_dst =
            proc.edge(static_cast<std::uint32_t>(taken_index)).dst;
        const BlockId fall_dst =
            proc.edge(static_cast<std::uint32_t>(fall_index)).dst;
        const BasicBlock &taken_block = proc.block(taken_dst);
        const BasicBlock &fall_block = proc.block(fall_dst);

        BranchEstimate estimate;
        estimate.proc = proc.id();
        estimate.block = block.id;

        // loop-branch: exactly one side is a back edge.
        const bool taken_back = is_back_edge(block.id, taken_dst);
        const bool fall_back = is_back_edge(block.id, fall_dst);
        if (taken_back != fall_back) {
            vote(estimate.votes, hits, kLoopBranch, taken_back,
                 allEstimateHeuristics()[kLoopBranch].takenProb);
        }

        // loop-exit: exactly one side leaves the innermost loop.
        const std::size_t loop_index =
            block.id < loops.innermost.size() ? loops.innermost[block.id]
                                              : kNoLoop;
        if (loop_index != kNoLoop) {
            const NaturalLoop &loop = loops.loops[loop_index];
            const bool taken_in = loop.contains(taken_dst);
            const bool fall_in = loop.contains(fall_dst);
            if (taken_in != fall_in) {
                vote(estimate.votes, hits, kLoopExit, taken_in,
                     allEstimateHeuristics()[kLoopExit].takenProb);
            }
        }

        // loop-header: exactly one side enters a loop it is not in.
        const bool taken_header = enters_fresh_loop(block.id, taken_dst);
        const bool fall_header = enters_fresh_loop(block.id, fall_dst);
        if (taken_header != fall_header) {
            vote(estimate.votes, hits, kLoopHeader, taken_header,
                 allEstimateHeuristics()[kLoopHeader].takenProb);
        }

        // call: exactly one side lands in a block with call sites.
        const bool taken_calls = !taken_block.calls.empty();
        const bool fall_calls = !fall_block.calls.empty();
        if (taken_calls != fall_calls) {
            vote(estimate.votes, hits, kCall, fall_calls,
                 allEstimateHeuristics()[kCall].takenProb);
        }

        // return: exactly one side immediately returns.
        const bool taken_ret = taken_block.term == Terminator::Return;
        const bool fall_ret = fall_block.term == Terminator::Return;
        if (taken_ret != fall_ret) {
            vote(estimate.votes, hits, kReturn, fall_ret,
                 allEstimateHeuristics()[kReturn].takenProb);
        }

        // dead-end: exactly one side falls off a non-return dead end.
        const bool taken_dead = is_dead_end(taken_block);
        const bool fall_dead = is_dead_end(fall_block);
        if (taken_dead != fall_dead) {
            vote(estimate.votes, hits, kDeadEnd, fall_dead,
                 allEstimateHeuristics()[kDeadEnd].takenProb);
        }

        // pattern: deterministic outcome metadata gives the taken
        // fraction of one period directly (clamped: the combiner must
        // never see certainty).
        if (block.patternLength > 0) {
            const unsigned len = std::min<unsigned>(block.patternLength, 32);
            const std::uint32_t mask =
                len == 32 ? block.patternMask
                          : block.patternMask & ((1u << len) - 1u);
            const double fraction =
                static_cast<double>(std::popcount(mask)) /
                static_cast<double>(len);
            const double p = clampProb(fraction);
            vote(estimate.votes, hits, kPattern, p >= 0.5, p >= 0.5 ? p
                                                                    : 1 - p);
        }

        // correlated: outcome-correlation metadata pins this branch's
        // realized rate to the controlling branch's (inverted when the
        // correlation is negative) — so once the controller has an
        // estimate, copy it. Strictly structural: the metadata names the
        // controller, never the outcome.
        if (block.correlatedWith != kNoBlock &&
            block.correlatedWith < proc.numBlocks() &&
            blockProb[block.correlatedWith] >= 0.0) {
            double p = blockProb[block.correlatedWith];
            if (block.correlatedInvert)
                p = 1.0 - p;
            p = clampProb(p);
            vote(estimate.votes, hits, kCorrelated, p >= 0.5,
                 p >= 0.5 ? p : 1 - p);
        }

        // guard: a forward conditional (no back edge on either side)
        // that no heuristic above could explain is most often an
        // if-guard around rare work — error paths, cold feature flags —
        // and falls through (Ball-Larus's measured default for forward
        // branches). Fires only in the absence of other evidence so
        // every previously-explained branch keeps its estimate.
        if (estimate.votes.empty() && !taken_back && !fall_back) {
            vote(estimate.votes, hits, kGuard, false,
                 allEstimateHeuristics()[kGuard].takenProb);
        }

        // Dempster-Shafer combination, 0.5 neutral start.
        double combined = 0.5;
        for (const HeuristicVote &v : estimate.votes)
            combined = combineEvidence(combined, v.takenProb);
        estimate.takenProb = clampProb(combined);
        blockProb[block.id] = estimate.takenProb;

        edgeProb[static_cast<std::uint32_t>(taken_index)] =
            estimate.takenProb;
        edgeProb[static_cast<std::uint32_t>(fall_index)] =
            1.0 - estimate.takenProb;
        branches.push_back(std::move(estimate));
    }
    return edgeProb;
}

}  // namespace estimate_detail
}  // namespace balign
