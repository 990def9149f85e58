/**
 * @file
 * prof.* rules: consistency of the edge profile recorded into a Program.
 *
 * The walker traverses edges and the profile counts each traversal, so
 * a well-formed profile conserves flow: every activation of an interior
 * block arrived over exactly one in-edge and left over exactly one
 * out-edge. The permitted exceptions mirror the walker exactly:
 *
 *  - procedure entry blocks gain activations from calls and restarts that
 *    are not CFG edges (skipped entirely);
 *  - sink blocks (Return, or dead ends with no out-edges) absorb flow;
 *  - a budget-truncated walk leaves at most one unfinished activation per
 *    frame of the final call stack, so inflow may exceed outflow by a
 *    small program-wide total (LintOptions::flowSlack, default = the
 *    walker's depth cap + 1).
 *
 * Outflow exceeding inflow, weight on unreachable edges, or weight inside
 * a procedure nothing calls can never happen in a real profile and is
 * always an error.
 */

#include <sstream>
#include <vector>

#include "analysis/analysis.h"
#include "lint/emit.h"
#include "lint/rules.h"

namespace balign {

namespace {

using lint_detail::emit;

Weight
inflow(const Procedure &proc, const BasicBlock &block)
{
    Weight sum = 0;
    for (const std::uint32_t index : proc.inEdges(block.id))
        sum += proc.edge(index).weight;
    return sum;
}

Weight
outflow(const Procedure &proc, const BasicBlock &block)
{
    Weight sum = 0;
    for (const std::uint32_t index : proc.outEdges(block.id))
        sum += proc.edge(index).weight;
    return sum;
}

void
lintFlowConservation(const Program &program, const LintOptions &options,
                     std::vector<Diagnostic> &sink)
{
    Weight total_excess = 0;
    LintLocation worst;
    Weight worst_excess = 0;
    for (const Procedure &proc : program.procs()) {
        for (const BasicBlock &block : proc.blocks()) {
            if (block.id == proc.entry())
                continue;  // receives call/restart activations
            if (proc.outEdges(block.id).empty())
                continue;  // sink: Return or dead end absorbs flow
            const Weight in = inflow(proc, block);
            const Weight out = outflow(proc, block);
            if (out > in) {
                std::ostringstream msg;
                msg << "block emits more flow than it receives (inflow="
                    << in << ", outflow=" << out << ")";
                emit(sink, "prof.flow-conservation",
                     {proc.id(), block.id, kNoEdge}, msg.str(),
                     "an activation cannot leave a block it never "
                     "entered; re-profile from a clean Program");
                continue;
            }
            const Weight excess = in - out;
            total_excess += excess;
            if (excess > worst_excess) {
                worst_excess = excess;
                worst = {proc.id(), block.id, kNoEdge};
            }
        }
    }
    if (total_excess > options.flowSlack) {
        std::ostringstream msg;
        msg << "program-wide inflow/outflow excess " << total_excess
            << " exceeds the truncated-walk allowance of "
            << options.flowSlack << " (largest single-block excess "
            << worst_excess << ")";
        emit(sink, "prof.flow-conservation", worst, msg.str(),
             "only the final call stack of one truncated walk may hold "
             "unfinished activations; anything more is double counting");
    }
}

/**
 * prof.flow: Kirchhoff conservation at natural-loop boundaries. Every
 * path into a reducible loop's body passes through its header (the
 * dominance property of a genuine back edge), so over a whole profile the
 * weight leaving a loop can never exceed the weight that entered it, and
 * the difference is bounded by the truncated-walk slack (activations the
 * budget stranded inside). The block-level rule above cannot see these
 * violations: scaling every in-loop edge by the same factor conserves
 * per-block flow yet fabricates iterations out of thin air.
 *
 * Loops containing the procedure entry are skipped (call and restart
 * activations enter them without crossing a CFG edge), as are procedures
 * with irreducible regions (a second loop entry voids the boundary
 * argument; cfg.irreducible reports those separately).
 */
void
lintLoopFlow(const Program &program, const LintOptions &options,
             std::vector<Diagnostic> &sink)
{
    for (const Procedure &proc : program.procs()) {
        const ProcAnalysis analysis = ProcAnalysis::of(proc);
        if (analysis.loops.irreducible())
            continue;
        for (const NaturalLoop &loop : analysis.loops.loops) {
            if (loop.contains(proc.entry()))
                continue;
            Weight entries = 0, exits = 0;
            for (std::uint32_t i = 0; i < proc.numEdges(); ++i) {
                const Edge &edge = proc.edge(i);
                if (edge.src >= proc.numBlocks() ||
                    edge.dst >= proc.numBlocks())
                    continue;  // reported by cfg.edge-targets
                const bool src_in = loop.contains(edge.src);
                const bool dst_in = loop.contains(edge.dst);
                if (!src_in && dst_in)
                    entries += edge.weight;
                else if (src_in && !dst_in)
                    exits += edge.weight;
            }
            if (exits > entries) {
                std::ostringstream msg;
                msg << "loop at header " << loop.header << " emits weight "
                    << exits << " but only " << entries << " ever entered";
                emit(sink, "prof.flow", {proc.id(), loop.header, kNoEdge},
                     msg.str(),
                     "an activation cannot leave a loop it never "
                     "entered; the profile was not recorded by one "
                     "consistent walk");
            } else if (entries - exits > options.flowSlack) {
                std::ostringstream msg;
                msg << "loop at header " << loop.header << " swallows "
                    << entries - exits << " activations (entered "
                    << entries << ", left " << exits
                    << "), above the truncated-walk allowance of "
                    << options.flowSlack;
                emit(sink, "prof.flow", {proc.id(), loop.header, kNoEdge},
                     msg.str(),
                     "only activations stranded by the walk budget may "
                     "stay inside a loop; anything more is double "
                     "counting");
            }
        }
    }
}

void
lintUnreachableWeight(const Program &program, std::vector<Diagnostic> &sink)
{
    for (const Procedure &proc : program.procs()) {
        // Intra-procedure reachability from the entry block.
        std::vector<bool> reachable(proc.numBlocks(), false);
        if (proc.entry() < proc.numBlocks()) {
            std::vector<BlockId> work{proc.entry()};
            reachable[proc.entry()] = true;
            while (!work.empty()) {
                const BlockId id = work.back();
                work.pop_back();
                for (const std::uint32_t index : proc.outEdges(id)) {
                    const BlockId dst = proc.edge(index).dst;
                    if (dst < proc.numBlocks() && !reachable[dst]) {
                        reachable[dst] = true;
                        work.push_back(dst);
                    }
                }
            }
        }
        for (std::uint32_t i = 0; i < proc.numEdges(); ++i) {
            const Edge &edge = proc.edge(i);
            if (edge.weight == 0 || edge.src >= proc.numBlocks())
                continue;
            if (!reachable[edge.src]) {
                std::ostringstream msg;
                msg << "edge " << edge.src << " -> " << edge.dst
                    << " carries weight " << edge.weight
                    << " but its source is unreachable from the entry";
                emit(sink, "prof.unreachable-weight",
                     {proc.id(), edge.src, i}, msg.str(),
                     "no walk can traverse an unreachable edge; the "
                     "profile was recorded against a different CFG");
            }
        }
    }
}

void
lintUncalledProcWeight(const Program &program, std::vector<Diagnostic> &sink)
{
    std::vector<bool> referenced(program.numProcs(), false);
    if (program.mainProc() < program.numProcs())
        referenced[program.mainProc()] = true;
    for (const Procedure &proc : program.procs()) {
        for (const BasicBlock &block : proc.blocks()) {
            for (const CallSite &site : block.calls) {
                if (site.callee < program.numProcs())
                    referenced[site.callee] = true;
            }
        }
    }
    for (const Procedure &proc : program.procs()) {
        if (proc.id() >= referenced.size() || referenced[proc.id()])
            continue;
        const Weight weight = proc.totalEdgeWeight();
        if (weight > 0) {
            std::ostringstream msg;
            msg << "procedure carries profile weight " << weight
                << " but no call site references it and it is not main";
            emit(sink, "prof.uncalled-proc",
                 {proc.id(), kNoBlock, kNoEdge}, msg.str(),
                 "call/return pairing is broken: executed procedures "
                 "must be reachable through the call graph");
        }
    }
}

/**
 * prof.degenerate: a program with edges but no profile weight at all.
 * Every aligner tolerates this (all chains tie at weight zero and the
 * structural order wins), but the resulting layout optimizes nothing, so
 * surface it as a Note instead of accepting it silently — aggressive
 * sampling (profile/degrade.h) is the realistic way to end up here.
 */
void
lintDegenerateProfile(const Program &program, std::vector<Diagnostic> &sink)
{
    std::size_t num_edges = 0;
    Weight total = 0;
    for (const Procedure &proc : program.procs()) {
        num_edges += proc.numEdges();
        total += proc.totalEdgeWeight();
    }
    if (num_edges > 0 && total == 0) {
        emit(sink, "prof.degenerate", {kNoProc, kNoBlock, kNoEdge},
             "profile is completely empty (every edge weight is zero)",
             "alignment degenerates to the structural block order; "
             "re-profile or sample less aggressively");
    }
}

void
lintBiasRange(const Program &program, std::vector<Diagnostic> &sink)
{
    for (const Procedure &proc : program.procs()) {
        for (std::uint32_t i = 0; i < proc.numEdges(); ++i) {
            const Edge &edge = proc.edge(i);
            if (edge.bias < 0.0 || edge.bias > 1.0) {
                std::ostringstream msg;
                msg << "edge " << edge.src << " -> " << edge.dst
                    << " has bias " << edge.bias
                    << " outside the probability range [0, 1]";
                emit(sink, "prof.bias-range", {proc.id(), edge.src, i},
                     msg.str(),
                     "biases are per-edge traversal probabilities");
            }
        }
    }
}

}  // namespace

void
lintProfile(const Program &program, const LintOptions &options,
            std::vector<Diagnostic> &sink)
{
    lintFlowConservation(program, options, sink);
    lintLoopFlow(program, options, sink);
    lintDegenerateProfile(program, sink);
    lintUnreachableWeight(program, sink);
    lintUncalledProcWeight(program, sink);
    lintBiasRange(program, sink);
}

}  // namespace balign
