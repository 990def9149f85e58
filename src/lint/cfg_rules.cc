/**
 * @file
 * cfg.* rules: CFG well-formedness as diagnostics.
 *
 * This is the single implementation of the structural invariants:
 * cfg/validate.h runs the Error-severity rules (lintCfgErrors), so the
 * production pipeline's panic-on-malformed-input and the linter's
 * machine-readable findings can never drift apart. The advisory rules
 * (reachability, dead ends, irreducible regions, which need dominators
 * and loops) are lint-only and run only from lintCfg.
 */

#include <algorithm>
#include <sstream>
#include <vector>

#include "analysis/analysis.h"
#include "lint/emit.h"
#include "lint/rules.h"

namespace balign {

namespace {

using lint_detail::emit;

std::string
str(const std::ostringstream &out)
{
    return out.str();
}

/// Per-procedure half of cfg.entry: the body and entry block exist.
void
lintProcEntry(const Procedure &proc, std::vector<Diagnostic> &sink)
{
    if (proc.numBlocks() == 0) {
        emit(sink, "cfg.entry", {proc.id(), kNoBlock, kNoEdge},
             "procedure has no blocks", "every procedure needs a body");
        return;
    }
    if (proc.entry() >= proc.numBlocks()) {
        std::ostringstream out;
        out << "entry block " << proc.entry() << " out of range ("
            << proc.numBlocks() << " blocks)";
        emit(sink, "cfg.entry", {proc.id(), kNoBlock, kNoEdge},
             str(out), "point Procedure::setEntry at an existing block");
    }
}

void
lintEntryRule(const Program &program, std::vector<Diagnostic> &sink)
{
    if (program.numProcs() == 0) {
        emit(sink, "cfg.entry", {}, "program has no procedures",
             "add at least a main procedure");
        return;
    }
    if (program.mainProc() >= program.numProcs()) {
        std::ostringstream out;
        out << "main procedure " << program.mainProc() << " out of range ("
            << program.numProcs() << " procedures)";
        emit(sink, "cfg.entry", {}, str(out),
             "point Program::setMainProc at an existing procedure");
    }
}

void
lintEdgeTargets(const Procedure &proc, std::vector<Diagnostic> &sink)
{
    const ProcId pid = proc.id();
    for (std::uint32_t i = 0; i < proc.numEdges(); ++i) {
        const Edge &edge = proc.edge(i);
        if (edge.src >= proc.numBlocks() || edge.dst >= proc.numBlocks()) {
            std::ostringstream out;
            out << "edge " << edge.src << " -> " << edge.dst
                << " has an endpoint outside the " << proc.numBlocks()
                << "-block procedure";
            emit(sink, "cfg.edge-targets", {pid, kNoBlock, i}, str(out),
                 "edges may only connect existing blocks");
            continue;
        }
        const auto &outs = proc.block(edge.src).outEdges;
        if (std::find(outs.begin(), outs.end(), i) == outs.end()) {
            std::ostringstream out;
            out << "edge " << i << " (" << edge.src << " -> " << edge.dst
                << ") missing from its source block's outEdges";
            emit(sink, "cfg.edge-targets", {pid, edge.src, i}, str(out),
                 "wire edges with Procedure::addEdge, which indexes both "
                 "endpoints");
        }
        const auto &ins = proc.block(edge.dst).inEdges;
        if (std::find(ins.begin(), ins.end(), i) == ins.end()) {
            std::ostringstream out;
            out << "edge " << i << " (" << edge.src << " -> " << edge.dst
                << ") missing from its destination block's inEdges";
            emit(sink, "cfg.edge-targets", {pid, edge.dst, i}, str(out),
                 "wire edges with Procedure::addEdge, which indexes both "
                 "endpoints");
        }
    }
    // Out/in index lists must point at real edges owned by the block.
    for (const BasicBlock &block : proc.blocks()) {
        for (const std::uint32_t index : block.outEdges) {
            if (index >= proc.numEdges()) {
                std::ostringstream out;
                out << "outEdges index " << index << " out of range ("
                    << proc.numEdges() << " edges)";
                emit(sink, "cfg.edge-targets", {pid, block.id, kNoEdge},
                     str(out), "rebuild the block's edge index lists");
            } else if (proc.edge(index).src != block.id) {
                std::ostringstream out;
                out << "outEdges lists edge " << index
                    << " whose source is block " << proc.edge(index).src;
                emit(sink, "cfg.edge-targets", {pid, block.id, index},
                     str(out), "rebuild the block's edge index lists");
            }
        }
        for (const std::uint32_t index : block.inEdges) {
            if (index >= proc.numEdges()) {
                std::ostringstream out;
                out << "inEdges index " << index << " out of range ("
                    << proc.numEdges() << " edges)";
                emit(sink, "cfg.edge-targets", {pid, block.id, kNoEdge},
                     str(out), "rebuild the block's edge index lists");
            } else if (proc.edge(index).dst != block.id) {
                std::ostringstream out;
                out << "inEdges lists edge " << index
                    << " whose destination is block "
                    << proc.edge(index).dst;
                emit(sink, "cfg.edge-targets", {pid, block.id, index},
                     str(out), "rebuild the block's edge index lists");
            }
        }
    }
}

void
lintTerminatorArity(const Procedure &proc, std::vector<Diagnostic> &sink)
{
    const ProcId pid = proc.id();
    for (const BasicBlock &block : proc.blocks()) {
        unsigned taken = 0, fall = 0, other = 0;
        for (const std::uint32_t index : block.outEdges) {
            if (index >= proc.numEdges())
                continue;  // reported by cfg.edge-targets
            switch (proc.edge(index).kind) {
              case EdgeKind::Taken: ++taken; break;
              case EdgeKind::FallThrough: ++fall; break;
              case EdgeKind::Other: ++other; break;
            }
        }
        const char *expected = nullptr;
        bool bad = false;
        switch (block.term) {
          case Terminator::FallThrough:
            bad = taken != 0 || other != 0 || fall > 1;
            expected = "at most one fall-through edge and nothing else";
            break;
          case Terminator::CondBranch:
            bad = taken != 1 || fall != 1 || other != 0;
            expected = "exactly one taken and one fall-through edge";
            break;
          case Terminator::UncondBranch:
            bad = taken != 1 || fall != 0 || other != 0;
            expected = "exactly one taken edge";
            break;
          case Terminator::IndirectJump:
            bad = taken != 0 || fall != 0 || other == 0;
            expected = "one or more Other edges and nothing else";
            break;
          case Terminator::Return:
            bad = !block.outEdges.empty();
            expected = "no out-edges";
            break;
        }
        if (bad) {
            std::ostringstream out;
            out << terminatorName(block.term) << " block has taken=" << taken
                << " fall=" << fall << " other=" << other << ", expected "
                << expected;
            emit(sink, "cfg.terminator-arity", {pid, block.id, kNoEdge},
                 str(out),
                 "match the out-edge kinds to the terminator contract");
        }
    }
}

void
lintCallSites(const Program *program, const Procedure &proc,
              std::vector<Diagnostic> &sink)
{
    const ProcId pid = proc.id();
    for (const BasicBlock &block : proc.blocks()) {
        const std::uint32_t limit =
            block.hasBranchInstr() && block.numInstrs > 0
                ? block.numInstrs - 1
                : block.numInstrs;
        for (const CallSite &site : block.calls) {
            if (program != nullptr && site.callee >= program->numProcs()) {
                std::ostringstream out;
                out << "call at offset " << site.offset
                    << " targets unknown procedure " << site.callee;
                emit(sink, "cfg.call-site", {pid, block.id, kNoEdge},
                     str(out), "calls may only reference existing "
                     "procedures");
            }
            if (site.offset >= limit) {
                std::ostringstream out;
                out << "call at offset " << site.offset
                    << " overlaps the terminator slot of a "
                    << block.numInstrs << "-instruction block";
                emit(sink, "cfg.call-site", {pid, block.id, kNoEdge},
                     str(out),
                     "calls must sit strictly before the terminator");
            }
        }
    }
}

void
lintBlockSizes(const Procedure &proc, std::vector<Diagnostic> &sink)
{
    for (const BasicBlock &block : proc.blocks()) {
        if (block.numInstrs == 0) {
            emit(sink, "cfg.block-size", {proc.id(), block.id, kNoEdge},
                 "block has zero instructions",
                 "every block holds at least its own terminator or one "
                 "straight-line instruction");
        }
    }
}

/// Reachability from the entry over out-edges (ignores calls: this is the
/// intra-procedure CFG the aligners and the walker traverse).
std::vector<bool>
reachableFromEntry(const Procedure &proc)
{
    std::vector<bool> reachable(proc.numBlocks(), false);
    if (proc.entry() >= proc.numBlocks())
        return reachable;
    std::vector<BlockId> work{proc.entry()};
    reachable[proc.entry()] = true;
    while (!work.empty()) {
        const BlockId id = work.back();
        work.pop_back();
        for (const std::uint32_t index : proc.block(id).outEdges) {
            if (index >= proc.numEdges())
                continue;
            const BlockId dst = proc.edge(index).dst;
            if (dst < proc.numBlocks() && !reachable[dst]) {
                reachable[dst] = true;
                work.push_back(dst);
            }
        }
    }
    return reachable;
}

void
lintReachability(const Procedure &proc, std::vector<Diagnostic> &sink)
{
    const std::vector<bool> reachable = reachableFromEntry(proc);
    for (const BasicBlock &block : proc.blocks()) {
        if (block.id < reachable.size() && !reachable[block.id]) {
            emit(sink, "cfg.unreachable-block",
                 {proc.id(), block.id, kNoEdge},
                 "block is unreachable from the procedure entry",
                 "dead code keeps its original position and dilutes "
                 "layout locality; consider garbage-collecting it");
        }
        const bool sink_block = block.outEdges.empty();
        if (sink_block && block.term != Terminator::Return) {
            std::ostringstream out;
            out << terminatorName(block.term)
                << " block has no successor; the walker treats it as a "
                   "silent procedure exit";
            emit(sink, "cfg.dead-end", {proc.id(), block.id, kNoEdge},
                 str(out), "terminate exit paths with an explicit Return");
        }
    }
}

/// Reports every retreating edge that re-enters a loop region other than
/// through the region's header. The analysis layer proves the existence
/// of such edges is DFS-order invariant, so the finding is stable.
void
lintIrreducible(const Procedure &proc, std::vector<Diagnostic> &sink)
{
    const ProcAnalysis analysis = ProcAnalysis::of(proc);
    for (const auto &[src, dst] : analysis.loops.irreducibleEdges) {
        std::ostringstream out;
        out << "retreating edge " << src << " -> " << dst
            << " enters a loop region whose header does not dominate "
               "it (irreducible control flow)";
        emit(sink, "cfg.irreducible", {proc.id(), src, kNoEdge}, str(out),
             "multi-entry loops defeat header-anchored layout "
             "heuristics; consider node splitting");
    }
}

}  // namespace

void
lintCfgProcErrors(const Procedure &proc, const Program *program,
                  std::vector<Diagnostic> &sink)
{
    lintProcEntry(proc, sink);
    if (proc.numBlocks() == 0)
        return;  // nothing else is meaningful on an empty body
    lintEdgeTargets(proc, sink);
    lintTerminatorArity(proc, sink);
    lintCallSites(program, proc, sink);
    lintBlockSizes(proc, sink);
}

void
lintCfgErrors(const Program &program, std::vector<Diagnostic> &sink)
{
    lintEntryRule(program, sink);
    for (const Procedure &proc : program.procs())
        lintCfgProcErrors(proc, &program, sink);
}

void
lintCfg(const Program &program, std::vector<Diagnostic> &sink)
{
    lintEntryRule(program, sink);
    for (const Procedure &proc : program.procs()) {
        lintCfgProcErrors(proc, &program, sink);
        if (proc.numBlocks() == 0)
            continue;
        lintReachability(proc, sink);
        lintIrreducible(proc, sink);
    }
}

}  // namespace balign
