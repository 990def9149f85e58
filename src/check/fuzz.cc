#include "check/fuzz.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "cfg/serialize.h"
#include "cfg/validate.h"
#include "core/realign.h"
#include "disasm/checkobj.h"
#include "emit/elf.h"
#include "emit/relax.h"
#include "estimate/estimate.h"
#include "layout/layout_diff.h"
#include "lint/lint.h"
#include "profile/degrade.h"
#include "support/log.h"
#include "support/rng.h"
#include "verify/verify.h"
#include "workload/generator.h"

namespace balign {

namespace {

// -----------------------------------------------------------------------
// Degenerate shapes. Each is the smallest program exhibiting one walker /
// materializer / evaluator corner; seeds only perturb sizes and biases so
// every fuzz run still covers every corner.

/// 1..cap, perturbed by seed.
std::uint32_t
vary(std::uint64_t seed, std::uint32_t cap)
{
    return 1 + static_cast<std::uint32_t>(seed % cap);
}

Program
shapeMinimalReturn(std::uint64_t seed)
{
    Program program("degen-minimal-return");
    const ProcId p = program.addProc("main");
    program.proc(p).addBlock(vary(seed, 3), Terminator::Return);
    return program;
}

Program
shapeTightLoop(std::uint64_t seed)
{
    Program program("degen-tight-loop");
    Procedure &proc = program.proc(program.addProc("main"));
    const BlockId head = proc.addBlock(vary(seed, 4), Terminator::CondBranch);
    const BlockId exit = proc.addBlock(1, Terminator::Return);
    proc.addEdge(head, head, EdgeKind::Taken, 0, 0.9);
    proc.addEdge(head, exit, EdgeKind::FallThrough, 0, 0.1);
    if (seed % 2 == 1) {
        // Fixed-trip variant: taken-taken-taken-fall cycle.
        proc.block(head).patternLength = 4;
        proc.block(head).patternMask = 0b0111;
    }
    return program;
}

Program
shapeUncondChain(std::uint64_t seed)
{
    // A permuted unconditional chain: every block jumps to a non-adjacent
    // successor, so reordering aligners can delete every jump (the
    // jump-removal feast) while the original layout keeps them all.
    Program program("degen-uncond-chain");
    Procedure &proc = program.proc(program.addProc("main"));
    for (int i = 0; i < 4; ++i)
        proc.addBlock(vary(seed + i, 3), Terminator::UncondBranch);
    proc.addBlock(1, Terminator::Return);
    proc.addEdge(0, 3, EdgeKind::Taken, 0, 1.0);
    proc.addEdge(3, 1, EdgeKind::Taken, 0, 1.0);
    proc.addEdge(1, 2, EdgeKind::Taken, 0, 1.0);
    proc.addEdge(2, 4, EdgeKind::Taken, 0, 1.0);
    return program;
}

Program
shapeDenseIndirect(std::uint64_t seed)
{
    Program program("degen-dense-indirect");
    Procedure &proc = program.proc(program.addProc("main"));
    const BlockId hub = proc.addBlock(vary(seed, 2), Terminator::IndirectJump);
    for (int i = 0; i < 5; ++i) {
        const BlockId leaf = proc.addBlock(1, Terminator::Return);
        // Half the runs leave all biases zero (uniform fallback).
        const double bias = seed % 2 == 0 ? 0.0 : 0.1 * (i + 1);
        proc.addEdge(hub, leaf, EdgeKind::Other, 0, bias);
    }
    return program;
}

Program
shapeManyTinyProcs(std::uint64_t seed)
{
    Program program("degen-many-tiny-procs");
    const ProcId main_id = program.addProc("main");
    const unsigned callees = 4;
    for (unsigned i = 0; i < callees; ++i) {
        const ProcId callee =
            program.addProc("leaf" + std::to_string(i));
        program.proc(callee).addBlock(vary(seed + i, 2),
                                      Terminator::Return);
    }
    Procedure &main_proc = program.proc(main_id);
    const BlockId body =
        main_proc.addBlock(callees + 2, Terminator::Return);
    for (unsigned i = 0; i < callees; ++i)
        main_proc.block(body).calls.push_back(
            CallSite{static_cast<ProcId>(main_id + 1 + i), i});
    return program;
}

Program
shapeOneInstrDiamond(std::uint64_t seed)
{
    // Every block is a single instruction — the branch itself.
    Program program("degen-one-instr-diamond");
    Procedure &proc = program.proc(program.addProc("main"));
    const BlockId top = proc.addBlock(1, Terminator::CondBranch);
    const BlockId left = proc.addBlock(1, Terminator::UncondBranch);
    const BlockId right = proc.addBlock(1, Terminator::FallThrough);
    const BlockId join = proc.addBlock(1, Terminator::Return);
    const double p = 0.2 + 0.15 * static_cast<double>(seed % 5);
    proc.addEdge(top, left, EdgeKind::Taken, 0, p);
    proc.addEdge(top, right, EdgeKind::FallThrough, 0, 1.0 - p);
    proc.addEdge(left, join, EdgeKind::Taken, 0, 1.0);
    proc.addEdge(right, join, EdgeKind::FallThrough, 0, 1.0);
    return program;
}

Program
shapeHotLoop(std::uint64_t seed)
{
    // Maximally hot loop edge: nearly the whole budget traverses one edge.
    Program program("degen-hot-loop");
    Procedure &proc = program.proc(program.addProc("main"));
    const BlockId pre = proc.addBlock(vary(seed, 3), Terminator::FallThrough);
    const BlockId body = proc.addBlock(vary(seed + 1, 6),
                                       Terminator::CondBranch);
    const BlockId exit = proc.addBlock(1, Terminator::Return);
    proc.addEdge(pre, body, EdgeKind::FallThrough, 0, 1.0);
    proc.addEdge(body, body, EdgeKind::Taken, 0, 0.9999);
    proc.addEdge(body, exit, EdgeKind::FallThrough, 0, 0.0001);
    return program;
}

Program
shapeDeepCalls(std::uint64_t seed)
{
    // A call chain longer than the walker's depth cap (64): the deepest
    // calls are skipped, exercising the cap and wrapping the return stack.
    Program program("degen-deep-calls");
    const unsigned depth = 70;
    for (unsigned i = 0; i < depth; ++i) {
        // Appended, not `"f" + std::to_string(i)`: g++ 12 at -O3 misreads
        // that inlined insert as an overlapping memcpy (-Wrestrict).
        std::string name = "f";
        name += std::to_string(i);
        program.addProc(name);
    }
    for (unsigned i = 0; i < depth; ++i) {
        Procedure &proc = program.proc(i);
        const BlockId body =
            proc.addBlock(2 + (seed + i) % 2, Terminator::Return);
        if (i + 1 < depth)
            proc.block(body).calls.push_back(CallSite{i + 1, 0});
    }
    return program;
}

Program
shapeSelfRecursion(std::uint64_t seed)
{
    Program program("degen-self-recursion");
    Procedure &proc = program.proc(program.addProc("main"));
    const BlockId body = proc.addBlock(2 + seed % 2, Terminator::Return);
    proc.block(body).calls.push_back(CallSite{0, 0});
    return program;
}

Program
shapePatternedCorrelated(std::uint64_t seed)
{
    // A patterned branch and a second branch correlated (inverted) with
    // it — the two-level-predictor-friendly behaviour.
    Program program("degen-patterned-correlated");
    Procedure &proc = program.proc(program.addProc("main"));
    const BlockId first = proc.addBlock(2, Terminator::CondBranch);
    const BlockId a = proc.addBlock(1, Terminator::FallThrough);
    const BlockId b = proc.addBlock(1, Terminator::FallThrough);
    const BlockId second = proc.addBlock(2, Terminator::CondBranch);
    const BlockId c = proc.addBlock(1, Terminator::FallThrough);
    const BlockId d = proc.addBlock(1, Terminator::FallThrough);
    const BlockId out = proc.addBlock(1, Terminator::Return);
    proc.block(first).patternLength = 3;
    proc.block(first).patternMask = 0b101;
    proc.block(second).correlatedWith = first;
    proc.block(second).correlatedInvert = seed % 2 == 1;
    proc.addEdge(first, a, EdgeKind::Taken, 0, 0.5);
    proc.addEdge(first, b, EdgeKind::FallThrough, 0, 0.5);
    proc.addEdge(a, second, EdgeKind::FallThrough, 0, 1.0);
    proc.addEdge(b, second, EdgeKind::FallThrough, 0, 1.0);
    proc.addEdge(second, c, EdgeKind::Taken, 0, 0.5);
    proc.addEdge(second, d, EdgeKind::FallThrough, 0, 0.5);
    proc.addEdge(c, out, EdgeKind::FallThrough, 0, 1.0);
    proc.addEdge(d, out, EdgeKind::FallThrough, 0, 1.0);
    return program;
}

Program
shapeDeadEndFall(std::uint64_t seed)
{
    // A fall-through block with no successor: the walk dead-ends and
    // unwinds without a Return event.
    Program program("degen-dead-end-fall");
    Procedure &proc = program.proc(program.addProc("main"));
    const BlockId top = proc.addBlock(vary(seed, 3), Terminator::CondBranch);
    const BlockId dead = proc.addBlock(1, Terminator::FallThrough);
    const BlockId out = proc.addBlock(1, Terminator::Return);
    proc.addEdge(top, dead, EdgeKind::Taken, 0, 0.3);
    proc.addEdge(top, out, EdgeKind::FallThrough, 0, 0.7);
    return program;
}

Program
shapeUnreachableBlocks(std::uint64_t seed)
{
    Program program("degen-unreachable-blocks");
    Procedure &proc = program.proc(program.addProc("main"));
    const BlockId top = proc.addBlock(vary(seed, 3),
                                      Terminator::UncondBranch);
    const BlockId orphan = proc.addBlock(2, Terminator::FallThrough);
    const BlockId out = proc.addBlock(1, Terminator::Return);
    proc.addBlock(1, Terminator::Return);  // second orphan, no edges
    proc.addEdge(top, out, EdgeKind::Taken, 0, 1.0);
    proc.addEdge(orphan, out, EdgeKind::FallThrough, 0, 1.0);
    return program;
}

using ShapeFn = Program (*)(std::uint64_t);

struct Shape
{
    const char *name;
    ShapeFn build;
};

const Shape kShapes[] = {
    {"minimal-return", shapeMinimalReturn},
    {"tight-loop", shapeTightLoop},
    {"uncond-chain", shapeUncondChain},
    {"dense-indirect", shapeDenseIndirect},
    {"many-tiny-procs", shapeManyTinyProcs},
    {"one-instr-diamond", shapeOneInstrDiamond},
    {"hot-loop", shapeHotLoop},
    {"deep-calls", shapeDeepCalls},
    {"self-recursion", shapeSelfRecursion},
    {"patterned-correlated", shapePatternedCorrelated},
    {"dead-end-fall", shapeDeadEndFall},
    {"unreachable-blocks", shapeUnreachableBlocks},
};

constexpr std::size_t kNumShapes = sizeof(kShapes) / sizeof(kShapes[0]);

}  // namespace

std::size_t
numDegenerateKinds()
{
    return kNumShapes;
}

const char *
degenerateKindName(std::size_t kind)
{
    if (kind >= kNumShapes)
        fatal("degenerateKindName: kind %zu out of range", kind);
    return kShapes[kind].name;
}

Program
degenerateProgram(std::size_t kind, std::uint64_t seed)
{
    if (kind >= kNumShapes)
        fatal("degenerateProgram: kind %zu out of range", kind);
    Program program = kShapes[kind].build(seed);
    validateOrDie(program);
    return program;
}

Program
fuzzProgram(std::uint64_t seed)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
    ProgramSpec spec;
    spec.name = "fuzz-" + std::to_string(seed);
    spec.seed = rng.nextU64();
    spec.numProcs = 1 + static_cast<unsigned>(rng.nextBounded(6));
    spec.minBlocksPerProc = 1 + static_cast<unsigned>(rng.nextBounded(4));
    spec.maxBlocksPerProc =
        spec.minBlocksPerProc + static_cast<unsigned>(rng.nextBounded(28));
    spec.avgBlockInstrs = 1 + static_cast<unsigned>(rng.nextBounded(9));
    spec.maxLoopDepth = static_cast<unsigned>(rng.nextBounded(4));
    spec.loopProb = rng.nextDouble() * 0.5;
    spec.whileLoopProb = rng.nextDouble();
    spec.tightLoopProb = rng.nextDouble() * 0.6;
    spec.loopContinueProb = 0.5 + rng.nextDouble() * 0.49;
    spec.fixedTripProb = rng.nextDouble();
    spec.minTripCount = 1 + static_cast<unsigned>(rng.nextBounded(4));
    spec.maxTripCount =
        spec.minTripCount + static_cast<unsigned>(rng.nextBounded(30));
    spec.patternedIfProb = rng.nextDouble() * 0.4;
    spec.correlatedIfProb = rng.nextDouble() * 0.4;
    spec.ifProb = 0.1 + rng.nextDouble() * 0.5;
    spec.elseProb = rng.nextDouble();
    spec.ifSkewHot = 0.5 + rng.nextDouble() * 0.5;
    spec.balancedIfProb = rng.nextDouble() * 0.5;
    spec.hotSideFallProb = rng.nextDouble();
    spec.switchProb = rng.nextDouble() * 0.15;
    spec.maxSwitchCases = 2 + static_cast<unsigned>(rng.nextBounded(8));
    spec.callProb = rng.nextDouble() * 0.3;
    spec.earlyReturnProb = rng.nextDouble() * 0.15;
    Program program = generateProgram(spec);
    validateOrDie(program);
    return program;
}

Program
programForSeed(std::uint64_t seed)
{
    // Every third seed replays a degenerate shape so each corner is
    // covered many times per campaign; the rest are random CFGs.
    if (seed % 3 == 0)
        return degenerateProgram((seed / 3) % kNumShapes, seed / 3);
    return fuzzProgram(seed);
}

WalkOptions
walkForSeed(std::uint64_t seed, std::uint64_t instr_budget)
{
    WalkOptions walk;
    walk.seed = seed * 0xBF58476D1CE4E5B9ull + 0x94D049BB133111EBull;
    walk.instrBudget = instr_budget;
    return walk;
}

// -----------------------------------------------------------------------
// Shrinker. Every transformation rebuilds the program from scratch so the
// dense-id and index invariants hold by construction.

namespace {

/// Copies a block's payload (sizes, pattern, correlation, calls) without
/// its edges.
void
copyBlockPayload(const BasicBlock &from, BasicBlock &to)
{
    to.numInstrs = from.numInstrs;
    to.patternLength = from.patternLength;
    to.patternMask = from.patternMask;
    to.correlatedWith = from.correlatedWith;
    to.correlatedInvert = from.correlatedInvert;
    to.calls = from.calls;
}

/// Drops call sites that would overlap the terminator slot.
void
clampCalls(BasicBlock &block)
{
    const std::uint32_t limit =
        block.hasBranchInstr() ? block.numInstrs - 1 : block.numInstrs;
    std::vector<CallSite> kept;
    for (const CallSite &site : block.calls) {
        if (site.offset < limit)
            kept.push_back(site);
    }
    block.calls = std::move(kept);
}

/// @p victim removed; calls into it dropped, ids above it shifted down.
Program
dropProcedure(const Program &program, ProcId victim)
{
    Program out(program.name());
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        if (p == victim)
            continue;
        const Procedure &old = program.proc(p);
        Procedure &proc = out.proc(out.addProc(old.name()));
        for (const BasicBlock &block : old.blocks()) {
            const BlockId id = proc.addBlock(block.numInstrs, block.term);
            copyBlockPayload(block, proc.block(id));
            std::vector<CallSite> calls;
            for (const CallSite &site : proc.block(id).calls) {
                if (site.callee == victim)
                    continue;
                CallSite kept = site;
                if (kept.callee > victim)
                    --kept.callee;
                calls.push_back(kept);
            }
            proc.block(id).calls = std::move(calls);
        }
        for (const Edge &edge : old.edges())
            proc.addEdge(edge.src, edge.dst, edge.kind, edge.weight,
                         edge.bias);
        proc.setEntry(old.entry());
    }
    ProcId main_id = program.mainProc();
    if (main_id > victim)
        --main_id;
    out.setMainProc(main_id);
    return out;
}

/**
 * Truncates block @p target of procedure @p victim to a plain return,
 * then garbage-collects blocks no longer reachable from the entry
 * (remapping ids densely).
 */
Program
truncateBlock(const Program &program, ProcId victim, BlockId target)
{
    Program out(program.name());
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        const Procedure &old = program.proc(p);
        Procedure &proc = out.proc(out.addProc(old.name()));
        if (p != victim) {
            for (const BasicBlock &block : old.blocks()) {
                const BlockId id =
                    proc.addBlock(block.numInstrs, block.term);
                copyBlockPayload(block, proc.block(id));
            }
            for (const Edge &edge : old.edges())
                proc.addEdge(edge.src, edge.dst, edge.kind, edge.weight,
                             edge.bias);
            proc.setEntry(old.entry());
            continue;
        }

        // Reachability from the entry, with the target's out-edges cut.
        std::vector<bool> reachable(old.numBlocks(), false);
        std::vector<BlockId> work{old.entry()};
        reachable[old.entry()] = true;
        while (!work.empty()) {
            const BlockId id = work.back();
            work.pop_back();
            if (id == target)
                continue;
            for (const std::uint32_t index : old.outEdges(id)) {
                const BlockId dst = old.edge(index).dst;
                if (!reachable[dst]) {
                    reachable[dst] = true;
                    work.push_back(dst);
                }
            }
        }

        std::vector<BlockId> remap(old.numBlocks(), kNoBlock);
        for (const BasicBlock &block : old.blocks()) {
            if (!reachable[block.id])
                continue;
            const bool truncated = block.id == target;
            const BlockId id = proc.addBlock(
                block.numInstrs,
                truncated ? Terminator::Return : block.term);
            remap[block.id] = id;
            copyBlockPayload(block, proc.block(id));
            clampCalls(proc.block(id));
        }
        for (const BasicBlock &block : old.blocks()) {
            const BlockId id = remap[block.id];
            if (id == kNoBlock)
                continue;
            BlockId &corr = proc.block(id).correlatedWith;
            corr = corr == kNoBlock ? kNoBlock : remap[corr];
        }
        for (const Edge &edge : old.edges()) {
            if (edge.src == target)
                continue;
            if (remap[edge.src] == kNoBlock || remap[edge.dst] == kNoBlock)
                continue;
            proc.addEdge(remap[edge.src], remap[edge.dst], edge.kind,
                         edge.weight, edge.bias);
        }
        proc.setEntry(remap[old.entry()]);
    }
    out.setMainProc(program.mainProc());
    return out;
}

/// Halves every block's instruction count (floor 1), dropping call sites
/// that no longer fit. Returns nullopt when nothing changed.
std::optional<Program>
halveBlockSizes(const Program &program)
{
    Program out = program;
    bool changed = false;
    for (Procedure &proc : out.procs()) {
        for (BasicBlock &block : proc.blocks()) {
            if (block.numInstrs <= 1)
                continue;
            block.numInstrs = std::max(1u, block.numInstrs / 2);
            clampCalls(block);
            changed = true;
        }
    }
    if (!changed)
        return std::nullopt;
    return out;
}

}  // namespace

Repro
shrinkRepro(Repro repro,
            const std::function<bool(const Repro &)> &stillFails)
{
    auto try_candidate = [&](Repro &&candidate) {
        if (!validate(candidate.program).empty())
            return false;
        if (!stillFails(candidate))
            return false;
        repro = std::move(candidate);
        return true;
    };

    bool changed = true;
    while (changed) {
        changed = false;

        // 1. Drop whole procedures (never main).
        for (ProcId p = 0; p < repro.program.numProcs();) {
            if (repro.program.numProcs() <= 1 ||
                p == repro.program.mainProc()) {
                ++p;
                continue;
            }
            if (try_candidate(
                    Repro{dropProcedure(repro.program, p), repro.walk})) {
                changed = true;  // ids shifted; re-examine the same index
            } else {
                ++p;
            }
        }

        // 2. Truncate blocks to returns (unreachable blocks fall away).
        for (ProcId p = 0; p < repro.program.numProcs(); ++p) {
            for (BlockId b = 0; b < repro.program.proc(p).numBlocks();) {
                if (repro.program.proc(p).block(b).term ==
                    Terminator::Return) {
                    ++b;
                    continue;
                }
                if (try_candidate(Repro{
                        truncateBlock(repro.program, p, b), repro.walk})) {
                    changed = true;
                    b = 0;  // ids were remapped
                } else {
                    ++b;
                }
            }
        }

        // 3. Halve the trace budget.
        while (repro.walk.instrBudget > 64) {
            Repro candidate = repro;
            candidate.walk.instrBudget /= 2;
            if (!try_candidate(std::move(candidate)))
                break;
            changed = true;
        }

        // 4. Halve block weights (instruction counts).
        while (true) {
            std::optional<Program> halved =
                halveBlockSizes(repro.program);
            if (!halved.has_value() ||
                !try_candidate(Repro{std::move(*halved), repro.walk}))
                break;
            changed = true;
        }
    }
    return repro;
}

void
saveRepro(const Repro &repro, const std::string &path)
{
    std::ofstream file(path);
    if (!file)
        fatal("saveRepro: cannot open %s", path.c_str());
    file << "# balign-fuzz-walk seed=" << repro.walk.seed
         << " budget=" << repro.walk.instrBudget << "\n";
    file << programToString(repro.program);
    if (!file)
        fatal("saveRepro: write to %s failed", path.c_str());
}

std::optional<Repro>
loadRepro(const std::string &path)
{
    std::ifstream file(path);
    if (!file) {
        warn("loadRepro: cannot open %s", path.c_str());
        return std::nullopt;
    }
    const std::string text = readText(file);

    // The walk header is the first line it matches. The pattern starts
    // with '#', so only comment lines, copied one at a time, are tried.
    Repro repro;
    std::string line;
    for (std::size_t pos = 0; pos < text.size();) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        if (text[pos] == '#') {
            line.assign(text, pos, eol - pos);
            unsigned long long seed = 0, budget = 0;
            if (std::sscanf(line.c_str(),
                            "# balign-fuzz-walk seed=%llu budget=%llu",
                            &seed, &budget) == 2) {
                repro.walk.seed = seed;
                repro.walk.instrBudget = budget;
                break;
            }
        }
        pos = eol + 1;
    }

    ParseResult parsed = programFromString(text);
    if (!parsed.ok()) {
        warn("loadRepro: %s:%zu: %s", path.c_str(), parsed.errorLine,
             parsed.error.c_str());
        return std::nullopt;
    }
    repro.program = std::move(*parsed.program);
    return repro;
}

ConfigSweep
fuzzSweep()
{
    ConfigSweep sweep;
    sweep.kinds = allAlignerKindsExtended();
    sweep.objectives = allObjectiveKinds();
    return sweep;
}

namespace {

/// A finding of @p kind on the layout of @p program aligned under
/// @p config.
Divergence
finding(DivergenceKind kind, const Program &program,
        const SweepConfig &config, std::string detail)
{
    Divergence divergence;
    divergence.kind = kind;
    divergence.arch = config.arch;
    divergence.aligner = config.kind;
    divergence.objective = config.objective;
    divergence.program = program.name();
    divergence.detail = std::move(detail);
    return divergence;
}

/// @p sweep narrowed to the Fallthrough architecture.
ConfigSweep
atFallthrough(ConfigSweep sweep)
{
    sweep.archs = {Arch::Fallthrough};
    return sweep;
}

}  // namespace

std::optional<Divergence>
lintGateCheck(const Program &program, const ConfigSweep &sweep)
{
    // One objective at a time, so the finding names the objective whose
    // layouts broke a rule.
    for (const ObjectiveKind objective : sweep.sweptObjectives()) {
        LintRunOptions run;
        run.sweep = sweep;
        run.sweep.objectives = {objective};
        const LintReport report = lintProgram(program, run);
        if (report.clean())
            continue;

        Divergence divergence;
        divergence.kind = DivergenceKind::Lint;
        divergence.objective = objective;
        divergence.program = program.name();
        std::ostringstream detail;
        for (const Diagnostic &diagnostic : report.diagnostics) {
            if (diagnostic.severity == Severity::Error)
                detail << "  " << formatDiagnostic(diagnostic) << "\n";
        }
        divergence.detail = detail.str();
        return divergence;
    }
    return std::nullopt;
}

std::optional<Divergence>
verifyGateCheck(const Program &program, const ConfigSweep &sweep,
                const LayoutMutator &mutate)
{
    VerifyRunOptions run;
    run.sweep = sweep;
    run.mutate = mutate;
    const VerifyRunReport report = verifyProgramLayouts(program, run);
    if (!report.firstFailure.has_value())
        return std::nullopt;
    // Pinned to the first failing configuration, so the repro names a
    // concrete (arch, aligner, objective) triple.
    return finding(DivergenceKind::Verify, program, *report.firstFailure,
                   formatVerifyReport(report, program.name()));
}

std::optional<Divergence>
realignGateCheck(const Program &program, const WalkOptions &walk,
                 const ConfigSweep &sweep)
{
    // Deterministic profile mutation: multiplicative noise moves some
    // procedures past any mid-range divergence threshold while others
    // stay below it, so the mid-threshold check splices a genuine mix of
    // old and fresh procedure layouts.
    Program degraded = program;
    DegradeSpec spec;
    spec.kind = DegradeKind::Perturb;
    spec.param = 0.5;
    spec.seed = 0x5EED5EEDull;
    degradeProfile(degraded, walk, spec);

    std::optional<Divergence> found;
    forEachSweptLayout(
        program, atFallthrough(sweep),
        [&](const SweepConfig &config, ProgramLayout &old_layout) {
            auto report = [&](const std::string &what,
                              const std::string &detail) {
                found = finding(DivergenceKind::Realign, program, config,
                                "  " + what + ": " + detail + "\n");
                return true;
            };

            const CostModel model(config.arch);
            const ProgramLayout full =
                alignProgram(degraded, config.kind, &model, config.align);

            const ProgramLayout incremental =
                realignProgram(program, old_layout, degraded, config.kind,
                               &model, config.align, 0.0);
            std::string mismatch =
                describeLayoutDifference(full, incremental);
            if (!mismatch.empty())
                return report("threshold 0 differs from full alignProgram",
                              mismatch);

            const ProgramLayout kept =
                realignProgram(program, old_layout, degraded, config.kind,
                               &model, config.align, kNeverRealign);
            mismatch = describeLayoutDifference(old_layout, kept);
            if (!mismatch.empty())
                return report(
                    "threshold infinity differs from the old layout",
                    mismatch);

            RealignStats stats;
            const ProgramLayout spliced =
                realignProgram(program, old_layout, degraded, config.kind,
                               &model, config.align, 0.25, &stats);
            const VerifyResult proof = verifyLayout(degraded, spliced);
            if (!proof.verified()) {
                std::ostringstream detail;
                detail << "spliced " << stats.procsRealigned << "/"
                       << stats.procsTotal << " procedures; "
                       << formatVerifyFailure(proof.failures.front());
                return report("mid-threshold splice failed verification",
                              detail.str());
            }
            return false;
        });
    return found;
}

std::optional<Divergence>
estimateGateCheck(const Program &program, const ConfigSweep &sweep)
{
    // Estimate once; every check below runs against this copy.
    Program estimated = program;
    estimateProfile(estimated);

    // The synthesized profile must satisfy the same static invariants a
    // measured profile does (prof.*), plus the estimator's own (est.*).
    {
        LintRunOptions lint_run;
        lint_run.layoutRules = false;
        const LintReport lint = lintProgram(estimated, lint_run);
        if (!lint.clean()) {
            std::ostringstream detail;
            detail << "  estimated profile fails static lint: ";
            for (const Diagnostic &diagnostic : lint.diagnostics) {
                if (diagnostic.severity == Severity::Error)
                    detail << formatDiagnostic(diagnostic) << "; ";
            }
            detail << "\n";
            // Found before any layout: no configuration to name.
            return finding(DivergenceKind::Estimate, program, SweepConfig(),
                           detail.str());
        }
    }

    // Every aligner must produce a verifiable layout from the estimate.
    std::optional<Divergence> found;
    forEachSweptLayout(
        estimated, atFallthrough(sweep),
        [&](const SweepConfig &config, ProgramLayout &layout) {
            const VerifyResult proof = verifyLayout(estimated, layout);
            if (proof.verified())
                return false;
            found = finding(
                DivergenceKind::Estimate, program, config,
                "  layout aligned on the estimated profile failed "
                "verification: " +
                    formatVerifyFailure(proof.failures.front()) + "\n");
            return true;
        });
    return found;
}

std::optional<Divergence>
emitGateCheck(const Program &program, const ConfigSweep &sweep)
{
    std::optional<Divergence> found;
    forEachSweptLayout(
        program, atFallthrough(sweep),
        [&](const SweepConfig &config, ProgramLayout &layout) {
            for (const EncodingModelKind encoding :
                 allEncodingModelKinds()) {
                auto report = [&](DivergenceKind kind,
                                  const std::string &what,
                                  const std::string &detail) {
                    found = finding(kind, program, config,
                                    std::string("  ") +
                                        encodingModelKindName(encoding) +
                                        ": " + what + ": " + detail + "\n");
                    return true;
                };
                auto emit = [&](const std::string &what,
                                const std::string &detail) {
                    return report(DivergenceKind::Emit, what, detail);
                };

                const EncodingModel &em = encodingModel(encoding);
                const RelaxedLayout relaxed =
                    relaxLayout(program, layout, em);
                if (!relaxed.converged)
                    return emit("relaxation did not converge",
                                relaxed.diagnostic);

                const VerifyResult proof =
                    verifyRelaxedLayout(program, layout, relaxed, em);
                if (!proof.verified())
                    return emit("relaxed layout failed verification",
                                formatVerifyFailure(proof.failures.front()));

                // Fixpoint determinism: relaxation keeps no hidden
                // state, so a second run must reproduce every byte.
                const RelaxedLayout again = relaxLayout(program, layout, em);
                if (again.totalBytes != relaxed.totalBytes ||
                    again.iterations != relaxed.iterations ||
                    again.instrs.size() != relaxed.instrs.size()) {
                    std::ostringstream detail;
                    detail << "bytes " << relaxed.totalBytes << " vs "
                           << again.totalBytes << ", sweeps "
                           << relaxed.iterations << " vs "
                           << again.iterations;
                    return emit("second relaxation diverged", detail.str());
                }
                for (std::size_t i = 0; i < relaxed.instrs.size(); ++i) {
                    const RelaxedInstr &a = relaxed.instrs[i];
                    const RelaxedInstr &b = again.instrs[i];
                    if (a.byteAddr != b.byteAddr || a.form != b.form ||
                        a.size != b.size || a.disp != b.disp) {
                        std::ostringstream detail;
                        detail << "slot " << i << " ("
                               << instrClassName(a.cls) << " at word "
                               << a.wordAddr << ") byte " << a.byteAddr
                               << "/" << branchFormName(a.form) << " vs "
                               << b.byteAddr << "/"
                               << branchFormName(b.form);
                        return emit("second relaxation diverged",
                                    detail.str());
                    }
                }

                const std::vector<std::uint8_t> object =
                    buildElfObject(program, relaxed, em);
                const ParsedElf parsed = parseElfObject(object);
                if (!parsed.ok)
                    return emit("emitted object failed to parse",
                                parsed.error);
                if (parsed.text != encodeText(relaxed, em)) {
                    std::ostringstream detail;
                    detail << "parsed " << parsed.text.size()
                           << " text byte(s), encoder produced "
                           << relaxed.totalBytes;
                    return emit("parsed .text differs from the encoder "
                                "output",
                                detail.str());
                }

                // The same parsed object through the independent
                // disassembler.
                const ObjCheckResult check =
                    checkObject(program, relaxed, parsed);
                if (!check.verified()) {
                    std::ostringstream detail;
                    detail << check.totalFailures() << " of "
                           << check.totalChecks()
                           << " byte-level obligation checks failed";
                    return report(DivergenceKind::Disasm, detail.str(),
                                  formatObjFailure(check.failures.front()));
                }
            }
            return false;
        });
    return found;
}

std::uint64_t
FuzzReport::count(DivergenceKind kind) const
{
    return static_cast<std::uint64_t>(
        std::count_if(divergences.begin(), divergences.end(),
                      [&](const Divergence &divergence) {
                          return divergence.kind == kind;
                      }));
}

FuzzReport
runFuzz(const FuzzOptions &options)
{
    FuzzReport report;

    const DiffOptions first_only{options.sweep, 1};

    // Every per-seed gate, in order: the static and alignment-level
    // checks first (no trace replay), the differential oracle last.
    using Gate =
        std::function<std::optional<Divergence>(const PreparedProgram &)>;
    const Gate gates[] = {
        [&](const PreparedProgram &prepared) {
            return lintGateCheck(prepared.program, options.sweep);
        },
        [&](const PreparedProgram &prepared) {
            return verifyGateCheck(prepared.program, options.sweep,
                                   options.layoutMutator);
        },
        [&](const PreparedProgram &prepared) {
            return realignGateCheck(prepared.program, prepared.walk,
                                    options.sweep);
        },
        [&](const PreparedProgram &prepared) {
            return estimateGateCheck(prepared.program, options.sweep);
        },
        [&](const PreparedProgram &prepared) {
            return emitGateCheck(prepared.program, options.sweep);
        },
        [&](const PreparedProgram &prepared) -> std::optional<Divergence> {
            std::vector<Divergence> divergences =
                diffPrepared(prepared, first_only);
            if (divergences.empty())
                return std::nullopt;
            return std::move(divergences.front());
        },
    };

    // One seed's full check — and the shrinker's predicate: profile once,
    // then run the gates on the same prepared program; the first finding
    // wins.
    auto check = [&](Program program,
                     const WalkOptions &walk) -> std::optional<Divergence> {
        const PreparedProgram prepared =
            prepareProgram(std::move(program), walk);
        for (const Gate &gate : gates) {
            std::optional<Divergence> hit = gate(prepared);
            if (hit.has_value())
                return hit;
        }
        return std::nullopt;
    };

    std::vector<std::optional<Divergence>> found(options.seeds);
    auto run_seed = [&](std::size_t i) {
        const std::uint64_t seed = options.firstSeed + i;
        const WalkOptions walk = walkForSeed(seed, options.walkInstrs);
        found[i] = check(programForSeed(seed), walk);
    };
    if (options.pool != nullptr) {
        options.pool->parallelFor(options.seeds, run_seed);
    } else {
        for (std::size_t i = 0; i < options.seeds; ++i)
            run_seed(i);
    }
    report.programsRun = options.seeds;
    report.configsChecked = options.seeds *
                            options.sweep.sweptArchs().size() *
                            options.sweep.sweptKinds().size() *
                            options.sweep.sweptObjectives().size();

    for (std::size_t i = 0; i < options.seeds; ++i) {
        if (!found[i].has_value())
            continue;
        const std::uint64_t seed = options.firstSeed + i;
        Repro repro{programForSeed(seed),
                    walkForSeed(seed, options.walkInstrs)};
        auto still_fails = [&](const Repro &candidate) {
            Program copy = candidate.program;
            return check(std::move(copy), candidate.walk).has_value();
        };
        repro = shrinkRepro(std::move(repro), still_fails);

        Program copy = repro.program;
        std::optional<Divergence> final_divergence =
            check(std::move(copy), repro.walk);
        report.divergences.push_back(final_divergence.has_value()
                                         ? std::move(*final_divergence)
                                         : std::move(*found[i]));

        std::string path;
        if (!options.corpusDir.empty()) {
            path = options.corpusDir + "/shrunk-seed-" +
                   std::to_string(seed) + ".balign";
            saveRepro(repro, path);
        }
        report.reproPaths.push_back(path);
    }
    return report;
}

}  // namespace balign
