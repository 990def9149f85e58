/**
 * @file
 * balign — command line driver for the branch alignment library.
 *
 * Subcommands:
 *
 *   balign generate <suite-name> [-o FILE] [--instrs N]
 *       Generate a suite program model (unprofiled CFG).
 *
 *   balign profile <FILE> [-o FILE] [--instrs N] [--seed S]
 *       Walk the program and record edge weights into the CFG.
 *
 *   balign stats <FILE> [--instrs N] [--seed S]
 *       Print Table-2 style attributes for the program.
 *
 *   balign align <FILE> --arch ARCH --algo ALGO [--group N]
 *                [--objective OBJ]
 *       Report the layout an aligner would produce: per-procedure block
 *       orders and transformation counts.
 *
 *   balign evaluate <FILE> --arch ARCH [--instrs N] [--seed S]
 *                   [--objective OBJ]
 *       Evaluate Original/Greedy/Cost/Try15/ExtTsp on one architecture,
 *       all guided by the selected objective.
 *
 *   balign unroll <FILE> [-o FILE] [--factor K] [--min-weight W]
 *       Unroll hot single-block loops by duplication.
 *
 *   balign degrade <FILE> --kind K [-n N] [--param X] [--degrade-seed S]
 *                  [-o FILE] [--instrs N]
 *       Apply one deterministic profile degradation (sample, stale,
 *       perturb, merge, drift) to the program's recorded edge weights and
 *       emit the degraded program. Unprofiled inputs are profiled first;
 *       repro files reuse their embedded walk parameters. The CFG
 *       structure is never modified.
 *
 *   balign dot <FILE> [--proc N]
 *       Emit a Graphviz rendering of one procedure.
 *
 *   balign fuzz [--seeds N] [--instrs N] [--seed S] [-o DIR]
 *       Differentially fuzz the evaluation pipeline against the naive
 *       oracle across all aligners and architectures; shrunk repros for
 *       any divergence are written to DIR (default tests/corpus next to
 *       the current directory is NOT assumed — divergences print and
 *       fail the run either way).
 *
 *   balign repro <FILE> [--instrs N] [--seed S]
 *       Replay one repro (or any serialized program) through the
 *       differential oracle; prints the divergence or "no divergence".
 *
 *   balign estimate <FILE>... [--json] [-o FILE]
 *   balign estimate --suite [--json]
 *       Synthesize a static profile (estimate/estimate.h) for each
 *       program from its CFG alone — no trace — and print the
 *       estimation report: per-heuristic hit counts, per-procedure
 *       propagation summaries (irreducible fallbacks, stranded flow) and
 *       per-branch provenance (which heuristics voted, the combined
 *       probability). --json emits one machine-readable report array
 *       (schema_version included). With a single input, -o FILE writes
 *       the estimated program (provenance tag included) for further
 *       subcommands.
 *
 *   balign lint <FILE>... [--json] [--instrs N] [--seed S]
 *   balign lint --suite [--json] [--instrs N] [--seed S]
 *       Statically verify programs without replaying traces: CFG
 *       well-formedness, profile flow conservation, layout legality for
 *       every aligner x architecture pair, and cost-model monotonicity.
 *       Programs are profiled first (the prof.* rules read recorded edge
 *       weights); repro files reuse their embedded walk parameters.
 *       --suite lints all 24 benchmark models instead of files. --json
 *       emits one machine-readable report array on stdout.
 *
 *   balign verify <FILE>... [--json] [-o DIR] [--instrs N] [--seed S]
 *   balign verify --suite [--json] [-o DIR] [--instrs N] [--seed S]
 *       Translation validation: align each program under every
 *       (objective, architecture, aligner) combination the experiments
 *       run and statically prove every layout semantically equivalent to
 *       its program, emitting one machine-checkable certificate per
 *       layout. -o DIR writes one certificate-bearing JSON report per
 *       program into DIR.
 *
 *   balign emit <FILE> -o FILE.o [--encoding fixed|variable]
 *               [--algo ALGO] [--arch ARCH] [--objective OBJ] [--json]
 *       Align the program (identity layout unless --algo is given), relax
 *       every branch to its final short/near form (emit/relax.h), prove
 *       the relaxed byte layout against the verifier's emission
 *       obligations, and write a relocatable ELF64 object whose .text is
 *       the encoded layout. --json prints a machine-readable summary
 *       (text bytes, short/near branch counts, relaxation sweeps, and a
 *       per-procedure `procs` size array shared with check-obj).
 *
 *   balign check-obj <FILE> <FILE.o> [--json] [--encoding E]
 *                    [--algo ALGO] [--arch ARCH] [--objective OBJ]
 *   balign check-obj --suite [--json] [-o DIR] [--encoding E]
 *                    [--algo ALGO] [--instrs N] [--seed S]
 *       Binary-level translation validation (disasm/checkobj.h): rebuild
 *       the layout `emit` captured (same defaults), decode the object
 *       with the independent disassembler and discharge the byte-level
 *       obligation family — decode totality, branch targets, relocation
 *       correctness, CFG isomorphism, size accounting. The encoding is
 *       inferred from the object's e_machine unless --encoding forces
 *       it. Advisory obj.* lint findings (unreachable decoded blocks,
 *       branches stuck in near form) print after the obligations. --json
 *       emits one certificate per object (schema_version, per-obligation
 *       tallies, the shared `procs` size array); --suite validates
 *       in-memory objects for all 24 benchmark programs and -o DIR
 *       writes one certificate file per program.
 *
 *   Exit-code contract (lint, verify, emit and check-obj): 0 = clean,
 *   1 = findings (lint errors / failed proof obligations / unconverged
 *   relaxation / undischarged byte-level obligations), 2 = usage or IO
 *   error. Every subcommand exits 2 on an argument it cannot parse (an
 *   unknown option, a missing option value, an unknown --arch, --algo or
 *   --objective); the other subcommands exit 1 on any other error.
 *
 * Architectures: fallthrough btfnt likely pht gshare btb-small btb-large.
 * Algorithms: greedy cost try15 exttsp.
 * Objectives (--objective): table-cost (paper Table 1, the default) and
 * exttsp (distance-aware, architecture-independent). The objective guides
 * the Cost/Try15 decision pricing, materialization, and the greedy
 * fallback splice; fuzz/repro sweep both objectives unless one is forced.
 */

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "cfg/dot.h"
#include "cfg/serialize.h"
#include "check/differ.h"
#include "check/fuzz.h"
#include "core/align_program.h"
#include "core/unroll.h"
#include "disasm/checkobj.h"
#include "emit/elf.h"
#include "lint/rules.h"
#include "estimate/estimate.h"
#include "layout/materialize.h"
#include "lint/lint.h"
#include "profile/degrade.h"
#include "sim/runner.h"
#include "verify/driver.h"
#include "support/log.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "trace/profiler.h"
#include "trace/walker.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

/// An argument the CLI cannot parse: reported like fatal(), but with the
/// usage exit status 2 that every subcommand shares.
[[noreturn]] __attribute__((format(printf, 1, 2))) void
usageError(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::fputs("usage error: ", stderr);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
    va_end(ap);
    std::exit(2);
}

struct Args
{
    std::vector<std::string> positional;
    std::string output;
    std::string arch = "btfnt";
    std::string algo = "try15";
    bool algoSet = false;
    std::string objective = "table-cost";
    bool objectiveSet = false;
    std::string encoding = "variable";
    bool encodingSet = false;
    std::uint64_t instrs = 2'000'000;
    bool instrsSet = false;
    std::uint64_t seed = 1;
    std::uint64_t seeds = 100;
    unsigned factor = 4;
    Weight minWeight = 1000;
    std::size_t groupSize = 15;
    ProcId procId = 0;
    bool suite = false;
    bool json = false;
    std::string degradeKind;
    std::uint32_t degradeN = 8;
    double degradeParam = 0.25;
    std::uint64_t degradeSeed = 1;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "-o" || arg == "--output")
            args.output = next();
        else if (arg == "--arch")
            args.arch = next();
        else if (arg == "--algo") {
            args.algo = next();
            args.algoSet = true;
        }
        else if (arg == "--encoding") {
            args.encoding = next();
            args.encodingSet = true;
        }
        else if (arg == "--objective") {
            args.objective = next();
            args.objectiveSet = true;
        }
        else if (arg == "--instrs") {
            args.instrs = std::strtoull(next().c_str(), nullptr, 10);
            args.instrsSet = true;
        } else if (arg == "--seed")
            args.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--seeds")
            args.seeds = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--factor")
            args.factor =
                static_cast<unsigned>(std::strtoul(next().c_str(), nullptr, 10));
        else if (arg == "--min-weight")
            args.minWeight = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--group")
            args.groupSize = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--proc")
            args.procId =
                static_cast<ProcId>(std::strtoul(next().c_str(), nullptr, 10));
        else if (arg == "--kind")
            args.degradeKind = next();
        else if (arg == "-n")
            args.degradeN =
                static_cast<std::uint32_t>(std::strtoul(next().c_str(),
                                                        nullptr, 10));
        else if (arg == "--param")
            args.degradeParam = std::strtod(next().c_str(), nullptr);
        else if (arg == "--degrade-seed")
            args.degradeSeed = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--suite")
            args.suite = true;
        else if (arg == "--json")
            args.json = true;
        else if (!arg.empty() && arg[0] == '-')
            usageError("unknown option '%s'", arg.c_str());
        else
            args.positional.push_back(arg);
    }
    return args;
}

Arch
parseArch(const std::string &name)
{
    if (name == "fallthrough")
        return Arch::Fallthrough;
    if (name == "btfnt")
        return Arch::BtFnt;
    if (name == "likely")
        return Arch::Likely;
    if (name == "pht")
        return Arch::PhtDirect;
    if (name == "gshare")
        return Arch::PhtCorrelated;
    if (name == "btb-small")
        return Arch::BtbSmall;
    if (name == "btb-large" || name == "btb")
        return Arch::BtbLarge;
    usageError("unknown architecture '%s'", name.c_str());
}

AlignerKind
parseAlgo(const std::string &name)
{
    if (name == "greedy")
        return AlignerKind::Greedy;
    if (name == "cost")
        return AlignerKind::Cost;
    if (name == "try15" || name == "tryn")
        return AlignerKind::Try15;
    if (name == "exttsp" || name == "ext-tsp")
        return AlignerKind::ExtTsp;
    if (name == "original")
        return AlignerKind::Original;
    usageError("unknown algorithm '%s'", name.c_str());
}

ObjectiveKind
parseObjective(const std::string &name)
{
    const std::optional<ObjectiveKind> kind = parseObjectiveKind(name);
    if (!kind.has_value())
        usageError("unknown objective '%s'", name.c_str());
    return *kind;
}

Program
loadOrDie(const std::string &path)
{
    ParseResult parsed = loadProgram(path);
    if (!parsed.ok()) {
        fatal("%s:%zu: %s", path.c_str(), parsed.errorLine,
              parsed.error.c_str());
    }
    return std::move(*parsed.program);
}

void
emit(const Program &program, const std::string &output)
{
    if (output.empty())
        writeProgram(program, std::cout);
    else
        saveProgram(program, output);
}

int
cmdGenerate(const Args &args)
{
    if (args.positional.empty())
        fatal("generate: need a suite program name");
    ProgramSpec spec = suiteSpec(args.positional[0]);
    spec.traceInstrs = args.instrs;
    emit(generateProgram(spec), args.output);
    return 0;
}

int
cmdProfile(const Args &args)
{
    if (args.positional.empty())
        fatal("profile: need an input file");
    Program program = loadOrDie(args.positional[0]);
    program.clearWeights();
    Profiler profiler(program);
    WalkOptions options;
    options.seed = args.seed;
    options.instrBudget = args.instrs;
    walk(program, options, profiler);
    emit(program, args.output);
    return 0;
}

int
cmdStats(const Args &args)
{
    if (args.positional.empty())
        fatal("stats: need an input file");
    Program program = loadOrDie(args.positional[0]);
    program.clearWeights();
    Profiler profiler(program);
    WalkOptions options;
    options.seed = args.seed;
    options.instrBudget = args.instrs;
    walk(program, options, profiler);
    const ProgramStats s = profiler.stats();

    std::printf("program: %s\n", program.name().c_str());
    std::printf("instructions traced: %s\n",
                withCommas(s.instrsTraced).c_str());
    std::printf("breaks: %.1f%% of instructions\n", s.pctBreaks());
    std::printf("conditional sites: %zu static; Q-50/90/99/100 = "
                "%zu/%zu/%zu/%zu\n",
                s.staticCondSites, s.q50, s.q90, s.q99, s.q100);
    std::printf("taken: %.1f%% of executed conditionals\n", s.pctTaken());
    std::printf("break mix: %.1f%% cond, %.1f%% indirect, %.1f%% uncond, "
                "%.1f%% call, %.1f%% return\n",
                s.pctCondOfBreaks(), s.pctIndirectOfBreaks(),
                s.pctUncondOfBreaks(), s.pctCallOfBreaks(),
                s.pctReturnOfBreaks());
    return 0;
}

int
cmdAlign(const Args &args)
{
    if (args.positional.empty())
        fatal("align: need an input file");
    const Program program = loadOrDie(args.positional[0]);
    const Arch arch = parseArch(args.arch);
    const AlignerKind kind = parseAlgo(args.algo);
    const CostModel model(arch);
    AlignOptions options;
    options.groupSize = args.groupSize;
    options.objective = parseObjective(args.objective);
    const ProgramLayout layout =
        alignProgram(program, kind, &model, options);

    std::printf("# %s alignment for %s (objective %s)\n",
                alignerKindName(kind), archName(arch),
                objectiveKindName(options.objective));
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        const ProcLayout &pl = layout.procs[p];
        std::printf("proc %u %s: +%u jumps, -%u jumps, %u inverted\n", p,
                    program.proc(p).name().c_str(), pl.jumpsInserted,
                    pl.jumpsRemoved, pl.sensesInverted);
        std::printf("  order:");
        for (BlockId id : pl.order)
            std::printf(" %u", id);
        std::printf("\n");
    }
    return 0;
}

int
cmdEvaluate(const Args &args)
{
    if (args.positional.empty())
        fatal("evaluate: need an input file");
    Program program = loadOrDie(args.positional[0]);
    const Arch arch = parseArch(args.arch);

    WalkOptions walk_options;
    walk_options.seed = args.seed;
    walk_options.instrBudget = args.instrs;
    const PreparedProgram prepared =
        prepareProgram(std::move(program), walk_options);

    const ObjectiveKind objective = parseObjective(args.objective);
    const std::vector<ExperimentConfig> configs = {
        {arch, AlignerKind::Original, objective},
        {arch, AlignerKind::Greedy, objective},
        {arch, AlignerKind::Cost, objective},
        {arch, AlignerKind::Try15, objective},
        {arch, AlignerKind::ExtTsp, objective},
    };
    // Alignments and per-configuration replays run on the thread pool
    // (BALIGN_THREADS; results are identical for any thread count).
    ThreadPool pool(defaultThreads());
    PhaseTimes times;
    const ExperimentRun run =
        runConfigs(prepared, configs, {}, RunContext{&pool, &times});

    Table table({"layout", "rel CPI", "BEP", "fall-through %",
                 "mispredicts", "misfetches"});
    for (const auto &cell : run.cells) {
        table.row()
            .cell(alignerKindName(cell.config.kind))
            .cell(cell.relCpi, 3)
            .cell(cell.eval.bep(), 0)
            .cell(cell.eval.pctFallThrough(), 1)
            .cell(cell.eval.mispredicts, true)
            .cell(cell.eval.misfetches, true);
    }
    std::printf("%s on %s (objective %s), %s instructions\n\n",
                prepared.program.name().c_str(), archName(arch),
                objectiveKindName(objective),
                withCommas(run.origInstrs).c_str());
    table.print(std::cout);
    inform("phase timing (threads=%u): %s", pool.threads(),
           times.json().c_str());
    return 0;
}

int
cmdUnroll(const Args &args)
{
    if (args.positional.empty())
        fatal("unroll: need an input file");
    Program program = loadOrDie(args.positional[0]);
    UnrollOptions options;
    options.factor = args.factor;
    options.minWeight = args.minWeight;
    const unsigned loops = unrollSelfLoops(program, options);
    inform("unrolled %u loops (factor %u)", loops, args.factor);
    emit(program, args.output);
    return 0;
}

int
cmdDegrade(const Args &args)
{
    if (args.positional.empty())
        fatal("degrade: need an input file");
    if (args.degradeKind.empty())
        fatal("degrade: need --kind "
              "(none|sample|stale|perturb|merge|drift)");
    const std::optional<DegradeKind> kind =
        parseDegradeKind(args.degradeKind);
    if (!kind.has_value())
        fatal("degrade: unknown kind '%s'", args.degradeKind.c_str());

    std::optional<Repro> repro = loadRepro(args.positional[0]);
    if (!repro.has_value())
        fatal("degrade: cannot load %s", args.positional[0].c_str());
    Program program = std::move(repro->program);
    WalkOptions walk_options = repro->walk;
    if (args.instrsSet)
        walk_options.instrBudget = args.instrs;

    auto total_weight = [](const Program &p) {
        Weight total = 0;
        for (ProcId id = 0; id < p.numProcs(); ++id)
            total += p.proc(id).totalEdgeWeight();
        return total;
    };

    // The transforms degrade a recorded profile; bare CFGs (e.g. straight
    // from `balign generate`) are profiled first with the walk parameters
    // above so the subcommand composes without a separate `profile` step.
    if (total_weight(program) == 0) {
        Profiler profiler(program);
        walk(program, walk_options, profiler);
    }

    DegradeSpec spec;
    spec.kind = *kind;
    spec.n = args.degradeN;
    spec.param = args.degradeParam;
    spec.seed = args.degradeSeed;

    const Weight before = total_weight(program);
    degradeProfile(program, walk_options, spec);
    inform("degrade %s: total edge weight %s -> %s",
           degradeSpecLabel(spec).c_str(), withCommas(before).c_str(),
           withCommas(total_weight(program)).c_str());
    emit(program, args.output);
    return 0;
}

int
cmdDot(const Args &args)
{
    if (args.positional.empty())
        fatal("dot: need an input file");
    const Program program = loadOrDie(args.positional[0]);
    if (args.procId >= program.numProcs())
        fatal("procedure %u out of range", args.procId);
    writeDot(program.proc(args.procId), std::cout);
    return 0;
}

int
cmdFuzz(const Args &args)
{
    FuzzOptions options;
    options.seeds = args.seeds;
    options.firstSeed = args.seed;
    options.walkInstrs = args.instrsSet ? args.instrs : 20'000;
    options.corpusDir = args.output;
    if (args.objectiveSet)
        options.diff.objectives = {parseObjective(args.objective)};
    ThreadPool pool(defaultThreads());
    options.pool = &pool;

    const FuzzReport report = runFuzz(options);
    std::printf("fuzz: %llu programs, %llu configurations checked, "
                "%zu divergence(s)\n",
                static_cast<unsigned long long>(report.programsRun),
                static_cast<unsigned long long>(report.configsChecked),
                report.divergences.size());
    for (std::size_t i = 0; i < report.divergences.size(); ++i) {
        std::printf("\n%s\n",
                    formatDivergence(report.divergences[i]).c_str());
        if (!report.reproPaths[i].empty())
            std::printf("repro written to %s\n",
                        report.reproPaths[i].c_str());
    }
    return report.divergences.empty() ? 0 : 1;
}

int
cmdRepro(const Args &args)
{
    if (args.positional.empty())
        fatal("repro: need a repro file");
    std::optional<Repro> repro = loadRepro(args.positional[0]);
    if (!repro.has_value())
        fatal("repro: cannot load %s", args.positional[0].c_str());
    if (args.instrsSet)
        repro->walk.instrBudget = args.instrs;

    DiffOptions options;
    options.maxDivergences = 0;  // report every diverging configuration
    // Replay the fuzzer's full sweep: all five aligners, both objectives
    // (or just the forced one).
    options.kinds = allAlignerKindsExtended();
    options.objectives = args.objectiveSet
                             ? std::vector<ObjectiveKind>{parseObjective(
                                   args.objective)}
                             : allObjectiveKinds();
    const std::vector<Divergence> divergences =
        diffProgram(std::move(repro->program), repro->walk, options);
    if (divergences.empty()) {
        std::printf("no divergence: oracle and production agree on "
                    "%s (walk seed %llu, budget %llu)\n",
                    args.positional[0].c_str(),
                    static_cast<unsigned long long>(repro->walk.seed),
                    static_cast<unsigned long long>(
                        repro->walk.instrBudget));
        return 0;
    }
    for (const Divergence &divergence : divergences)
        std::printf("%s\n\n", formatDivergence(divergence).c_str());
    std::printf("%zu diverging configuration(s)\n", divergences.size());
    return 1;
}

/**
 * Collects (display name, profiled program) pairs for the static
 * subcommands (lint / verify / estimate): either the 24-program
 * benchmark suite or the given files, profiled with their embedded walk
 * parameters (estimate passes profile=false — it synthesizes weights
 * from the CFG alone, so the walk would be wasted work). Returns 0, or 2
 * for a usage or IO error (printed to stderr) — the static subcommands
 * reserve exit 1 for findings.
 */
int
collectStaticInputs(const Args &args, const char *command,
                    std::vector<std::pair<std::string, Program>> &inputs,
                    bool profile = true)
{
    auto profile_with = [](Program &program, std::uint64_t seed,
                           std::uint64_t budget) {
        program.clearWeights();
        Profiler profiler(program);
        WalkOptions walk_options;
        walk_options.seed = seed;
        walk_options.instrBudget = budget;
        walk(program, walk_options, profiler);
    };

    if (args.suite) {
        for (const ProgramSpec &spec : benchmarkSuite()) {
            Program program = generateProgram(spec);
            if (profile)
                profile_with(program, args.seed, args.instrs);
            inputs.emplace_back(program.name(), std::move(program));
        }
        return 0;
    }
    if (args.positional.empty()) {
        std::fprintf(stderr, "%s: need input files or --suite\n", command);
        return 2;
    }
    for (const std::string &path : args.positional) {
        std::optional<Repro> repro = loadRepro(path);
        if (!repro.has_value()) {
            std::fprintf(stderr, "%s: cannot load %s\n", command,
                         path.c_str());
            return 2;
        }
        if (args.instrsSet)
            repro->walk.instrBudget = args.instrs;
        // Inputs carrying a degraded or estimated profile (the serialized
        // `profile <tag>` line) are linted as-is: re-walking would clobber
        // the very weights under test and re-tag them Measured.
        if (profile &&
            repro->program.profileProvenance() == ProfileProvenance::Measured)
            profile_with(repro->program, repro->walk.seed,
                         repro->walk.instrBudget);
        inputs.emplace_back(path, std::move(repro->program));
    }
    return 0;
}

int
cmdEstimate(const Args &args)
{
    std::vector<std::pair<std::string, Program>> inputs;
    if (const int status = collectStaticInputs(args, "estimate", inputs,
                                               /*profile=*/false))
        return status;
    if (!args.output.empty() && inputs.size() != 1) {
        std::fprintf(stderr,
                     "estimate: -o needs exactly one input program\n");
        return 2;
    }

    bool first = true;
    if (args.json)
        std::cout << "[\n";
    for (auto &[name, program] : inputs) {
        const EstimateReport report = estimateProfile(program);
        if (args.json) {
            if (!first)
                std::cout << ",\n";
            writeEstimateReportJson(report, program, std::cout);
        } else {
            std::cout << formatEstimateReport(report, program);
        }
        first = false;
    }
    if (args.json)
        std::cout << "\n]\n";
    if (!args.output.empty())
        saveProgram(inputs.front().second, args.output);
    return 0;
}

int
cmdLint(const Args &args)
{
    std::vector<std::pair<std::string, Program>> inputs;
    if (const int status = collectStaticInputs(args, "lint", inputs))
        return status;

    LintRunOptions run;
    run.align.objective = parseObjective(args.objective);

    std::size_t total_errors = 0;
    std::size_t total_warnings = 0;
    bool first = true;
    if (args.json)
        std::cout << "[\n";
    for (const auto &[name, program] : inputs) {
        const LintReport report = lintProgram(program, run);
        total_errors += report.errors();
        total_warnings += report.warnings();
        if (args.json) {
            if (!first)
                std::cout << ",\n";
            writeLintReportJson(report, name, std::cout);
        } else {
            std::cout << formatLintReport(report, name);
        }
        first = false;
    }
    if (args.json)
        std::cout << "\n]\n";
    else
        std::printf("lint: %zu program(s): %zu error(s), %zu warning(s)\n",
                    inputs.size(), total_errors, total_warnings);
    return total_errors == 0 ? 0 : 1;
}

int
cmdVerify(const Args &args)
{
    std::vector<std::pair<std::string, Program>> inputs;
    if (const int status = collectStaticInputs(args, "verify", inputs))
        return status;

    VerifyRunOptions run;
    run.objectives = args.objectiveSet
                         ? std::vector<ObjectiveKind>{parseObjective(
                               args.objective)}
                         : allObjectiveKinds();

    std::size_t total_failed = 0;
    std::size_t total_layouts = 0;
    bool first = true;
    if (args.json)
        std::cout << "[\n";
    for (const auto &[name, program] : inputs) {
        const VerifyRunReport report = verifyProgramLayouts(program, run);
        total_failed += report.failedLayouts;
        total_layouts += report.layoutsVerified;
        if (args.json) {
            if (!first)
                std::cout << ",\n";
            writeVerifyReportJson(report, name, std::cout);
        } else {
            std::cout << formatVerifyReport(report, name);
        }
        first = false;
        if (!args.output.empty()) {
            // One certificate-bearing report file per program.
            std::string file = program.name();
            for (char &c : file) {
                if (c == '/' || c == '\\')
                    c = '_';
            }
            const std::string path =
                args.output + "/" + file + ".verify.json";
            std::ofstream out(path);
            if (!out) {
                std::fprintf(stderr, "verify: cannot write %s\n",
                             path.c_str());
                return 2;
            }
            writeVerifyReportJson(report, name, out);
            out << "\n";
        }
    }
    if (args.json)
        std::cout << "\n]\n";
    else
        std::printf("verify: %zu program(s): %zu of %zu layout(s) failed\n",
                    inputs.size(), total_failed, total_layouts);
    return total_failed == 0 ? 0 : 1;
}

/**
 * Rebuilds the layout `emit` captures in an object — the identity layout
 * unless --algo is given, priced under --arch's cost model with the
 * BT/FNT chain-order override. Shared by emit and check-obj so the
 * validator reconstructs exactly what the emitter wrote.
 */
ProgramLayout
emitLayout(const Args &args, const Program &program, AlignerKind &kind)
{
    // The object captures ONE layout; the identity layout is the neutral
    // default so `balign emit prog.balign -o prog.o` round-trips the
    // program as written, and --algo selects an optimized placement.
    kind = args.algoSet ? parseAlgo(args.algo) : AlignerKind::Original;
    const CostModel model(parseArch(args.arch));
    AlignOptions options;
    options.objective = parseObjective(args.objective);
    if (model.arch() == Arch::BtFnt)
        options.chainOrder = ChainOrderPolicy::BtFntPrecedence;
    return alignProgram(program, kind, &model, options);
}

/// One row of the per-procedure size array emit --json and check-obj
/// --json share (the schema satellite: identical key names both sides).
struct ProcSizeRow
{
    std::string name;
    std::uint64_t textBytes = 0;
    std::uint64_t instrs = 0;
    std::uint64_t shortBranches = 0;
    std::uint64_t nearBranches = 0;
};

/// Writes `"procs":[{"name":...,"text_bytes":...,"instrs":...,
/// "short_branches":...,"near_branches":...},...]` (no surrounding
/// braces; the caller owns the enclosing object).
void
writeProcSizesJson(const std::vector<ProcSizeRow> &rows, std::ostream &os)
{
    os << "\"procs\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ProcSizeRow &row = rows[i];
        if (i > 0)
            os << ',';
        os << "{\"name\":\"" << row.name
           << "\",\"text_bytes\":" << row.textBytes
           << ",\"instrs\":" << row.instrs
           << ",\"short_branches\":" << row.shortBranches
           << ",\"near_branches\":" << row.nearBranches << '}';
    }
    os << ']';
}

/// Emit-side rows: byte accounting straight from the relaxation fixpoint.
std::vector<ProcSizeRow>
procSizesFromRelaxed(const Program &program, const RelaxedLayout &relaxed)
{
    std::vector<ProcSizeRow> rows;
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        const RelaxedProc &proc = relaxed.procs[p];
        ProcSizeRow row;
        row.name = program.proc(p).name();
        row.textBytes = proc.byteSize;
        row.instrs = proc.numInstrs;
        for (std::uint32_t i = 0; i < proc.numInstrs; ++i) {
            const BranchForm form =
                relaxed.instrs[proc.firstInstr + i].form;
            if (form == BranchForm::Short)
                ++row.shortBranches;
            else if (form == BranchForm::Near)
                ++row.nearBranches;
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

int
cmdEmit(const Args &args)
{
    std::vector<std::pair<std::string, Program>> inputs;
    if (const int status = collectStaticInputs(args, "emit", inputs))
        return status;
    if (inputs.size() != 1) {
        std::fprintf(stderr, "emit: need exactly one input program\n");
        return 2;
    }
    if (args.output.empty()) {
        std::fprintf(stderr, "emit: need -o FILE for the object\n");
        return 2;
    }
    const std::optional<EncodingModelKind> encoding =
        parseEncodingModelKind(args.encoding);
    if (!encoding.has_value()) {
        std::fprintf(stderr, "emit: unknown encoding '%s'\n",
                     args.encoding.c_str());
        return 2;
    }
    const Program &program = inputs.front().second;

    AlignerKind kind = AlignerKind::Original;
    const ProgramLayout layout = emitLayout(args, program, kind);

    const EncodingModel &em = encodingModel(*encoding);
    const RelaxedLayout relaxed = relaxLayout(program, layout, em);
    if (!relaxed.converged) {
        std::fprintf(stderr, "emit: relaxation did not converge: %s\n",
                     relaxed.diagnostic.c_str());
        return 1;
    }
    const VerifyResult proof =
        verifyRelaxedLayout(program, layout, relaxed, em);
    if (!proof.verified()) {
        for (const VerifyFailure &failure : proof.failures)
            std::fprintf(stderr, "emit: %s\n",
                         formatVerifyFailure(failure).c_str());
        return 1;
    }
    if (!writeElfObject(args.output, program, relaxed, em))
        return 2;

    if (args.json) {
        std::cout << "{\"schema_version\":1,\"program\":\""
                  << program.name()
                  << "\",\"encoding\":\"" << em.name()
                  << "\",\"algo\":\"" << alignerKindName(kind)
                  << "\",\"arch\":\"" << archName(parseArch(args.arch))
                  << "\",\"objective\":\""
                  << objectiveKindName(parseObjective(args.objective))
                  << "\",\"object\":\"" << args.output
                  << "\",\"text_bytes\":" << relaxed.totalBytes
                  << ",\"short_branches\":" << relaxed.shortBranches
                  << ",\"near_branches\":" << relaxed.nearBranches
                  << ",\"relax_sweeps\":" << relaxed.iterations
                  << ",\"checks\":" << proof.totalChecks() << ',';
        writeProcSizesJson(procSizesFromRelaxed(program, relaxed),
                           std::cout);
        std::cout << "}\n";
    } else {
        std::printf("emit: %s: %llu text byte(s) (%llu short, %llu near "
                    "branch(es), %u sweep(s)) -> %s\n",
                    program.name().c_str(),
                    static_cast<unsigned long long>(relaxed.totalBytes),
                    static_cast<unsigned long long>(relaxed.shortBranches),
                    static_cast<unsigned long long>(relaxed.nearBranches),
                    relaxed.iterations, args.output.c_str());
    }
    return 0;
}

/**
 * Validates one in-memory or on-disk object: relaxes the reconstructed
 * layout under @p encoding, runs the byte-level checker, prints either
 * the text rendering (failures + advisory obj.* lint findings) or one
 * certificate JSON, and optionally writes the certificate to a file.
 * Returns the number of obligation failures.
 */
std::size_t
checkOneObject(const Program &program, const RelaxedLayout &relaxed,
               const std::vector<std::uint8_t> &objectBytes,
               const std::string &objectLabel, AlignerKind kind,
               const Args &args, bool jsonFirst, std::ostream *jsonOut,
               const std::string &certPath)
{
    ObjCertificate certificate;
    certificate.program = program.name();
    certificate.arch = args.arch;
    certificate.aligner = alignerKindName(kind);
    certificate.objective = args.objective;
    certificate.encoding = encodingModelKindName(relaxed.model);
    certificate.object = objectLabel;
    certificate.result = checkObject(program, relaxed, objectBytes);
    const ObjCheckResult &result = certificate.result;

    if (jsonOut != nullptr) {
        if (!jsonFirst)
            *jsonOut << ",\n";
        writeObjCertificateJson(certificate, *jsonOut);
    } else {
        for (const ObjFailure &failure : result.failures)
            std::printf("%s\n", formatObjFailure(failure).c_str());
        std::vector<Diagnostic> advisory;
        lintObject(program, result.disasm, certificate.encoding, advisory);
        for (const Diagnostic &diagnostic : advisory)
            std::printf("%s\n", formatDiagnostic(diagnostic).c_str());
        std::printf("check-obj: %s (%s, %s): %zu check(s), %zu "
                    "failure(s)%s\n",
                    program.name().c_str(), certificate.encoding.c_str(),
                    objectLabel.empty() ? "in-memory"
                                        : objectLabel.c_str(),
                    result.totalChecks(), result.totalFailures(),
                    result.verified() ? "; all obligations discharged"
                                      : "");
    }
    if (!certPath.empty()) {
        std::ofstream out(certPath);
        if (!out) {
            std::fprintf(stderr, "check-obj: cannot write %s\n",
                         certPath.c_str());
        } else {
            writeObjCertificateJson(certificate, out);
            out << "\n";
        }
    }
    return result.totalFailures();
}

int
cmdCheckObj(const Args &args)
{
    const std::optional<EncodingModelKind> forced =
        args.encodingSet ? parseEncodingModelKind(args.encoding)
                         : std::nullopt;
    if (args.encodingSet && !forced.has_value()) {
        std::fprintf(stderr, "check-obj: unknown encoding '%s'\n",
                     args.encoding.c_str());
        return 2;
    }

    if (args.suite) {
        // Suite mode: emit in-memory objects for all 24 programs under
        // the (forced or default) encoding and validate each one.
        std::vector<std::pair<std::string, Program>> inputs;
        if (const int status =
                collectStaticInputs(args, "check-obj", inputs))
            return status;
        const EncodingModelKind encoding =
            forced.value_or(*parseEncodingModelKind(args.encoding));
        const EncodingModel &em = encodingModel(encoding);

        std::size_t failures = 0;
        bool first = true;
        if (args.json)
            std::cout << "[\n";
        for (const auto &[name, program] : inputs) {
            AlignerKind kind = AlignerKind::Original;
            const ProgramLayout layout = emitLayout(args, program, kind);
            const RelaxedLayout relaxed = relaxLayout(program, layout, em);
            if (!relaxed.converged) {
                std::fprintf(stderr,
                             "check-obj: %s: relaxation did not "
                             "converge: %s\n",
                             name.c_str(), relaxed.diagnostic.c_str());
                ++failures;
                continue;
            }
            const std::vector<std::uint8_t> object =
                buildElfObject(program, relaxed, em);
            std::string certPath;
            if (!args.output.empty()) {
                std::string file = program.name();
                for (char &c : file) {
                    if (c == '/' || c == '\\')
                        c = '_';
                }
                certPath = args.output + "/" + file + "." +
                           encodingModelKindName(encoding) +
                           ".checkobj.json";
            }
            failures += checkOneObject(
                program, relaxed, object, /*objectLabel=*/"", kind, args,
                first, args.json ? &std::cout : nullptr, certPath);
            first = false;
        }
        if (args.json)
            std::cout << "\n]\n";
        else
            std::printf("check-obj: %zu program(s) (%s): %zu obligation "
                        "failure(s)\n",
                        inputs.size(), encodingModelKindName(encoding),
                        failures);
        return failures == 0 ? 0 : 1;
    }

    if (args.positional.size() != 2) {
        std::fprintf(stderr,
                     "check-obj: need <program.balign> <program.o> or "
                     "--suite\n");
        return 2;
    }

    Args programOnly = args;
    programOnly.positional = {args.positional[0]};
    std::vector<std::pair<std::string, Program>> inputs;
    if (const int status =
            collectStaticInputs(programOnly, "check-obj", inputs))
        return status;
    const Program &program = inputs.front().second;

    const std::string &objectPath = args.positional[1];
    std::ifstream in(objectPath, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "check-obj: cannot read %s\n",
                     objectPath.c_str());
        return 2;
    }
    const std::vector<std::uint8_t> objectBytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());

    // The encoding comes from the object itself (e_machine) unless
    // --encoding second-guesses it; an unparseable object falls back to
    // the default so the checker can still report the parse failure as
    // a decode-totality finding.
    EncodingModelKind encoding =
        forced.value_or(*parseEncodingModelKind(args.encoding));
    if (!forced.has_value()) {
        const ParsedElf probe = parseElfObject(objectBytes);
        if (probe.ok && probe.machine == 0)
            encoding = EncodingModelKind::FixedWord;
        else if (probe.ok && probe.machine == 62)
            encoding = EncodingModelKind::Variable;
    }

    AlignerKind kind = AlignerKind::Original;
    const ProgramLayout layout = emitLayout(args, program, kind);
    const RelaxedLayout relaxed =
        relaxLayout(program, layout, encodingModel(encoding));
    if (!relaxed.converged) {
        std::fprintf(stderr,
                     "check-obj: relaxation did not converge: %s\n",
                     relaxed.diagnostic.c_str());
        return 1;
    }

    const std::size_t failures = checkOneObject(
        program, relaxed, objectBytes, objectPath, kind, args,
        /*jsonFirst=*/true, args.json ? &std::cout : nullptr,
        /*certPath=*/"");
    if (args.json)
        std::cout << "\n";
    return failures == 0 ? 0 : 1;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: balign <command> [options]\n"
        "commands:\n"
        "  generate <suite-name> [-o FILE]            create a program model\n"
        "  profile <FILE> [-o FILE] [--instrs N]      record edge profile\n"
        "  stats <FILE>                               Table-2 attributes\n"
        "  align <FILE> --arch A --algo G             show the layout\n"
        "  evaluate <FILE> --arch A                   compare aligners\n"
        "  unroll <FILE> [--factor K] [-o FILE]       duplicate hot loops\n"
        "  degrade <FILE> --kind K [-o FILE]          degrade the profile\n"
        "  dot <FILE> [--proc N]                      Graphviz output\n"
        "  fuzz [--seeds N] [--instrs N] [-o DIR]     differential fuzzing\n"
        "  repro <FILE> [--instrs N]                  replay one repro\n"
        "  estimate <FILE>...|--suite [--json]        synthesize a static\n"
        "                                             profile, no trace\n"
        "  lint <FILE>...|--suite [--json]            static verification\n"
        "  verify <FILE>...|--suite [--json] [-o DIR] prove layouts, emit\n"
        "                                             certificates\n"
        "  emit <FILE> -o FILE.o [--encoding E]       relax branch forms and\n"
        "                                             write a relocatable ELF\n"
        "  check-obj <FILE> <FILE.o> [--json]         decode an emitted object\n"
        "  check-obj --suite [--json] [-o DIR]        and prove it against the\n"
        "                                             layout (byte-level\n"
        "                                             translation validation)\n"
        "options:\n"
        "  --algo greedy|cost|try15|exttsp|original   alignment algorithm\n"
        "  --objective table-cost|exttsp|size-aware   alignment objective\n"
        "    (align/evaluate/lint price under it; fuzz/repro sweep every\n"
        "    objective unless one is forced)\n"
        "  --encoding variable|fixed                  encoding model (emit)\n"
        "  --kind none|sample|stale|perturb|merge|drift\n"
        "    profile degradation; severity: -n N (sample keeps 1/N, merge\n"
        "    adds N walks), --param X (perturb eps / drift t),\n"
        "    --degrade-seed S (transform RNG / alternate input)\n");
}

}  // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string command = argv[1];
    const Args args = parseArgs(argc, argv);
    if (command == "generate")
        return cmdGenerate(args);
    if (command == "profile")
        return cmdProfile(args);
    if (command == "stats")
        return cmdStats(args);
    if (command == "align")
        return cmdAlign(args);
    if (command == "evaluate")
        return cmdEvaluate(args);
    if (command == "unroll")
        return cmdUnroll(args);
    if (command == "degrade")
        return cmdDegrade(args);
    if (command == "dot")
        return cmdDot(args);
    if (command == "fuzz")
        return cmdFuzz(args);
    if (command == "repro")
        return cmdRepro(args);
    if (command == "estimate")
        return cmdEstimate(args);
    if (command == "lint")
        return cmdLint(args);
    if (command == "verify")
        return cmdVerify(args);
    if (command == "emit")
        return cmdEmit(args);
    if (command == "check-obj")
        return cmdCheckObj(args);
    usage();
    return 2;
}
