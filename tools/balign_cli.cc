/**
 * @file
 * balign — command line driver for the branch alignment library.
 *
 * Every subcommand is one row of kCommands: its name, a synopsis that
 * names its positional arguments and every flag it takes, its argument
 * count, whether --json frames its reports as one array, a one-line
 * description and a handler. One parser reads the command line against
 * that row, so a flag missing from the synopsis, a malformed value or a
 * wrong number of arguments is refused before any work starts, and the
 * usage text printed by `balign` alone is those same rows.
 *
 * Exit status, shared by every subcommand: 0 = clean; 1 = findings (a
 * fuzz or repro divergence, lint errors, failed proof obligations,
 * unconverged relaxation, undischarged byte-level obligations); 2 = a
 * usage or IO error.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cfg/dot.h"
#include "cfg/serialize.h"
#include "check/differ.h"
#include "check/fuzz.h"
#include "core/align_program.h"
#include "core/unroll.h"
#include "disasm/checkobj.h"
#include "emit/elf.h"
#include "estimate/estimate.h"
#include "lint/lint.h"
#include "lint/rules.h"
#include "profile/degrade.h"
#include "sim/batch_replay.h"
#include "sim/runner.h"
#include "support/json.h"
#include "support/log.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "trace/walker.h"
#include "verify/driver.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

/// Thrown once a usage or IO error is reported, so the handler's pools
/// and streams unwind before balign exits 2.
struct UsageError
{
};

[[noreturn]] __attribute__((format(printf, 1, 2))) void
usageError(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::fputs("balign: ", stderr);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
    va_end(ap);
    throw UsageError{};
}

/// Walk budget when --instrs is not given (fuzz uses its own).
constexpr std::uint64_t kDefaultInstrs = 2'000'000;

/// The parsed command line. Flags the command does not take keep these
/// defaults.
struct Options
{
    std::vector<std::string> inputs;
    bool suite = false;
    bool json = false;
    std::string output;
    Arch arch = Arch::BtFnt;
    std::string_view archText = "btfnt";  ///< as given; certificates echo it
    std::optional<AlignerKind> algo;
    std::optional<ObjectiveKind> objective;
    std::string_view objectiveText = "table-cost";
    std::optional<EncodingModelKind> encoding;
    std::optional<DegradeKind> kind;
    std::optional<std::uint64_t> instrs;
    std::uint64_t seed = 1;
    std::uint64_t seeds = 100;
    unsigned factor = 4;
    Weight minWeight = 1000;
    std::size_t groupSize = 15;
    ProcId proc = 0;
    std::uint32_t degradeN = 8;
    double degradeParam = 0.25;
    std::uint64_t degradeSeed = 1;
};

/// Parses all of @p text as a number of type T: no sign on unsigned
/// types, no trailing text, no value out of T's range, no inf or nan.
template <typename T>
bool
number(std::string_view text, T &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(out))
            return false;
    }
    return ec == std::errc() && ptr == end;
}

template <auto field>
bool
setNumber(Options &o, std::string_view v)
{
    return number(v, o.*field);
}

/// Stores the value @p parse names; false when it names none.
template <auto field, auto parse>
bool
setChoice(Options &o, std::string_view v)
{
    const auto parsed = parse(v);
    if (parsed.has_value())
        o.*field = *parsed;
    return parsed.has_value();
}

struct Flag
{
    const char *name;
    const char *alias;  ///< second spelling, or nullptr
    const char *value;  ///< what the value may be; nullptr for a switch
    /// Stores the value (empty for a switch); false if it is malformed.
    bool (*set)(Options &, std::string_view);
};

constexpr Flag kFlags[] = {
    {"-o", "--output", "PATH",
     [](Options &o, std::string_view v) {
         o.output = v;
         return true;
     }},
    {"--arch", nullptr,
     "fallthrough|btfnt|likely|pht|gshare|btb-small|btb-large",
     [](Options &o, std::string_view v) {
         o.archText = v;
         return setChoice<&Options::arch, parseArch>(o, v);
     }},
    {"--algo", nullptr, "greedy|cost|try15|exttsp|original",
     setChoice<&Options::algo, parseAlignerKind>},
    {"--objective", nullptr, "table-cost|exttsp|size-aware",
     [](Options &o, std::string_view v) {
         o.objectiveText = v;
         return setChoice<&Options::objective, parseObjectiveKind>(o, v);
     }},
    {"--encoding", nullptr, "variable|fixed",
     setChoice<&Options::encoding, parseEncodingModelKind>},
    {"--kind", nullptr, "none|sample|stale|perturb|merge|drift",
     setChoice<&Options::kind, parseDegradeKind>},
    {"--instrs", nullptr, "N",
     [](Options &o, std::string_view v) {
         return number(v, o.instrs.emplace());
     }},
    {"--seed", nullptr, "S", setNumber<&Options::seed>},
    {"--seeds", nullptr, "N", setNumber<&Options::seeds>},
    {"--factor", nullptr, "K", setNumber<&Options::factor>},
    {"--min-weight", nullptr, "W", setNumber<&Options::minWeight>},
    {"--group", nullptr, "N", setNumber<&Options::groupSize>},
    {"--proc", nullptr, "N", setNumber<&Options::proc>},
    {"-n", nullptr, "N", setNumber<&Options::degradeN>},
    {"--param", nullptr, "X", setNumber<&Options::degradeParam>},
    {"--degrade-seed", nullptr, "S", setNumber<&Options::degradeSeed>},
    {"--suite", nullptr, nullptr,
     [](Options &o, std::string_view) { return o.suite = true; }},
    {"--json", nullptr, nullptr,
     [](Options &o, std::string_view) { return o.json = true; }},
};

/// Frames a command's --json reports on stdout: one array when the
/// command's row asks for it or under --suite, else one bare object.
class JsonOut
{
  public:
    explicit JsonOut(bool array) : array_(array) {}

    /// The stream for the next report, after the separator it needs.
    std::ostream &
    next()
    {
        std::cout << (reports_++ > 0 ? ",\n" : array_ ? "[\n" : "");
        return std::cout;
    }

    /// Ends the output once at least one report was written.
    void
    close() const
    {
        if (reports_ > 0)
            std::cout << (array_ ? "\n]\n" : "\n");
    }

  private:
    bool array_;
    std::size_t reports_ = 0;
};

WalkOptions
walkOptions(const Options &opts)
{
    WalkOptions walk;
    walk.seed = opts.seed;
    walk.instrBudget = opts.instrs.value_or(kDefaultInstrs);
    return walk;
}

/// Reads a program, with the walk parameters a fuzz repro embeds (the
/// walker's defaults for any other file).
Repro
loadInput(const std::string &path)
{
    std::optional<Repro> repro = loadRepro(path);
    if (!repro.has_value())
        usageError("cannot load %s", path.c_str());
    return std::move(*repro);
}

/// A program to report on, named by its path or suite name.
using Input = std::pair<std::string, Program>;

/**
 * The programs a report covers: the 24-program suite under --suite,
 * else the files in @p paths. Each is profiled first unless
 * @p profile is false (estimate synthesizes weights from the CFG alone,
 * so the walk would be wasted work): suite programs with --instrs and
 * --seed, files with their embedded walk parameters and --instrs.
 */
std::vector<Input>
loadPrograms(const Options &opts, std::span<const std::string> paths,
             bool profile = true)
{
    std::vector<Input> inputs;
    if (opts.suite) {
        for (const ProgramSpec &spec : benchmarkSuite()) {
            Program program = generateProgram(spec);
            if (profile) {
                program.clearWeights();
                profileProgram(program, walkOptions(opts));
            }
            inputs.emplace_back(program.name(), std::move(program));
        }
        return inputs;
    }
    for (const std::string &path : paths) {
        Repro repro = loadInput(path);
        if (opts.instrs.has_value())
            repro.walk.instrBudget = *opts.instrs;
        // Inputs carrying a degraded or estimated profile (the serialized
        // `profile <tag>` line) are read as-is: re-walking would clobber
        // the very weights under test and re-tag them Measured.
        if (profile &&
            repro.program.profileProvenance() ==
                ProfileProvenance::Measured) {
            repro.program.clearWeights();
            profileProgram(repro.program, repro.walk);
        }
        inputs.emplace_back(path, std::move(repro.program));
    }
    return inputs;
}

/// Writes @p program to -o, or to stdout without it.
void
writeOutput(const Program &program, const std::string &path)
{
    if (path.empty()) {
        writeProgram(program, std::cout);
        return;
    }
    std::ofstream out(path);
    writeProgram(program, out);
    if (!out)
        usageError("cannot write %s", path.c_str());
}

/// With -o DIR, writes one JSON report for @p program to
/// DIR/<program name><suffix> (path separators in the name become '_').
template <typename WriteJson>
void
writeReportFile(const Options &opts, const Program &program,
                const std::string &suffix, WriteJson writeJson)
{
    if (opts.output.empty())
        return;
    std::string file = program.name();
    std::replace(file.begin(), file.end(), '/', '_');
    std::replace(file.begin(), file.end(), '\\', '_');
    const std::string path = opts.output + "/" + file + suffix;
    std::ofstream out(path);
    writeJson(out);
    out << "\n";
    if (!out)
        usageError("cannot write %s", path.c_str());
}

int
runGenerate(const Options &opts, JsonOut &)
{
    const std::vector<ProgramSpec> suite = benchmarkSuite();
    const auto spec =
        std::find_if(suite.begin(), suite.end(), [&](const ProgramSpec &s) {
            return s.name == opts.inputs[0];
        });
    if (spec == suite.end())
        usageError("unknown suite program '%s'", opts.inputs[0].c_str());
    ProgramSpec chosen = *spec;
    chosen.traceInstrs = opts.instrs.value_or(kDefaultInstrs);
    writeOutput(generateProgram(chosen), opts.output);
    return 0;
}

int
runProfile(const Options &opts, JsonOut &)
{
    Program program = loadInput(opts.inputs[0]).program;
    program.clearWeights();
    profileProgram(program, walkOptions(opts));
    writeOutput(program, opts.output);
    return 0;
}

int
runStats(const Options &opts, JsonOut &)
{
    Program program = loadInput(opts.inputs[0]).program;
    program.clearWeights();
    const ProgramStats s = profileProgram(program, walkOptions(opts));

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
runAlign(const Options &opts, JsonOut &)
{
    const Program program = loadInput(opts.inputs[0]).program;
    const AlignerKind kind = opts.algo.value_or(AlignerKind::Try15);
    AlignOptions options;
    options.groupSize = opts.groupSize;
    options.objective = opts.objective.value_or(ObjectiveKind::TableCost);
    const ProgramLayout layout =
        alignForArch(program, kind, opts.arch, options);

    std::printf("# %s alignment for %s (objective %s)\n",
                alignerKindName(kind), archName(opts.arch),
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
runEvaluate(const Options &opts, JsonOut &)
{
    const PreparedProgram prepared = prepareProgram(
        loadInput(opts.inputs[0]).program, walkOptions(opts));

    const ObjectiveKind objective =
        opts.objective.value_or(ObjectiveKind::TableCost);
    std::vector<ExperimentConfig> configs;
    for (const AlignerKind kind : allAlignerKindsExtended())
        configs.push_back({opts.arch, kind, objective});
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
                prepared.program.name().c_str(), archName(opts.arch),
                objectiveKindName(objective),
                withCommas(run.origInstrs).c_str());
    table.print(std::cout);
    inform("phase timing (threads=%u): %s", pool.threads(),
           times.json().c_str());
    return 0;
}

int
runUnroll(const Options &opts, JsonOut &)
{
    Program program = loadInput(opts.inputs[0]).program;
    UnrollOptions options;
    options.factor = opts.factor;
    options.minWeight = opts.minWeight;
    const unsigned loops = unrollSelfLoops(program, options);
    inform("unrolled %u loops (factor %u)", loops, opts.factor);
    writeOutput(program, opts.output);
    return 0;
}

int
runDegrade(const Options &opts, JsonOut &)
{
    if (!opts.kind.has_value())
        usageError("degrade needs --kind "
                   "(none|sample|stale|perturb|merge|drift)");
    Repro repro = loadInput(opts.inputs[0]);
    Program &program = repro.program;
    if (opts.instrs.has_value())
        repro.walk.instrBudget = *opts.instrs;

    auto total_weight = [&program] {
        Weight total = 0;
        for (ProcId id = 0; id < program.numProcs(); ++id)
            total += program.proc(id).totalEdgeWeight();
        return total;
    };

    // The transforms degrade a recorded profile; bare CFGs (e.g. straight
    // from `balign generate`) are profiled first with the walk parameters
    // above so the subcommand composes without a separate `profile` step.
    if (total_weight() == 0)
        profileProgram(program, repro.walk);

    DegradeSpec spec;
    spec.kind = *opts.kind;
    spec.n = opts.degradeN;
    spec.param = opts.degradeParam;
    spec.seed = opts.degradeSeed;

    const Weight before = total_weight();
    degradeProfile(program, repro.walk, spec);
    // The parser rejects a program whose weights total more than the
    // profile ceiling, so degrade must not write one.
    Weight total = 0;
    for (const Procedure &proc : program.procs()) {
        for (const Edge &edge : proc.edges()) {
            if (edge.weight > kMaxProfileWeight - total)
                usageError("degrade %s: the degraded edge weights total "
                           "more than the 2^60 profile ceiling",
                           degradeSpecLabel(spec).c_str());
            total += edge.weight;
        }
    }
    inform("degrade %s: total edge weight %s -> %s",
           degradeSpecLabel(spec).c_str(), withCommas(before).c_str(),
           withCommas(total).c_str());
    writeOutput(program, opts.output);
    return 0;
}

int
runDot(const Options &opts, JsonOut &)
{
    const Program program = loadInput(opts.inputs[0]).program;
    if (opts.proc >= program.numProcs())
        usageError("procedure %u out of range", opts.proc);
    writeDot(program.proc(opts.proc), std::cout);
    return 0;
}

/// The objectives fuzz, repro and verify sweep: the forced one, or all.
std::vector<ObjectiveKind>
objectives(const Options &opts)
{
    return opts.objective.has_value()
               ? std::vector<ObjectiveKind>{*opts.objective}
               : allObjectiveKinds();
}

int
runFuzz(const Options &opts, JsonOut &)
{
    FuzzOptions options;
    options.seeds = opts.seeds;
    options.firstSeed = opts.seed;
    options.walkInstrs = opts.instrs.value_or(20'000);
    options.corpusDir = opts.output;
    options.sweep.objectives = objectives(opts);
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
runRepro(const Options &opts, JsonOut &)
{
    Repro repro = loadInput(opts.inputs[0]);
    if (opts.instrs.has_value())
        repro.walk.instrBudget = *opts.instrs;

    DiffOptions options;
    options.maxDivergences = 0;  // report every diverging configuration
    // Replay the fuzzer's full sweep (under just the forced objective, if
    // one is given).
    options.sweep = fuzzSweep();
    options.sweep.objectives = objectives(opts);
    const std::vector<Divergence> divergences =
        diffProgram(std::move(repro.program), repro.walk, options);
    if (divergences.empty()) {
        std::printf("no divergence: oracle and production agree on "
                    "%s (walk seed %llu, budget %llu)\n",
                    opts.inputs[0].c_str(),
                    static_cast<unsigned long long>(repro.walk.seed),
                    static_cast<unsigned long long>(repro.walk.instrBudget));
        return 0;
    }
    for (const Divergence &divergence : divergences)
        std::printf("%s\n\n", formatDivergence(divergence).c_str());
    std::printf("%zu diverging configuration(s)\n", divergences.size());
    return 1;
}

int
runEstimate(const Options &opts, JsonOut &json)
{
    if (!opts.output.empty() && opts.inputs.size() != 1)
        usageError("estimate: -o needs exactly one input program");
    std::vector<Input> inputs =
        loadPrograms(opts, opts.inputs, /*profile=*/false);
    for (auto &[name, program] : inputs) {
        const EstimateReport report = estimateProfile(program);
        if (opts.json)
            writeEstimateReportJson(report, program, json.next());
        else
            std::cout << formatEstimateReport(report, program);
    }
    if (!opts.output.empty())
        writeOutput(inputs.front().second, opts.output);
    return 0;
}

int
runLint(const Options &opts, JsonOut &json)
{
    const std::vector<Input> inputs = loadPrograms(opts, opts.inputs);
    LintRunOptions run;
    run.sweep.align.objective =
        opts.objective.value_or(ObjectiveKind::TableCost);

    std::size_t total_errors = 0;
    std::size_t total_warnings = 0;
    for (const auto &[name, program] : inputs) {
        const LintReport report = lintProgram(program, run);
        total_errors += report.errors();
        total_warnings += report.warnings();
        if (opts.json)
            writeLintReportJson(report, name, json.next());
        else
            std::cout << formatLintReport(report, name);
    }
    if (!opts.json)
        std::printf("lint: %zu program(s): %zu error(s), %zu warning(s)\n",
                    inputs.size(), total_errors, total_warnings);
    return total_errors == 0 ? 0 : 1;
}

int
runVerify(const Options &opts, JsonOut &json)
{
    const std::vector<Input> inputs = loadPrograms(opts, opts.inputs);
    VerifyRunOptions run;
    run.sweep.objectives = objectives(opts);

    std::size_t total_failed = 0;
    std::size_t total_layouts = 0;
    for (const auto &[name, program] : inputs) {
        const VerifyRunReport report = verifyProgramLayouts(program, run);
        total_failed += report.failedLayouts;
        total_layouts += report.layoutsVerified;
        if (opts.json)
            writeVerifyReportJson(report, name, json.next());
        else
            std::cout << formatVerifyReport(report, name);
        writeReportFile(opts, program, ".verify.json",
                        [&](std::ostream &out) {
                            writeVerifyReportJson(report, name, out);
                        });
    }
    if (!opts.json)
        std::printf("verify: %zu program(s): %zu of %zu layout(s) failed\n",
                    inputs.size(), total_failed, total_layouts);
    return total_failed == 0 ? 0 : 1;
}

/**
 * Rebuilds the layout `emit` captures in an object — the identity layout
 * unless --algo is given, so `balign emit prog.balign -o prog.o`
 * round-trips the program as written — aligned for --arch. Shared by emit
 * and check-obj so the validator reconstructs exactly what the emitter
 * wrote.
 */
ProgramLayout
emitLayout(const Options &opts, const Program &program, AlignerKind kind)
{
    AlignOptions options;
    options.objective = opts.objective.value_or(ObjectiveKind::TableCost);
    return alignForArch(program, kind, opts.arch, options);
}

int
runEmit(const Options &opts, JsonOut &json)
{
    if (opts.output.empty())
        usageError("emit needs -o FILE for the object");
    const std::vector<Input> inputs = loadPrograms(opts, opts.inputs);
    const Program &program = inputs.front().second;
    const AlignerKind kind = opts.algo.value_or(AlignerKind::Original);
    const ProgramLayout layout = emitLayout(opts, program, kind);

    const EncodingModel &em =
        encodingModel(opts.encoding.value_or(EncodingModelKind::Variable));
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
    if (!writeElfObject(opts.output, program, relaxed, em))
        return 2;

    if (!opts.json) {
        std::printf("emit: %s: %llu text byte(s) (%llu short, %llu near "
                    "branch(es), %u sweep(s)) -> %s\n",
                    program.name().c_str(),
                    static_cast<unsigned long long>(relaxed.totalBytes),
                    static_cast<unsigned long long>(relaxed.shortBranches),
                    static_cast<unsigned long long>(relaxed.nearBranches),
                    relaxed.iterations, opts.output.c_str());
        return 0;
    }
    // Per-procedure sizes straight from the relaxation fixpoint, under
    // the key names check-obj reports from the decoded object.
    std::vector<ProcSizeRow> rows;
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        const RelaxedProc &proc = relaxed.procs[p];
        rows.push_back({program.proc(p).name(), proc.byteSize,
                        proc.numInstrs, proc.shortBranches,
                        proc.nearBranches});
    }
    std::ostream &os = json.next();
    os << "{\"schema_version\":1,\"program\":";
    writeJsonString(program.name(), os);
    os << ",\"encoding\":\"" << em.name()
       << "\",\"algo\":\"" << alignerKindName(kind)
       << "\",\"arch\":\"" << archName(opts.arch)
       << "\",\"objective\":\""
       << objectiveKindName(opts.objective.value_or(ObjectiveKind::TableCost))
       << "\",\"object\":";
    writeJsonString(opts.output, os);
    os << ",\"text_bytes\":" << relaxed.totalBytes
       << ",\"short_branches\":" << relaxed.shortBranches
       << ",\"near_branches\":" << relaxed.nearBranches
       << ",\"relax_sweeps\":" << relaxed.iterations
       << ",\"checks\":" << proof.totalChecks() << ',';
    writeProcSizesJson(rows, os);
    os << '}';
    return 0;
}

/**
 * Binary-level translation validation: for `<FILE> <FILE.o>` the object
 * is read from disk and its encoding taken from its e_machine unless
 * --encoding is given; under --suite each program's object is emitted in
 * memory under --encoding. Either way the layout emit captured is
 * rebuilt, relaxed and checked against the object's bytes. Text output
 * lists failures and advisory obj.* lint findings per object.
 */
int
runCheckObj(const Options &opts, JsonOut &json)
{
    const std::vector<Input> inputs = loadPrograms(
        opts, std::span(opts.inputs).first(opts.suite ? 0 : 1));
    const std::string objectPath = opts.suite ? "" : opts.inputs[1];
    std::vector<std::uint8_t> fileBytes;
    EncodingModelKind encoding =
        opts.encoding.value_or(EncodingModelKind::Variable);
    if (!opts.suite) {
        std::ifstream in(objectPath, std::ios::binary);
        if (!in)
            usageError("cannot read %s", objectPath.c_str());
        fileBytes.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
        // An unparseable object keeps the default encoding so the checker
        // can still report the parse failure as a decode-totality finding.
        if (!opts.encoding.has_value()) {
            const ParsedElf probe = parseElfObject(fileBytes);
            if (probe.ok && probe.machine == 0)
                encoding = EncodingModelKind::FixedWord;
        }
    }
    const EncodingModel &em = encodingModel(encoding);
    const AlignerKind kind = opts.algo.value_or(AlignerKind::Original);

    std::size_t failures = 0;
    for (const auto &[name, program] : inputs) {
        const ProgramLayout layout = emitLayout(opts, program, kind);
        const RelaxedLayout relaxed = relaxLayout(program, layout, em);
        if (!relaxed.converged) {
            std::fprintf(stderr,
                         "check-obj: %s: relaxation did not converge: %s\n",
                         name.c_str(), relaxed.diagnostic.c_str());
            ++failures;
            continue;
        }
        ObjCertificate certificate;
        certificate.program = program.name();
        certificate.arch = opts.archText;
        certificate.aligner = alignerKindName(kind);
        certificate.objective = opts.objectiveText;
        certificate.encoding = encodingModelKindName(encoding);
        certificate.object = objectPath;
        certificate.result = checkObject(
            program, relaxed,
            opts.suite ? buildElfObject(program, relaxed, em) : fileBytes);
        const ObjCheckResult &result = certificate.result;
        failures += result.totalFailures();

        if (opts.json) {
            writeObjCertificateJson(certificate, json.next());
        } else {
            for (const ObjFailure &failure : result.failures)
                std::printf("%s\n", formatObjFailure(failure).c_str());
            std::vector<Diagnostic> advisory;
            lintObject(program, result.disasm, certificate.encoding,
                       advisory);
            for (const Diagnostic &diagnostic : advisory)
                std::printf("%s\n", formatDiagnostic(diagnostic).c_str());
            std::printf("check-obj: %s (%s, %s): %zu check(s), %zu "
                        "failure(s)%s\n",
                        program.name().c_str(), certificate.encoding.c_str(),
                        opts.suite ? "in-memory" : objectPath.c_str(),
                        result.totalChecks(), result.totalFailures(),
                        result.verified() ? "; all obligations discharged"
                                          : "");
        }
        writeReportFile(opts, program,
                        std::string(".") + certificate.encoding +
                            ".checkobj.json",
                        [&](std::ostream &out) {
                            writeObjCertificateJson(certificate, out);
                        });
    }
    if (!opts.json && opts.suite)
        std::printf("check-obj: %zu program(s) (%s): %zu obligation "
                    "failure(s)\n",
                    inputs.size(), encodingModelKindName(encoding), failures);
    return failures == 0 ? 0 : 1;
}

struct Command
{
    const char *name;
    /// Positional arguments, then every flag the command takes: the
    /// parser accepts a flag only if its name appears here.
    const char *synopsis;
    std::size_t minInputs;
    std::size_t maxInputs;
    bool jsonArray;  ///< --json frames the reports as one array
    const char *summary;
    int (*run)(const Options &, JsonOut &);
};

constexpr Command kCommands[] = {
    {"generate", "<suite-name> [-o FILE] [--instrs N]", 1, 1, false,
     "generate a suite program model (an unprofiled CFG)", runGenerate},
    {"profile", "<FILE> [-o FILE] [--instrs N] [--seed S]", 1, 1, false,
     "walk the program and record edge weights into the CFG", runProfile},
    {"stats", "<FILE> [--instrs N] [--seed S]", 1, 1, false,
     "print Table-2 attributes of one walk", runStats},
    {"align", "<FILE> [--arch A] [--algo G] [--group N] [--objective OBJ]",
     1, 1, false,
     "print an aligner's layout (default try15): block orders, transforms",
     runAlign},
    {"evaluate", "<FILE> [--arch A] [--instrs N] [--seed S] [--objective OBJ]",
     1, 1, false,
     "compare Original/Greedy/Cost/Try15/ExtTsp on one architecture",
     runEvaluate},
    {"unroll", "<FILE> [-o FILE] [--factor K] [--min-weight W]", 1, 1, false,
     "unroll hot single-block loops by duplication", runUnroll},
    {"degrade",
     "<FILE> --kind K [-n N] [--param X] [--degrade-seed S] [-o FILE] "
     "[--instrs N]",
     1, 1, false,
     "degrade the profile (sample keeps 1/N, merge adds N walks; --param "
     "is perturb eps or drift t), profiling unweighted inputs first",
     runDegrade},
    {"dot", "<FILE> [--proc N]", 1, 1, false,
     "print a Graphviz rendering of one procedure", runDot},
    {"fuzz", "[--seeds N] [--instrs N] [--seed S] [-o DIR] [--objective OBJ]",
     0, 0, false,
     "fuzz the pipeline against the naive oracle; repros go to DIR",
     runFuzz},
    {"repro", "<FILE> [--instrs N] [--objective OBJ]", 1, 1, false,
     "replay one repro through the differential oracle", runRepro},
    {"estimate", "<FILE>...|--suite [--json] [-o FILE]", 1, SIZE_MAX, true,
     "synthesize a static profile from the CFG alone; -o writes the one "
     "estimated program",
     runEstimate},
    {"lint",
     "<FILE>...|--suite [--json] [--instrs N] [--seed S] [--objective OBJ]",
     1, SIZE_MAX, true,
     "statically check CFG, profile, layout legality and cost model",
     runLint},
    {"verify",
     "<FILE>...|--suite [--json] [-o DIR] [--instrs N] [--seed S] "
     "[--objective OBJ]",
     1, SIZE_MAX, true,
     "prove every layout equivalent to its program; -o writes certificates",
     runVerify},
    {"emit",
     "<FILE> -o FILE.o [--encoding E] [--algo G] [--arch A] "
     "[--objective OBJ] [--json] [--instrs N]",
     1, 1, false,
     "relax branch forms, prove them and write a relocatable ELF object",
     runEmit},
    {"check-obj",
     "<FILE> <FILE.o>|--suite [--json] [-o DIR] [--encoding E] [--algo G] "
     "[--arch A] [--objective OBJ] [--instrs N] [--seed S]",
     2, 2, false,
     "decode an emitted object and prove it against the layout",
     runCheckObj},
};

/// True if @p flag appears as a whole word in @p command's synopsis.
bool
takes(const Command &command, std::string_view flag)
{
    const std::string_view s = command.synopsis;
    for (std::size_t at = s.find(flag); at != s.npos;
         at = s.find(flag, at + 1)) {
        const std::size_t end = at + flag.size();
        if (at > 0 && std::strchr(" [|", s[at - 1]) != nullptr &&
            (end == s.size() || s[end] == ' ' || s[end] == ']'))
            return true;
    }
    return false;
}

void
usage()
{
    std::fputs("usage: balign <command> [arguments] [flags]\n\n", stderr);
    for (const Command &command : kCommands)
        std::fprintf(stderr, "  %s %s\n      %s\n", command.name,
                     command.synopsis, command.summary);
    std::fputs("\nflags:\n", stderr);
    for (const Flag &flag : kFlags) {
        std::string line = std::string("  ") + flag.name;
        if (flag.alias != nullptr)
            line += std::string(", ") + flag.alias;
        if (flag.value != nullptr)
            line += std::string(" ") + flag.value;
        std::fprintf(stderr, "%s\n", line.c_str());
    }
    std::fputs("\nexit status: 0 clean, 1 findings, 2 usage or IO error\n",
               stderr);
}

Options
parseOptions(const Command &command, int argc, char **argv)
{
    Options opts;
    for (int i = 2; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg.empty() || arg[0] != '-') {
            opts.inputs.emplace_back(arg);
            continue;
        }
        const Flag *flag =
            std::find_if(std::begin(kFlags), std::end(kFlags),
                         [&](const Flag &f) {
                             return arg == f.name ||
                                    (f.alias != nullptr && arg == f.alias);
                         });
        if (flag == std::end(kFlags))
            usageError("unknown option '%s'", argv[i]);
        if (!takes(command, flag->name))
            usageError("%s does not take %s", command.name, flag->name);
        std::string_view value;
        if (flag->value != nullptr) {
            if (i + 1 >= argc)
                usageError("missing value for %s", argv[i]);
            value = argv[++i];
        }
        if (!flag->set(opts, value))
            usageError("invalid value '%s' for %s (%s)", argv[i],
                       flag->name, flag->value);
    }
    const std::size_t n = opts.inputs.size();
    if (opts.suite ? n > 0 : n < command.minInputs || n > command.maxInputs)
        usageError("usage: balign %s %s", command.name, command.synopsis);
    return opts;
}

}  // namespace

int
main(int argc, char **argv)
{
    const std::string_view name = argc >= 2 ? argv[1] : "";
    for (const Command &command : kCommands) {
        if (name != command.name)
            continue;
        try {
            const Options opts = parseOptions(command, argc, argv);
            JsonOut json(command.jsonArray || opts.suite);
            const int status = command.run(opts, json);
            json.close();
            return status;
        } catch (const UsageError &) {
            return 2;
        }
    }
    usage();
    return 2;
}
