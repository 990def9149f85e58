/**
 * @file
 * The repository benchmark: one binary, three named workloads.
 *
 *   perfbench --workload paper-matrix|compile-large|profile-free
 *             --seed N --seconds S --trace 0|1
 *             [--workers N] [--quick] [--trace-out FILE]
 *             [--corrupt-object FILE]
 *
 * Every repetition sets up a fresh draw of the workload's inputs (timed
 * on its own) and runs the timed part on it, until the timed parts have
 * used S seconds. The first draw also goes through a correctness gate
 * outside the timed region: every layout is proof-checked, every emitted
 * object goes through the independent decoder, and one sampled cell per
 * program is diffed against the independent oracle.
 *
 * Set-up and timed part are reported in reference seconds: host seconds
 * scaled by a fixed kernel timed between the parts (calibrate.h), so that
 * a change in host speed between runs cancels.
 *
 * --trace 0 prints the end-to-end metrics (medians over the repetitions);
 * --trace 1 instead times one untraced repetition and then calls each
 * layer's public function serially with a span around each call, writes
 * the spans as Chrome trace-event JSON and prints the per-layer metrics.
 * The last line of standard output is always the result object; failed
 * checks make the exit status 1.
 *
 * Seed 0 reproduces the committed suite specs; any other seed re-draws
 * the generator seed of every spec, and with it the walk seed that
 * traceSeed() derives from it. The library only ever sees the generated
 * programs.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "calibrate.h"
#include "cfg/serialize.h"
#include "check/differ.h"
#include "core/align_program.h"
#include "disasm/checkobj.h"
#include "emit/elf.h"
#include "emit/relax.h"
#include "estimate/estimate.h"
#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "sim/cpi.h"
#include "spans.h"
#include "support/log.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "verify/verify.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace perfbench {
namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    unsigned workers = 2;  ///< paper-matrix pool size (caller included)
    bool quick = false;    ///< tiny inputs, for the benchmark's own tests
    std::string traceOut;
    std::string corruptObject;
};

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper-matrix|compile-large|profile-free --seed N "
                 "--seconds S --trace 0|1 [--workers N] [--quick] "
                 "[--trace-out FILE] [--corrupt-object FILE]\n",
                 message);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--quick") {
            args.quick = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            args.trace = value == "1";
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
        } else if (flag == "--workers") {
            args.workers =
                static_cast<unsigned>(std::strtoul(value.c_str(), &end, 10));
        } else if (flag == "--trace-out") {
            args.traceOut = value;
        } else if (flag == "--corrupt-object") {
            args.corruptObject = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && (*end != '\0' || end == value.c_str()))
            usage(("bad number for " + flag).c_str());
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (args.seconds <= 0.0 || args.workers == 0)
        usage("--seconds and --workers must be positive");
    return args;
}

/// Redraws a spec's generator seed (the walk seed follows through
/// traceSeed) unless the draw seed is 0.
ProgramSpec
reseed(ProgramSpec spec, std::uint64_t seed)
{
    if (seed != 0)
        spec.seed = SplitMix64(spec.seed ^ (seed * 0x9e3779b97f4a7c15ull))
                        .next();
    return spec;
}

/**
 * Draw seed of repetition @p rep: the benchmark seed itself first, then
 * fresh nonzero draws derived from it, so a run averages over several
 * programs per spec instead of timing one draw's shape again and again.
 */
std::uint64_t
drawSeed(std::uint64_t seed, std::size_t rep)
{
    if (rep == 0)
        return seed;
    return SplitMix64(seed * 0x9e3779b97f4a7c15ull + rep).next() | 1;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                      usage.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t
totalBlocks(const Program &program)
{
    std::size_t blocks = 0;
    for (const Procedure &proc : program.procs())
        blocks += proc.numBlocks();
    return blocks;
}

// ---------------------------------------------------------------------
// Correctness tally and the results a pass produces.

struct Outcome
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;  ///< first few, for stderr
    std::uint64_t textBytes = 0;  ///< over the distinct aligned layouts
    double logRelCpi = 0.0;       ///< summed over the aligned cells
    std::size_t relCpiCells = 0;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 8)
            failures.push_back(what);
    }

    void
    addRelCpi(double rel_cpi)
    {
        logRelCpi += std::log(rel_cpi);
        ++relCpiCells;
    }
};

// ---------------------------------------------------------------------
// Layout jobs: the distinct layouts behind a list of experiment cells,
// keyed exactly as runConfigs keys them (sim/cpi.cc), so the traced pass
// aligns, estimates and degrades as often as the timed run does.

struct Job
{
    ExperimentConfig config;
    std::vector<std::size_t> cells;  ///< indices into the config list
};

std::vector<Job>
layoutJobs(const std::vector<ExperimentConfig> &configs)
{
    std::vector<Job> jobs;
    std::map<std::tuple<AlignerKind, ObjectiveKind, Arch, ProfileSource,
                        DegradeSpec>,
             std::size_t>
        index;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const ExperimentConfig &c = configs[i];
        const bool original = c.kind == AlignerKind::Original;
        const bool guided = c.kind == AlignerKind::Cost ||
                            c.kind == AlignerKind::Try15 ||
                            c.kind == AlignerKind::ExtTsp;
        const bool arch_dependent =
            (guided && objectiveArchDependent(c.objective)) ||
            c.arch == Arch::BtFnt;
        const ProfileSource source =
            original ? ProfileSource::Measured : c.source;
        const auto key = std::make_tuple(
            c.kind, c.objective, arch_dependent ? c.arch : Arch::Fallthrough,
            source,
            original || source == ProfileSource::Estimated ? DegradeSpec::none()
                                                           : c.degrade);
        const auto [it, fresh] = index.emplace(key, jobs.size());
        if (fresh)
            jobs.push_back({c, {}});
        jobs[it->second].cells.push_back(i);
    }
    return jobs;
}

const char *
alignSpanName(AlignerKind kind)
{
    switch (kind) {
      case AlignerKind::Original: return "core.original";
      case AlignerKind::Greedy: return "core.greedy";
      case AlignerKind::Cost: return "core.cost";
      case AlignerKind::Try15: return "core.try15";
      case AlignerKind::ExtTsp: return "core.exttsp";
    }
    return "core.unknown";
}

/// What a layer pass needs about one program.
struct PassInput
{
    const Program *program = nullptr;
    const WalkOptions *walk = nullptr;
    const BatchTrace *batch = nullptr;
    EncodingModelKind encoding = EncodingModelKind::FixedWord;
    bool emit = false;  ///< build and decode an ELF object per layout
    /// When set, replaces the first emitted object (fault injection).
    const std::vector<std::uint8_t> *corruptObject = nullptr;
    /// When set, every cell replays on this architecture instead of its
    /// own.
    std::optional<Arch> replayArch;
};

struct PassLayout
{
    ProgramLayout layout;
    std::vector<EvalResult> lanes;  ///< one per cell of the job
};

/**
 * Runs every job of one program through the layers, one public call per
 * span: estimate or degrade a copy of the profile, align (unverified),
 * prove, relax and prove the bytes (variable encoding), emit and decode
 * the object, and replay the job's cells in one batched sweep. Checks and
 * byte counts land in @p outcome.
 */
std::vector<PassLayout>
layerPass(const PassInput &in, const std::vector<ExperimentConfig> &configs,
          const std::vector<Job> &jobs, Spans &spans, Outcome &outcome)
{
    const Program &program = *in.program;
    const EncodingModel &model = encodingModel(in.encoding);
    const double blocks = static_cast<double>(totalBlocks(program));
    std::vector<PassLayout> out(jobs.size());
    bool corrupt_pending = in.corruptObject != nullptr;

    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const ExperimentConfig &config = jobs[j].config;
        const bool aligned = config.kind != AlignerKind::Original;
        const std::string detail = program.name() + " " +
                                   alignerKindName(config.kind) + "/" +
                                   archName(config.arch);
        const CostModel cost_model(config.arch);
        AlignOptions options;
        options.objective = config.objective;
        options.verify = false;
        if (config.arch == Arch::BtFnt)
            options.chainOrder = ChainOrderPolicy::BtFntPrecedence;

        Program copy;
        const Program *source = &program;
        if (aligned && config.source == ProfileSource::Estimated) {
            spans.span("estimate.estimate", detail, [&] {
                copy = program;
                estimateProfile(copy);
            });
            spans.count("estimate.calls", 1);
            spans.count("estimate.blocks", blocks);
            source = &copy;
        } else if (aligned && !config.degrade.isNone()) {
            spans.span("profile.degrade", detail, [&] {
                copy = program;
                degradeProfile(copy, *in.walk, config.degrade);
            });
            source = &copy;
        }
        PassLayout &result = out[j];
        result.layout = spans.span(alignSpanName(config.kind), detail, [&] {
            return alignProgram(*source, config.kind, &cost_model, options);
        });
        if (aligned) {
            spans.count("core.layouts", 1);
            spans.count("core.blocks", blocks);
        }

        const VerifyResult proof = spans.span("verify.verify", detail, [&] {
            return verifyLayout(program, result.layout);
        });
        spans.count("verify.checks", static_cast<double>(proof.totalChecks()));
        outcome.check(proof.verified(),
                      "verify " + detail +
                          (proof.verified()
                               ? ""
                               : ": " + formatVerifyFailure(
                                            proof.failures.front())));

        std::uint64_t bytes = 0;
        if (in.encoding == EncodingModelKind::FixedWord) {
            bytes = result.layout.totalInstrs *
                    model.instrBytes(InstrClass::Body, BranchForm::None);
        } else {
            const RelaxedLayout relaxed = spans.span("emit.relax", detail, [&] {
                return relaxLayout(program, result.layout, model);
            });
            spans.count("emit.relax_blocks", blocks);
            bytes = relaxed.totalBytes;
            const VerifyResult byte_proof =
                spans.span("verify.verify", detail, [&] {
                    return verifyRelaxedLayout(program, result.layout,
                                               relaxed, model);
                });
            spans.count("verify.checks",
                        static_cast<double>(byte_proof.totalChecks()));
            outcome.check(relaxed.converged && byte_proof.verified(),
                          "relaxed proof " + detail + ": " +
                              (byte_proof.verified()
                                   ? relaxed.diagnostic
                                   : formatVerifyFailure(
                                         byte_proof.failures.front())));
            if (in.emit) {
                std::vector<std::uint8_t> object =
                    spans.span("emit.elf", detail, [&] {
                        return buildElfObject(program, relaxed, model);
                    });
                spans.count("emit.elf_bytes",
                            static_cast<double>(object.size()));
                if (corrupt_pending) {
                    object = *in.corruptObject;
                    corrupt_pending = false;
                }
                const ObjCheckResult decoded =
                    spans.span("disasm.checkobj", detail, [&] {
                        return checkObject(program, relaxed, object);
                    });
                spans.count("disasm.bytes", static_cast<double>(object.size()));
                spans.count("disasm.checks",
                            static_cast<double>(decoded.totalChecks()));
                outcome.check(decoded.verified(),
                              "check-obj " + detail +
                                  (decoded.verified()
                                       ? ""
                                       : ": " + formatObjFailure(
                                                    decoded.failures.front())));
            }
        }
        if (aligned)
            outcome.textBytes += bytes;

        std::vector<EvalParams> lanes;
        for (const std::size_t c : jobs[j].cells)
            lanes.push_back(
                EvalParams::forArch(in.replayArch.value_or(configs[c].arch)));
        result.lanes = spans.span("sim.replay", detail, [&] {
            return runBatchReplay(program, result.layout, *in.batch, lanes);
        });
        spans.count("sim.lanes", static_cast<double>(lanes.size()));
        spans.count("sim.lane_events",
                    static_cast<double>(lanes.size() * in.batch->ops.size()));
    }
    return out;
}

/// Builds and profiles one spec: generate, then one recorded walk.
PreparedProgram
prepareSpec(const ProgramSpec &spec, Spans &spans)
{
    Program program = spans.span("workload.generate", spec.name,
                                 [&] { return generateProgram(spec); });
    WalkOptions walk;
    walk.seed = traceSeed(spec);
    walk.instrBudget = spec.traceInstrs;
    PreparedProgram prepared = spans.span("trace.profile", spec.name, [&] {
        return prepareProgram(std::move(program), walk, spec.name);
    });
    spans.count("trace.events",
                static_cast<double>(prepared.trace->numEvents()));
    spans.count("trace.buffer_bytes",
                static_cast<double>(prepared.trace->sizeBytes() +
                                    prepared.batch->sizeBytes()));
    return prepared;
}

/// Diffs @p layout (aligned for @p config) against the independent oracle.
void
oracleDiff(const PreparedProgram &prepared, const ProgramLayout &layout,
           const ExperimentConfig &config, Spans &spans, Outcome &outcome)
{
    const std::optional<Divergence> divergence =
        spans.span("check.diff", prepared.program.name(), [&] {
            return diffLayout(prepared, layout, config.arch, config.kind);
        });
    outcome.check(!divergence.has_value(),
                  "oracle diff " + prepared.program.name() +
                      (divergence ? ": " + formatDivergence(*divergence)
                                  : std::string()));
}

// ---------------------------------------------------------------------
// Workloads.

/// Stated input size, printed to stderr with every run.
struct InputSize
{
    std::size_t programs = 0;
    std::size_t blocks = 0;
    std::uint64_t traceInstrs = 0;
    std::size_t configs = 0;
    unsigned workers = 1;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /// Builds the inputs of draw @p seed, replacing earlier ones.
    virtual void setup(Spans &spans, std::uint64_t seed) = 0;

    /// One untraced repetition of the timed part.
    virtual void run() = 0;

    /**
     * The correctness gate over the current inputs: the serial layer pass
     * (traced when @p spans is enabled) inside top-level "pipeline" spans,
     * then the oracle diffs.
     */
    virtual Outcome checkedPass(Spans &spans) = 0;

    virtual InputSize size() const = 0;

    /// Threads the timed part runs on.
    virtual unsigned workers() const { return 1; }
};

/**
 * paper-matrix and profile-free: the 24-program suite, evaluated through
 * runConfigs, program after program (profile-free) or across a pool
 * (paper-matrix).
 */
class SuiteWorkload : public Workload
{
  public:
    SuiteWorkload(const Args &args, std::vector<ExperimentConfig> configs,
                  EncodingModelKind encoding, unsigned workers)
        : configs_(std::move(configs)), jobs_(layoutJobs(configs_)),
          encoding_(encoding), pool_(workers)
    {
        for (const ProgramSpec &spec : benchmarkSuite()) {
            if (args.quick && spec.name != "compress" && spec.name != "ear")
                continue;
            specs_.push_back(spec);
            if (args.quick)
                specs_.back().traceInstrs = 100'000;
        }
    }

    void
    setup(Spans &spans, std::uint64_t seed) override
    {
        seed_ = seed;
        prepared_.clear();
        for (const ProgramSpec &spec : specs_)
            prepared_.push_back(prepareSpec(reseed(spec, seed), spans));
    }

    void
    run() override
    {
        // A one-thread pool spawns no workers: profile-free stays serial.
        runs_.assign(prepared_.size(), ExperimentRun{});
        const RunContext context{&pool_};
        pool_.parallelFor(prepared_.size(), [&](std::size_t i) {
            runs_[i] = runConfigs(prepared_[i], configs_, {}, context);
        });
    }

    Outcome
    checkedPass(Spans &spans) override
    {
        Outcome outcome;
        for (const ExperimentRun &run : runs_) {
            for (const ExperimentCell &cell : run.cells) {
                if (cell.config.kind != AlignerKind::Original)
                    outcome.addRelCpi(cell.relCpi);
            }
        }
        for (std::size_t p = 0; p < prepared_.size(); ++p) {
            const PreparedProgram &prepared = prepared_[p];
            PassInput in;
            in.program = &prepared.program;
            in.walk = &prepared.walk;
            in.batch = prepared.batch.get();
            in.encoding = encoding_;
            const std::vector<PassLayout> layouts = spans.span(
                "pipeline", prepared.program.name(),
                [&] { return layerPass(in, configs_, jobs_, spans, outcome); });

            // The timed run's instruction counts are address-independent,
            // so they must equal the serial pass's under every encoding.
            bool same = true;
            for (std::size_t j = 0; j < jobs_.size(); ++j) {
                for (std::size_t l = 0; l < jobs_[j].cells.size(); ++l) {
                    const std::size_t c = jobs_[j].cells[l];
                    same = same && runs_[p].cells[c].eval.instrs ==
                                       layouts[j].lanes[l].instrs;
                }
            }
            outcome.check(same, "timed vs serial instrs " +
                                    prepared.program.name());

            // One seeded cell per program against the oracle.
            const std::size_t cell =
                SplitMix64(seed_ * 0x100000001b3ull + p).next() %
                configs_.size();
            std::size_t job = 0;
            while (std::find(jobs_[job].cells.begin(), jobs_[job].cells.end(),
                             cell) == jobs_[job].cells.end())
                ++job;
            oracleDiff(prepared, layouts[job].layout, configs_[cell], spans,
                       outcome);
        }
        return outcome;
    }

    InputSize
    size() const override
    {
        InputSize size;
        size.programs = prepared_.size();
        for (const PreparedProgram &prepared : prepared_) {
            size.blocks += totalBlocks(prepared.program);
            size.traceInstrs += prepared.trace->walkResult().instrs;
        }
        size.configs = configs_.size() * prepared_.size();
        size.workers = workers();
        return size;
    }

    unsigned workers() const override { return pool_.threads(); }

  private:
    std::uint64_t seed_ = 0;  ///< draw seed of the current inputs
    std::vector<ProgramSpec> specs_;
    std::vector<ExperimentConfig> configs_;
    std::vector<Job> jobs_;
    EncodingModelKind encoding_;
    std::vector<PreparedProgram> prepared_;
    std::vector<ExperimentRun> runs_;
    ThreadPool pool_;  ///< last: its workers touch the members above
};

/// The Table-3 + Table-4 matrix: 7 architectures x 4 aligners.
std::unique_ptr<Workload>
paperMatrix(const Args &args)
{
    const Arch archs[] = {Arch::Fallthrough, Arch::BtFnt,     Arch::Likely,
                          Arch::PhtDirect,   Arch::PhtCorrelated,
                          Arch::BtbSmall,    Arch::BtbLarge};
    std::vector<ExperimentConfig> configs;
    for (const Arch arch : archs) {
        for (const AlignerKind kind :
             {AlignerKind::Original, AlignerKind::Greedy, AlignerKind::Cost,
              AlignerKind::Try15})
            configs.push_back({arch, kind});
    }
    return std::make_unique<SuiteWorkload>(
        args, configs, EncodingModelKind::FixedWord, args.workers);
}

/// The suite aligned without a trusted profile, replayed on relaxed bytes.
std::unique_ptr<Workload>
profileFree(const Args &args)
{
    DegradeSpec sampled;
    sampled.kind = DegradeKind::Sample;
    sampled.n = 8;
    std::vector<ExperimentConfig> configs;
    for (const Arch arch : {Arch::PhtCorrelated, Arch::BtbLarge}) {
        ExperimentConfig base{arch, AlignerKind::Original};
        base.encoding = EncodingModelKind::Variable;
        configs.push_back(base);

        ExperimentConfig greedy = base;
        greedy.kind = AlignerKind::Greedy;
        greedy.source = ProfileSource::Estimated;
        configs.push_back(greedy);

        ExperimentConfig exttsp = greedy;
        exttsp.kind = AlignerKind::ExtTsp;
        exttsp.objective = ObjectiveKind::ExtTsp;
        configs.push_back(exttsp);

        ExperimentConfig try15 = base;
        try15.kind = AlignerKind::Try15;
        try15.degrade = sampled;
        configs.push_back(try15);
    }
    return std::make_unique<SuiteWorkload>(args, configs,
                                           EncodingModelKind::Variable, 1);
}

/**
 * compile-large: the link-time job on one large program. Setup generates
 * the gcc model scaled to ~4,000 procedures, profiles it and serializes
 * it; the timed part parses the text and runs three layouts through every
 * layer down to a decoded object.
 */
class CompileLarge : public Workload
{
  public:
    explicit CompileLarge(const Args &args)
    {
        spec_ = suiteSpec("gcc");
        spec_.name = "gcc-large";
        spec_.numProcs = args.quick ? 100 : 4000;
        spec_.traceInstrs = args.quick ? 500'000 : 20'000'000;

        // Greedy, Cost priced for BT/FNT, and ExtTSP under its own
        // objective; every layout is replayed on the large BTB.
        configs_ = {{Arch::BtbLarge, AlignerKind::Greedy},
                    {Arch::BtFnt, AlignerKind::Cost},
                    {Arch::BtbLarge, AlignerKind::ExtTsp,
                     ObjectiveKind::ExtTsp}};
        for (ExperimentConfig &config : configs_)
            config.encoding = EncodingModelKind::Variable;
        jobs_ = layoutJobs(configs_);
        if (!args.corruptObject.empty()) {
            std::ifstream file(args.corruptObject, std::ios::binary);
            if (!file)
                fatal("cannot read '%s'", args.corruptObject.c_str());
            corrupt_.assign(std::istreambuf_iterator<char>(file), {});
        }
    }

    void
    setup(Spans &spans, std::uint64_t seed) override
    {
        prepared_.reset();
        text_.clear();
        prepared_ = std::make_unique<PreparedProgram>(
            prepareSpec(reseed(spec_, seed), spans));
        text_ = spans.span("cfg.serialize", spec_.name, [&] {
            return programToString(prepared_->program);
        });
    }

    void
    run() override
    {
        Spans off(false);
        last_ = pipeline(off);
    }

    Outcome
    checkedPass(Spans &spans) override
    {
        if (spans.enabled())
            last_ = spans.span("pipeline", spec_.name,
                               [&] { return pipeline(spans); });
        Outcome outcome = last_.outcome;
        if (!last_.layouts.empty())  // empty only when the parse failed
            oracleDiff(*prepared_, last_.layouts.front().layout,
                       configs_[jobs_.front().cells.front()], spans, outcome);
        return outcome;
    }

    InputSize
    size() const override
    {
        InputSize size;
        size.programs = 1;
        size.blocks = totalBlocks(prepared_->program);
        size.traceInstrs = prepared_->trace->walkResult().instrs;
        size.configs = configs_.size();
        return size;
    }

  private:
    struct Result
    {
        Outcome outcome;
        std::vector<PassLayout> layouts;
    };

    /// The timed part: parse, then the layer pass with object emission.
    Result
    pipeline(Spans &spans)
    {
        Result result;
        ParseResult parsed = spans.span("cfg.parse", spec_.name, [&] {
            return programFromString(text_);
        });
        spans.count("cfg.parse_bytes", static_cast<double>(text_.size()));
        result.outcome.check(parsed.ok(), "parse " + parsed.error);
        if (!parsed.ok())
            return result;
        const Program &program = *parsed.program;
        PassInput in;
        in.program = &program;
        in.walk = &prepared_->walk;
        in.batch = prepared_->batch.get();
        in.encoding = EncodingModelKind::Variable;
        in.emit = true;
        in.replayArch = Arch::BtbLarge;
        in.corruptObject = corrupt_.empty() ? nullptr : &corrupt_;
        result.layouts =
            layerPass(in, configs_, jobs_, spans, result.outcome);

        const std::uint64_t orig_instrs =
            batchLayoutInstrs(*prepared_->batch, originalLayout(program));
        for (const PassLayout &layout : result.layouts)
            result.outcome.addRelCpi(
                layout.lanes.front().relativeCpi(orig_instrs));
        return result;
    }

    ProgramSpec spec_;
    std::vector<ExperimentConfig> configs_;
    std::vector<Job> jobs_;
    std::vector<std::uint8_t> corrupt_;
    std::unique_ptr<PreparedProgram> prepared_;
    std::string text_;
    Result last_;
};

// ---------------------------------------------------------------------
// Reporting.

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(const Outcome &outcome, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                outcome.failed == 0 ? "true" : "false", outcome.attempted,
                outcome.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double
ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Per-layer metrics from the traced pass (see BENCHMARK.json).
std::vector<Metric>
layerMetrics(const Spans &spans, double untraced_wall, double cpu,
             unsigned workers)
{
    const double wall = spans.seconds("pipeline");
    const double setup = spans.seconds("setup");
    auto s = [&](const char *name) { return spans.seconds(name); };
    auto c = [&](const char *name) { return spans.counter(name); };
    const double align = spans.moduleSeconds("core", "pipeline");
    std::vector<Metric> m = {
        {"core.try15_s", s("core.try15"), "s"},
        {"core.cost_s", s("core.cost"), "s"},
        {"core.exttsp_s", s("core.exttsp"), "s"},
        {"core.greedy_s", s("core.greedy"), "s"},
        {"core.layouts", c("core.layouts"), "count"},
        {"core.align_blocks_per_s", ratio(c("core.blocks"), align), "1/s"},
        {"estimate.estimate_s", s("estimate.estimate"), "s"},
        {"estimate.calls", c("estimate.calls"), "count"},
        {"estimate.blocks_per_s",
         ratio(c("estimate.blocks"), s("estimate.estimate")), "1/s"},
        {"profile.degrade_s", s("profile.degrade"), "s"},
        {"verify.verify_s", s("verify.verify"), "s"},
        {"verify.checks", c("verify.checks"), "count"},
        {"cfg.parse_s", s("cfg.parse"), "s"},
        {"cfg.parse_mb_per_s",
         ratio(c("cfg.parse_bytes") / 1e6, s("cfg.parse")), "MB/s"},
        {"emit.relax_s", s("emit.relax"), "s"},
        {"emit.relax_blocks_per_s",
         ratio(c("emit.relax_blocks"), s("emit.relax")), "1/s"},
        {"emit.elf_s", s("emit.elf"), "s"},
        {"emit.elf_mb_per_s", ratio(c("emit.elf_bytes") / 1e6, s("emit.elf")),
         "MB/s"},
        {"disasm.checkobj_s", s("disasm.checkobj"), "s"},
        {"disasm.checkobj_mb_per_s",
         ratio(c("disasm.bytes") / 1e6, s("disasm.checkobj")), "MB/s"},
        {"disasm.checks", c("disasm.checks"), "count"},
        {"sim.replay_s", s("sim.replay"), "s"},
        {"sim.lanes", c("sim.lanes"), "count"},
        {"sim.replay_events_per_s",
         ratio(c("sim.lane_events"), s("sim.replay")), "1/s"},
        {"trace.profile_s", s("trace.profile"), "s"},
        {"trace.events_per_s", ratio(c("trace.events"), s("trace.profile")),
         "1/s"},
        {"trace.buffer_mb", c("trace.buffer_bytes") / 1e6, "MB"},
        {"workload.generate_s", s("workload.generate"), "s"},
        {"runner.cpu_s", cpu, "s"},
        {"runner.parallel_eff", ratio(cpu, untraced_wall * workers), "ratio"},
    };
    // Layers of the timed part as shares of the traced pipeline; the two
    // set-up layers as shares of the traced set-up.
    for (const char *module :
         {"core", "estimate", "profile", "verify", "cfg", "emit", "disasm",
          "sim"}) {
        m.push_back({std::string(module) + ".share",
                     ratio(spans.moduleSeconds(module, "pipeline"), wall),
                     "ratio"});
    }
    for (const char *module : {"workload", "trace"}) {
        m.push_back({std::string(module) + ".share",
                     ratio(spans.moduleSeconds(module, "setup"), setup),
                     "ratio"});
    }
    m.push_back({"bench.trace_overhead", ratio(wall, untraced_wall), "ratio"});
    return m;
}

int
benchMain(const Args &args)
{
    std::unique_ptr<Workload> workload;
    if (args.workload == "paper-matrix")
        workload = paperMatrix(args);
    else if (args.workload == "profile-free")
        workload = profileFree(args);
    else if (args.workload == "compile-large")
        workload = std::make_unique<CompileLarge>(args);
    else
        usage(("unknown workload " + args.workload).c_str());
    if (!args.corruptObject.empty() && args.workload != "compile-large")
        usage("--corrupt-object needs the compile-large workload");

    // Repetition r sets up draw r (timed on its own), then runs the timed
    // part on it, until the timed parts have used the budget and at least
    // four set-ups have been timed. The first draw's inputs also go
    // through the correctness gate and give every deterministic metric and
    // the peak memory, so those do not depend on the repetition count.
    // The traced run makes one repetition, times it untraced, and traces
    // the gate's layer pass instead.
    Spans spans(args.trace);
    std::vector<double> setups;
    std::vector<double> walls;
    std::vector<double> kernels;  // host seconds of each reference kernel
    const auto calibrate = [&] { kernels.push_back(calibrationSeconds()); };
    double timed = 0.0;
    double cpu = 0.0;
    double rss = 0.0;
    Outcome outcome;
    InputSize size;
    calibrate();
    for (std::size_t rep = 0;; ++rep) {
        double start = nowSeconds();
        spans.span("setup", args.workload, [&] {
            workload->setup(spans, drawSeed(args.seed, rep));
        });
        setups.push_back(nowSeconds() - start);
        calibrate();

        const double cpu_start = cpuSeconds();
        start = nowSeconds();
        workload->run();
        walls.push_back(nowSeconds() - start);
        const double run_cpu = cpuSeconds() - cpu_start;
        timed += walls.back();
        calibrate();
        if (rep == 0) {
            cpu = run_cpu;
            rss = peakRssMb();
            size = workload->size();
            outcome = workload->checkedPass(spans);
        }
        if (args.trace || (timed >= args.seconds && walls.size() >= 4))
            break;
    }

    std::fprintf(stderr,
                 "perfbench %s seed=%llu: programs=%zu blocks=%zu "
                 "trace_instrs=%llu configs=%zu workers=%u reps=%zu\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), size.programs,
                 size.blocks, static_cast<unsigned long long>(size.traceInstrs),
                 size.configs, size.workers, walls.size());
    // Host seconds to reference seconds. Host speed drifts over minutes;
    // the median over every kernel of the run measures it with less noise
    // than pairing each part with the kernels next to it.
    const double to_reference = kReferenceSeconds / median(kernels);
    std::fprintf(stderr,
                 "  reference kernel: median %.4f s over %zu runs, "
                 "%.3f reference s per host s\n",
                 median(kernels), kernels.size(), to_reference);
    for (std::size_t rep = 0; rep < walls.size(); ++rep)
        std::fprintf(stderr, "  rep %zu: setup %.3f s, timed %.3f s\n", rep,
                     setups[rep], walls[rep]);
    for (const std::string &failure : outcome.failures)
        std::fprintf(stderr, "perfbench: FAILED %s\n", failure.c_str());

    if (args.trace) {
        if (!args.traceOut.empty()) {
            std::ofstream file(args.traceOut);
            spans.writeChromeJson(file);
            if (!file)
                fatal("cannot write '%s'", args.traceOut.c_str());
        }
        printResult(outcome, layerMetrics(spans, walls.front(), cpu,
                                          workload->workers()));
    } else {
        const double pass = 1.0 - ratio(static_cast<double>(outcome.failed),
                                        static_cast<double>(outcome.attempted));
        printResult(
            outcome,
            {{"wall_s", median(walls) * to_reference, "s"},
             {"setup_s", median(setups) * to_reference, "s"},
             {"peak_rss_mb", rss, "MB"},
             {"rel_cpi_geomean",
              std::exp(outcome.logRelCpi /
                       static_cast<double>(std::max<std::size_t>(
                           outcome.relCpiCells, 1))),
              "ratio"},
             {"text_bytes", static_cast<double>(outcome.textBytes), "bytes"},
             {"pass_ratio", pass, "ratio"}});
    }
    return outcome.failed == 0 && outcome.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char **argv)
{
    setVerbose(false);
    return perfbench::benchMain(perfbench::parseArgs(argc, argv));
}
