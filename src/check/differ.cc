#include "check/differ.h"

#include <cstdio>
#include <sstream>

#include "sim/batch_replay.h"
#include "support/log.h"
#include "trace/walker.h"

namespace balign {

const char *
divergenceKindName(DivergenceKind kind)
{
    switch (kind) {
      case DivergenceKind::Structural: return "structural";
      case DivergenceKind::Event: return "event";
      case DivergenceKind::Lint: return "lint";
      case DivergenceKind::Verify: return "verify";
      case DivergenceKind::Batch: return "batch";
      case DivergenceKind::Realign: return "realign";
      case DivergenceKind::Estimate: return "estimate";
      case DivergenceKind::Emit: return "emit";
      case DivergenceKind::Disasm: return "disasm";
    }
    return "?";
}

std::string
formatDivergence(const Divergence &divergence)
{
    std::ostringstream out;
    out << "DIVERGENCE [" << divergenceKindName(divergence.kind) << "] "
        << archName(divergence.arch) << "/"
        << alignerKindName(divergence.aligner)
        << " objective=" << objectiveKindName(divergence.objective);
    if (!divergence.program.empty())
        out << " program=" << divergence.program;
    out << "\n" << divergence.detail;
    return out.str();
}

std::string
compareSamples(const std::vector<BranchSample> &oracle,
               const std::vector<BranchSample> &production,
               std::size_t context)
{
    const std::size_t common = std::min(oracle.size(), production.size());
    std::size_t first = common;
    for (std::size_t i = 0; i < common; ++i) {
        if (!(oracle[i] == production[i])) {
            first = i;
            break;
        }
    }
    if (first == common && oracle.size() == production.size())
        return {};

    std::ostringstream out;
    if (first == common) {
        out << "sample streams differ in length: oracle has "
            << oracle.size() << " events, production has "
            << production.size() << " (first " << common << " agree)\n";
    } else {
        out << "first divergence at branch event " << first << " of "
            << common << ":\n";
        out << "  oracle:     " << formatSample(oracle[first]) << "\n";
        out << "  production: " << formatSample(production[first]) << "\n";
    }
    const std::size_t from = first > context ? first - context : 0;
    for (std::size_t i = from; i < first; ++i)
        out << "  [" << i << "] " << formatSample(oracle[i]) << "\n";
    if (first < common) {
        out << "  [" << first << "] <- diverges here";
    } else if (common > 0) {
        out << "  [" << (common - 1) << "] last common event";
    }
    return out.str();
}

namespace {

/**
 * Records the production BranchEventAdapter's output as branch samples:
 * every field the adapter resolves (type, site, target, direction,
 * procedure, block) plus the instructions it reported before each
 * branch. Penalties are not the adapter's to decide, so they stay 0.
 */
class ProductionTap : public BranchEventHandler
{
  public:
    void onInstrs(std::uint64_t count) override { instrs_ += count; }

    void
    onBranch(const BranchEvent &event) override
    {
        BranchSample sample;
        sample.type = event.type;
        sample.site = event.site;
        sample.target = event.target;
        sample.taken = event.taken;
        sample.proc = event.proc;
        sample.block = event.block;
        sample.instrsBefore = instrs_;
        samples_.push_back(sample);
    }

    const std::vector<BranchSample> &samples() const { return samples_; }

  private:
    std::uint64_t instrs_ = 0;
    std::vector<BranchSample> samples_;
};

/// Appends "name: oracle=X production=Y" for each mismatching counter.
void
compareCounter(std::ostringstream &out, const char *name,
               std::uint64_t oracle, std::uint64_t production)
{
    if (oracle == production)
        return;
    out << "  " << name << ": oracle=" << oracle
        << " production=" << production << "\n";
}

std::string
compareResults(const EvalResult &oracle, const EvalResult &production)
{
    std::ostringstream out;
    compareCounter(out, "instrs", oracle.instrs, production.instrs);
    compareCounter(out, "misfetches", oracle.misfetches,
                   production.misfetches);
    compareCounter(out, "mispredicts", oracle.mispredicts,
                   production.mispredicts);
    compareCounter(out, "condExec", oracle.condExec, production.condExec);
    compareCounter(out, "condTaken", oracle.condTaken,
                   production.condTaken);
    compareCounter(out, "condMispredicts", oracle.condMispredicts,
                   production.condMispredicts);
    compareCounter(out, "uncondExec", oracle.uncondExec,
                   production.uncondExec);
    compareCounter(out, "callExec", oracle.callExec, production.callExec);
    compareCounter(out, "returnExec", oracle.returnExec,
                   production.returnExec);
    compareCounter(out, "returnMispredicts", oracle.returnMispredicts,
                   production.returnMispredicts);
    compareCounter(out, "indirectExec", oracle.indirectExec,
                   production.indirectExec);
    compareCounter(out, "btbLookups", oracle.btbLookups,
                   production.btbLookups);
    compareCounter(out, "btbHits", oracle.btbHits, production.btbHits);
    if (oracle.bep() != production.bep()) {
        out << "  bep: oracle=" << oracle.bep()
            << " production=" << production.bep() << "\n";
    }
    return out.str();
}

}  // namespace

std::optional<Divergence>
diffLayout(const PreparedProgram &prepared, const ProgramLayout &layout,
           Arch arch, AlignerKind kind)
{
    const Program &program = prepared.program;
    if (prepared.trace == nullptr || prepared.batch == nullptr)
        panic("diffLayout(%s): PreparedProgram has no recorded trace; "
              "build it with prepareProgram", program.name().c_str());
    Divergence divergence;
    divergence.arch = arch;
    divergence.aligner = kind;
    divergence.program = program.name();

    // 1. The materializer's bookkeeping vs. the oracle's derivation.
    const std::vector<std::string> structural =
        crossCheckLayout(program, layout);
    if (!structural.empty()) {
        divergence.kind = DivergenceKind::Structural;
        std::ostringstream out;
        for (const std::string &message : structural)
            out << "  " << message << "\n";
        divergence.detail = out.str();
        return divergence;
    }

    // 2. One shared event stream, both consumers: the adapter's events
    // against the oracle's, with the oracle's per-event penalties set
    // aside (stage 3 checks the penalty totals).
    const EvalParams params = EvalParams::forArch(arch);
    OracleEvaluator oracle(program, layout, params);
    ProductionTap tap;
    BranchEventAdapter adapter(program, layout, tap);
    MultiSink fanout;
    fanout.add(&adapter);
    fanout.add(&oracle);
    prepared.trace->replay(program, fanout);

    std::vector<BranchSample> oracle_events = oracle.samples();
    for (BranchSample &sample : oracle_events) {
        sample.misfetches = 0;
        sample.mispredicts = 0;
    }
    const std::string events = compareSamples(oracle_events, tap.samples());
    if (!events.empty()) {
        divergence.kind = DivergenceKind::Event;
        divergence.detail = events;
        return divergence;
    }

    // 3. The batched replay engine runConfigs uses vs. the oracle: same
    // layout, one single-lane batched sweep.
    const std::vector<EvalResult> lanes =
        runBatchReplay(program, layout, *prepared.batch, {params});
    const std::string batch = compareResults(oracle.result(), lanes[0]);
    if (!batch.empty()) {
        divergence.kind = DivergenceKind::Batch;
        divergence.detail =
            "batched engine vs oracle (production=batched):\n" + batch;
        return divergence;
    }
    return std::nullopt;
}

std::vector<Divergence>
diffPrepared(const PreparedProgram &prepared, const DiffOptions &options)
{
    const std::vector<Arch> &archs =
        options.archs.empty() ? allArchs() : options.archs;
    const std::vector<AlignerKind> &kinds =
        options.kinds.empty() ? allAlignerKinds() : options.kinds;
    const std::vector<ObjectiveKind> objectives =
        options.objectives.empty()
            ? std::vector<ObjectiveKind>{options.align.objective}
            : options.objectives;

    std::vector<Divergence> divergences;
    for (const ObjectiveKind objective : objectives) {
        for (const AlignerKind kind : kinds) {
            for (const Arch arch : archs) {
                // Aligned as runConfigs aligns (alignForArch), so under
                // BT/FNT even Greedy layouts are architecture-specific.
                AlignOptions arch_options = options.align;
                arch_options.objective = objective;
                // The differ wants layout bugs surfaced as divergences it
                // can shrink, not as verifier panics.
                arch_options.verify = false;
                const ProgramLayout layout = alignForArch(
                    prepared.program, kind, arch, arch_options);
                std::optional<Divergence> divergence =
                    diffLayout(prepared, layout, arch, kind);
                if (divergence.has_value()) {
                    divergence->objective = objective;
                    divergences.push_back(std::move(*divergence));
                    if (options.maxDivergences != 0 &&
                        divergences.size() >= options.maxDivergences)
                        return divergences;
                }
            }
        }
    }
    return divergences;
}

std::vector<Divergence>
diffProgram(Program program, const WalkOptions &walk,
            const DiffOptions &options)
{
    return diffPrepared(prepareProgram(std::move(program), walk), options);
}

}  // namespace balign
