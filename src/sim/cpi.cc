#include "sim/cpi.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "emit/relax.h"
#include "estimate/estimate.h"
#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "support/log.h"
#include "trace/profiler.h"
#include "workload/generator.h"

namespace balign {

void
ExperimentRun::buildCellIndex()
{
    cellIndex.clear();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        cellIndex.emplace(
            std::make_pair(cells[i].config.arch, cells[i].config.kind), i);
    }
}

const ExperimentCell &
ExperimentRun::cell(Arch arch, AlignerKind kind) const
{
    const auto found = cellIndex.find(std::make_pair(arch, kind));
    if (found != cellIndex.end())
        return cells[found->second];
    fatal("ExperimentRun(%s): no cell for %s/%s", name.c_str(),
          archName(arch), alignerKindName(kind));
}

PreparedProgram
prepareProgram(Program program, const WalkOptions &walk,
               const std::string &name)
{
    PreparedProgram prepared;
    prepared.program = std::move(program);
    prepared.walk = walk;
    if (!name.empty())
        prepared.program.setName(name);

    // One walk both profiles the program and records the event stream;
    // every evaluation replays the recording instead of walking again.
    prepared.program.clearWeights();
    Profiler profiler(prepared.program);
    TraceRecorder recorder(prepared.program);
    MultiSink fanout;
    fanout.add(&profiler);
    fanout.add(&recorder);
    recorder.setWalkResult(balign::walk(prepared.program, walk, fanout));
    prepared.stats = profiler.stats();
    prepared.trace =
        std::make_shared<const RecordedTrace>(recorder.take());
    // Canonical batched form: one extra pass now, paid back every time
    // runConfigs sweeps a layout group (sim/batch_replay.h).
    prepared.batch = std::make_shared<const BatchTrace>(prepared.program,
                                                        *prepared.trace);
    return prepared;
}

PreparedProgram
prepareProgram(const ProgramSpec &spec)
{
    WalkOptions walk;
    walk.seed = traceSeed(spec);
    walk.instrBudget = spec.traceInstrs;
    return prepareProgram(generateProgram(spec), walk, spec.name);
}

namespace {

/**
 * Rewrites every address field of @p layout to its relaxed byte address
 * under @p model: block starts, terminator-branch slots and inserted-jump
 * slots. Instruction-count fields are untouched, so replay accounting
 * (instrs, per-block activation mapping) is unchanged — only the
 * addresses that address-indexed predictors consume move. The clone is
 * never verified or linted (those prove the word model; the byte
 * rendition has its own obligations in verify/verify.h).
 */
void
translateLayoutAddresses(const Program &program, ProgramLayout &layout,
                         const EncodingModel &model)
{
    const RelaxedLayout relaxed = relaxLayout(program, layout, model);
    for (ProcId p = 0; p < layout.procs.size(); ++p) {
        ProcLayout &proc = layout.procs[p];
        const RelaxedProc &rp = relaxed.procs[p];
        proc.base = static_cast<Addr>(rp.byteBase);
        for (const BlockId id : proc.order) {
            BlockLayout &bl = proc.blocks[id];
            const RelaxedBlock &rb = rp.blocks[id];
            // Match the word addresses against the block's slots BEFORE
            // overwriting them.
            Addr branch_addr = kNoAddr;
            Addr jump_addr = kNoAddr;
            for (std::uint32_t s = 0; s < rb.numInstrs; ++s) {
                const RelaxedInstr &instr =
                    relaxed.instrs[rb.firstInstr + s];
                if (bl.branchAddr != kNoAddr &&
                    instr.wordAddr == bl.branchAddr)
                    branch_addr = static_cast<Addr>(instr.byteAddr);
                if (bl.jumpAddr != kNoAddr &&
                    instr.wordAddr == bl.jumpAddr)
                    jump_addr = static_cast<Addr>(instr.byteAddr);
            }
            bl.addr = static_cast<Addr>(rb.byteAddr);
            bl.branchAddr = branch_addr;
            bl.jumpAddr = jump_addr;
        }
    }
}

}  // namespace

ExperimentRun
runConfigs(const PreparedProgram &prepared,
           const std::vector<ExperimentConfig> &configs,
           const AlignOptions &options, const RunContext &context)
{
    const Program &program = prepared.program;
    if (prepared.batch == nullptr)
        panic("runConfigs(%s): PreparedProgram has no batched trace; "
              "build it with prepareProgram", program.name().c_str());

    ExperimentRun run;
    run.name = program.name();
    run.stats = prepared.stats;

    // Build the layouts. Original and Greedy are architecture-independent;
    // Cost and TryN depend on the architecture's cost model.
    struct LayoutKey
    {
        AlignerKind kind;
        ObjectiveKind objective;
        Arch arch;  ///< only meaningful for arch-dependent layouts
        DegradeSpec degrade;
        ProfileSource source;
        EncodingModelKind encoding;

        bool
        operator<(const LayoutKey &other) const
        {
            if (kind != other.kind)
                return kind < other.kind;
            if (objective != other.objective)
                return objective < other.objective;
            if (arch != other.arch)
                return arch < other.arch;
            if (source != other.source)
                return source < other.source;
            if (encoding != other.encoding)
                return encoding < other.encoding;
            return degrade < other.degrade;
        }
    };
    auto layout_key = [](const ExperimentConfig &config) {
        // Objective-guided aligners depend on the architecture only when
        // the objective prices through the architecture's cost model
        // (Table-1; ExtTSP layouts are shared across architectures). In
        // addition, the BT/FNT architecture uses the Pettis-Hansen BT/FNT
        // precedence chain ordering (paper SS6.1), making every BT/FNT
        // layout architecture-specific.
        const bool guided = config.kind == AlignerKind::Cost ||
                            config.kind == AlignerKind::Try15 ||
                            config.kind == AlignerKind::ExtTsp;
        const bool arch_dependent =
            (guided && objectiveArchDependent(config.objective)) ||
            config.arch == Arch::BtFnt;
        // The identity layout never reads the profile, so neither
        // degradation nor the profile source can change it; collapsing
        // its key avoids duplicate layouts. An estimated profile
        // replaces the weights wholesale, so degradation is moot there
        // too.
        const ProfileSource source = config.kind == AlignerKind::Original
                                         ? ProfileSource::Measured
                                         : config.source;
        const DegradeSpec degrade =
            config.kind == AlignerKind::Original ||
                    source == ProfileSource::Estimated
                ? DegradeSpec::none()
                : config.degrade;
        return LayoutKey{config.kind, config.objective,
                         arch_dependent ? config.arch : Arch::Fallthrough,
                         degrade, source, config.encoding};
    };

    // Deduplicate the layout keys first so each distinct layout is aligned
    // exactly once; the alignments themselves are independent of each
    // other, so they are scheduled across the pool when one is available.
    std::vector<LayoutKey> keys;
    std::vector<ExperimentConfig> key_configs;
    std::map<LayoutKey, std::size_t> key_index;
    for (const auto &config : configs) {
        const LayoutKey key = layout_key(config);
        if (key_index.emplace(key, keys.size()).second) {
            keys.push_back(key);
            key_configs.push_back(config);
        }
    }

    auto estimated_key = [](const ExperimentConfig &config) {
        return config.kind != AlignerKind::Original &&
               config.source == ProfileSource::Estimated;
    };
    // Every profile-free layout aligns against the same static estimate,
    // so it is built once, before the pool, and shared read-only — the
    // same copy-and-estimate alignProgram's Estimated branch performs.
    std::optional<Program> estimated;

    std::vector<std::unique_ptr<ProgramLayout>> layouts(keys.size());
    std::vector<std::unique_ptr<CostModel>> models(keys.size());
    auto align_one = [&](std::size_t i) {
        const ExperimentConfig &config = key_configs[i];
        auto model = std::make_unique<CostModel>(config.arch);
        AlignOptions arch_options = options;
        arch_options.objective = config.objective;
        if (config.arch == Arch::BtFnt)
            arch_options.chainOrder = ChainOrderPolicy::BtFntPrecedence;
        if (estimated_key(config)) {
            arch_options.profileSource = ProfileSource::Measured;
            layouts[i] = std::make_unique<ProgramLayout>(alignProgram(
                *estimated, config.kind, model.get(), arch_options));
        } else if (config.kind != AlignerKind::Original &&
                   !config.degrade.isNone()) {
            // Align on the degraded profile; evaluation below still
            // replays the true recorded trace (degradations only touch
            // edge weights, so the layout maps onto the same CFG).
            Program degraded = program;
            degradeProfile(degraded, prepared.walk, config.degrade);
            layouts[i] = std::make_unique<ProgramLayout>(alignProgram(
                degraded, config.kind, model.get(), arch_options));
        } else {
            layouts[i] = std::make_unique<ProgramLayout>(alignProgram(
                program, config.kind, model.get(), arch_options));
        }
        // Non-default encoding: replay the relaxed byte placement. The
        // fixed-word default leaves the word-model layout untouched —
        // the exact historical pipeline.
        if (config.encoding != EncodingModelKind::FixedWord)
            translateLayoutAddresses(program, *layouts[i],
                                     encodingModel(config.encoding));
        models[i] = std::move(model);
    };
    {
        ScopedPhaseTimer timer(context.times, "align");
        if (std::any_of(key_configs.begin(), key_configs.end(),
                        estimated_key)) {
            estimated.emplace(program);
            estimateProfile(*estimated);
        }
        if (context.pool != nullptr)
            context.pool->parallelFor(keys.size(), align_one);
        else
            for (std::size_t i = 0; i < keys.size(); ++i)
                align_one(i);
    }

    // Evaluate every configuration: the cells sharing a layout are lanes
    // of ONE sweep, and the pool parallelizes across layout groups.
    std::vector<EvalResult> results(configs.size());
    {
        ScopedPhaseTimer timer(context.times, "replay");
        std::vector<std::vector<std::size_t>> members(keys.size());
        for (std::size_t i = 0; i < configs.size(); ++i)
            members[key_index.at(layout_key(configs[i]))].push_back(i);
        auto replay_group = [&](std::size_t k) {
            std::vector<EvalParams> lanes;
            lanes.reserve(members[k].size());
            for (const std::size_t i : members[k])
                lanes.push_back(EvalParams::forArch(configs[i].arch));
            const std::vector<EvalResult> lane_results =
                runBatchReplay(program, *layouts[k], *prepared.batch, lanes);
            for (std::size_t j = 0; j < members[k].size(); ++j)
                results[members[k][j]] = lane_results[j];
        };
        if (context.pool != nullptr)
            context.pool->parallelFor(keys.size(), replay_group);
        else
            for (std::size_t k = 0; k < keys.size(); ++k)
                replay_group(k);
    }

    // The original-layout instruction count anchors every relative CPI.
    std::uint64_t orig_instrs = 0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (configs[i].kind == AlignerKind::Original) {
            orig_instrs = results[i].instrs;
            break;
        }
    }
    if (orig_instrs == 0) {
        // No Original configuration requested: the count is architecture
        // independent, so layout-level accounting over the recorded
        // activation histogram recovers it without replaying the trace.
        ScopedPhaseTimer timer(context.times, "replay");
        orig_instrs =
            batchLayoutInstrs(*prepared.batch, originalLayout(program));
    }
    run.origInstrs = orig_instrs;

    run.cells.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        ExperimentCell cell;
        cell.config = configs[i];
        cell.eval = results[i];
        cell.relCpi = cell.eval.relativeCpi(orig_instrs);
        run.cells.push_back(cell);
    }
    run.buildCellIndex();
    return run;
}

ExperimentRun
runExperiment(const ProgramSpec &spec,
              const std::vector<ExperimentConfig> &configs,
              const AlignOptions &options)
{
    ExperimentRun run = runConfigs(prepareProgram(spec), configs, options);
    run.group = spec.group;
    return run;
}

}  // namespace balign
