#include "sim/cpi.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <tuple>

#include "emit/relax.h"
#include "estimate/estimate.h"
#include "layout/layout_diff.h"
#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "support/log.h"
#include "workload/generator.h"

namespace balign {

const char *
profileSourceName(ProfileSource source)
{
    switch (source) {
      case ProfileSource::Measured: return "measured";
      case ProfileSource::Estimated: return "estimated";
    }
    return "?";
}

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

    // One walk builds the batched trace, and its counts are the profile;
    // the recorded trace keeps only the walk's identity, and the readers
    // that need single events re-walk it.
    prepared.program.clearWeights();
    WalkResult result;
    auto batch = std::make_shared<const BatchTrace>(
        walkBatchTrace(prepared.program, walk, &result));
    prepared.stats = applyTraceProfile(prepared.program, *batch);
    prepared.trace = std::make_shared<const RecordedTrace>(walk, result);
    prepared.batch = std::move(batch);
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

    // Build the layouts: one per layoutClass (core/align_program.h) and
    // profile.
    struct LayoutKey
    {
        LayoutClass layout;
        ProfileSource source;
        EncodingModelKind encoding;
        DegradeSpec degrade;

        bool
        operator<(const LayoutKey &other) const
        {
            return std::tie(layout, source, encoding, degrade) <
                   std::tie(other.layout, other.source, other.encoding,
                            other.degrade);
        }
    };
    auto layout_key = [](const ExperimentConfig &config) {
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
        return LayoutKey{
            layoutClass(config.kind, config.objective, config.arch), source,
            config.encoding, degrade};
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
    // so it is built once, before the pool, and shared read-only. The
    // copy's CFG is the program's, so its layouts are layouts of the
    // program.
    std::optional<Program> estimated;

    std::vector<std::unique_ptr<ProgramLayout>> layouts(keys.size());
    auto align_one = [&](std::size_t i) {
        const ExperimentConfig &config = key_configs[i];
        AlignOptions cell_options = options;
        cell_options.objective = config.objective;
        auto align = [&](const Program &source) {
            return std::make_unique<ProgramLayout>(alignForArch(
                source, config.kind, config.arch, cell_options));
        };
        if (estimated_key(config)) {
            layouts[i] = align(*estimated);
        } else if (config.kind != AlignerKind::Original &&
                   !config.degrade.isNone()) {
            // Align on the degraded profile; evaluation below still
            // replays the true recorded trace (degradations only touch
            // edge weights, so the layout maps onto the same CFG).
            Program degraded = program;
            degradeProfile(degraded, prepared.walk, config.degrade);
            layouts[i] = align(degraded);
        } else {
            layouts[i] = align(program);
        }
        // Non-default encoding: replay the relaxed byte placement. The
        // fixed-word default leaves the word-model layout untouched —
        // the exact historical pipeline.
        if (config.encoding != EncodingModelKind::FixedWord)
            translateLayoutAddresses(program, *layouts[i],
                                     encodingModel(config.encoding));
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

    // Evaluate every configuration. A lane's counters are a function of
    // its layout and architecture alone, so cells whose layouts are
    // identical share one lane per architecture and one set of per-layout
    // tables and return-stack passes (on small programs the aligners
    // often agree; one cost class already shares one key). One pass over
    // the op stream steps every lane of a lane block, and the pool runs
    // the blocks' passes in parallel. Lanes never interact, so any
    // partition gives byte-identical counters.
    std::vector<EvalResult> results(configs.size());
    {
        ScopedPhaseTimer timer(context.times, "replay");
        const BatchTrace &batch = *prepared.batch;
        std::vector<std::size_t> canonical(keys.size());
        for (std::size_t k = 0; k < keys.size(); ++k) {
            canonical[k] = k;
            for (std::size_t j = 0; j < k; ++j) {
                if (canonical[j] == j &&
                    layoutsIdentical(*layouts[j], *layouts[k])) {
                    canonical[k] = j;
                    break;
                }
            }
        }
        std::vector<LayoutLanes> lanes(keys.size());
        for (std::size_t k = 0; k < keys.size(); ++k)
            lanes[k].layout = layouts[k].get();
        // (layout, lane) that evaluates each configuration.
        std::vector<std::pair<std::size_t, std::size_t>> cell_lane;
        cell_lane.reserve(configs.size());
        for (const ExperimentConfig &config : configs) {
            const std::size_t k = canonical[key_index.at(layout_key(config))];
            std::vector<EvalParams> &own = lanes[k].lanes;
            std::size_t j = 0;
            while (j < own.size() && own[j].arch != config.arch)
                ++j;
            if (j == own.size())
                own.push_back(EvalParams::forArch(config.arch));
            cell_lane.emplace_back(k, j);
        }

        // Lane blocks: one for this thread and one per idle pool worker,
        // but at most one per layout with dynamic lanes. Every extra
        // block re-reads the op stream, so under runSuite, whose
        // per-program tasks keep the pool busy, a program replays in one
        // pass until its siblings finish. Whole layouts are dealt
        // heaviest first onto the least-loaded block; a layout's work is
        // the ops its lanes step (every op for a BTB lane, every
        // conditional for a PHT-family lane, none for a static lane).
        std::vector<std::uint64_t> work(keys.size(), 0);
        std::size_t dynamic_layouts = 0;
        for (std::size_t k = 0; k < keys.size(); ++k) {
            for (const EvalParams &params : lanes[k].lanes)
                work[k] += isBtb(params.arch)   ? batch.ops.size()
                           : isPht(params.arch) ? batch.condExec
                                                : 0;
            dynamic_layouts += work[k] != 0 ? 1 : 0;
        }
        const std::size_t threads =
            context.pool != nullptr ? 1 + context.pool->idleThreads() : 1;
        const std::size_t blocks =
            std::max<std::size_t>(1, std::min(threads, dynamic_layouts));
        std::vector<std::size_t> order(keys.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t x, std::size_t y) {
                             return work[x] > work[y];
                         });
        std::vector<std::vector<std::size_t>> block_layouts(blocks);
        std::vector<std::uint64_t> load(blocks, 0);
        for (const std::size_t k : order) {
            if (lanes[k].lanes.empty())
                continue;
            const std::size_t b = static_cast<std::size_t>(
                std::min_element(load.begin(), load.end()) - load.begin());
            load[b] += work[k];
            block_layouts[b].push_back(k);
        }

        std::vector<std::vector<EvalResult>> lane_results(keys.size());
        auto replay_block = [&](std::size_t b) {
            std::vector<LayoutLanes> block;
            for (const std::size_t k : block_layouts[b])
                block.push_back(lanes[k]);
            std::vector<std::vector<EvalResult>> block_results =
                runBatchReplay(program, block, batch);
            for (std::size_t p = 0; p < block_layouts[b].size(); ++p)
                lane_results[block_layouts[b][p]] =
                    std::move(block_results[p]);
        };
        if (context.pool != nullptr)
            context.pool->parallelFor(blocks, replay_block);
        else
            replay_block(0);
        for (std::size_t i = 0; i < configs.size(); ++i)
            results[i] = lane_results[cell_lane[i].first][cell_lane[i].second];
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
