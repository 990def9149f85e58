#include "core/align_program.h"

#include <numeric>
#include <utility>

#include "bpred/arch.h"
#include "core/greedy.h"
#include "layout/materialize.h"
#include "support/log.h"
#include "verify/verify.h"

namespace balign {

namespace {

/// Whether @p a and @p b link every block to the same successor.
bool
sameLinks(const ChainSet &a, const ChainSet &b)
{
    for (BlockId block = 0; block < a.numBlocks(); ++block) {
        if (a.next(block) != b.next(block))
            return false;
    }
    return true;
}

}  // namespace

std::vector<ProcLayout>
alignProcs(const Program &program, const std::vector<ProcId> &ids,
           AlignerKind kind, const CostModel *model,
           const AlignOptions &options)
{
    // Original has no aligner: the identity order, materialized classically.
    const auto aligner = makeAligner(kind, model, options);
    const CostModel *mat = nullptr;
    if (aligner != nullptr && aligner->wantsCostModelMaterialization()) {
        if (model == nullptr)
            panic("alignProgram: aligner %s needs a cost model",
                  aligner->name().c_str());
        mat = model;
    }

    // Objective-guided aligners place chains from incomplete information
    // (direction *hints* for Table-1, merge-time distances for ExtTSP);
    // once the true addresses are fixed a decision can turn out wrong and
    // leave the result marginally pricier than the plain greedy chains.
    // Fall back per procedure so the objective price is never worse than
    // greedy's — the invariant lint's cost.monotone rule enforces. Every
    // objective prices intra-procedurally, so the choice does not depend
    // on where the procedure lands.
    std::unique_ptr<AlignmentObjective> objective;
    if (aligner != nullptr && aligner->objectiveGuided() &&
        (!objectiveArchDependent(options.objective) || model != nullptr))
        objective = makeObjective(options.objective, model);
    const GreedyAligner greedy;

    std::vector<ProcLayout> layouts;
    layouts.reserve(ids.size());
    Addr base = 0;
    for (const ProcId id : ids) {
        const Procedure &proc = program.proc(id);
        std::vector<BlockId> order;
        ChainSet chains(0);
        // Sorted once: the aligner and the greedy fallback both walk it.
        std::vector<std::uint32_t> by_weight;
        if (aligner == nullptr) {
            order.resize(proc.numBlocks());
            std::iota(order.begin(), order.end(), BlockId{0});
        } else {
            by_weight = alignableEdgesByWeight(proc);
            chains = aligner->alignProc(proc, DirOracle(), by_weight);
            order = orderChains(proc, chains, options.chainOrder);
        }
        ProcLayout layout = materializeProc(proc, std::move(order), base, mat);
        if (objective != nullptr) {
            const ChainSet greedy_chains =
                greedy.alignProc(proc, DirOracle(), by_weight);
            // Greedy's own chains, materialized the same classic way, give
            // this very layout: nothing to compare.
            if (mat != nullptr || !sameLinks(chains, greedy_chains)) {
                ProcLayout fallback = materializeProc(
                    proc, orderChains(proc, greedy_chains, options.chainOrder),
                    base);
                if (objective->layoutCost(proc, fallback) <
                    objective->layoutCost(proc, layout))
                    layout = std::move(fallback);
            }
        }
        base += layout.totalInstrs;
        layouts.push_back(std::move(layout));
    }
    return layouts;
}

ProgramLayout
alignProgram(const Program &program, AlignerKind kind, const CostModel *model,
             const AlignOptions &options)
{
    std::vector<ProcId> ids(program.numProcs());
    std::iota(ids.begin(), ids.end(), ProcId{0});
    ProgramLayout layout;
    layout.procs = alignProcs(program, ids, kind, model, options);
    for (const ProcLayout &proc : layout.procs)
        layout.totalInstrs += proc.totalInstrs;
    // Post-condition: the layout is a proof-checked semantic equivalent of
    // the source program. Translation validation (verify/verify.h) rather
    // than trusting the aligner/materializer pipeline. The identity layout
    // is the source program itself.
    if (options.verify && kind != AlignerKind::Original) {
        const VerifyResult proof = verifyLayout(program, layout);
        if (!proof.verified())
            panic("alignProgram: %s layout failed verification: %s",
                  alignerKindName(kind),
                  formatVerifyFailure(proof.failures.front()).c_str());
    }
    return layout;
}

AlignOptions
archAlignOptions(Arch arch, AlignOptions options)
{
    // Under BT/FNT a branch's prediction is its direction, so chains are
    // concatenated in the Pettis–Hansen precedence order (paper §6.1).
    if (arch == Arch::BtFnt)
        options.chainOrder = ChainOrderPolicy::BtFntPrecedence;
    return options;
}

ProgramLayout
alignForArch(const Program &program, AlignerKind kind, Arch arch,
             const AlignOptions &options)
{
    const CostModel model(arch);
    return alignProgram(program, kind, &model,
                        archAlignOptions(arch, options));
}

const std::vector<Arch> &
ConfigSweep::sweptArchs() const
{
    return archs.empty() ? allArchs() : archs;
}

const std::vector<AlignerKind> &
ConfigSweep::sweptKinds() const
{
    return kinds.empty() ? allAlignerKinds() : kinds;
}

std::vector<ObjectiveKind>
ConfigSweep::sweptObjectives() const
{
    return objectives.empty() ? std::vector<ObjectiveKind>{align.objective}
                              : objectives;
}

bool
SweepConfig::serves(Arch target) const
{
    return archFolded ? target != Arch::BtFnt : target == arch;
}

const char *
SweepConfig::archContext() const
{
    return archFolded ? "" : archName(arch);
}

bool
forEachSweptLayout(const Program &program, const ConfigSweep &sweep,
                   const SweepVisitor &visit)
{
    const std::vector<AlignerKind> &kinds = sweep.sweptKinds();
    for (const ObjectiveKind objective : sweep.sweptObjectives()) {
        const bool fold = !objectiveArchDependent(objective);
        bool folded_done = false;
        for (const Arch arch : sweep.sweptArchs()) {
            SweepConfig config;
            config.objective = objective;
            config.arch = arch;
            config.archFolded = fold && arch != Arch::BtFnt;
            if (config.archFolded && std::exchange(folded_done, true))
                continue;  // aligned once already, for an earlier arch
            config.align = sweep.align;
            config.align.objective = objective;
            config.align.verify = false;
            config.align = archAlignOptions(arch, config.align);
            for (const AlignerKind kind : kinds) {
                config.kind = kind;
                ProgramLayout layout =
                    alignForArch(program, kind, arch, config.align);
                if (visit(config, layout))
                    return true;
            }
        }
    }
    return false;
}

}  // namespace balign
