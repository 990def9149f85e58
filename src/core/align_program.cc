#include "core/align_program.h"

#include <algorithm>
#include <utility>

#include "estimate/estimate.h"
#include "layout/materialize.h"
#include "support/log.h"
#include "verify/verify.h"

namespace balign {

namespace {

/**
 * Per-procedure monotone fallback: keeps whichever of the candidate and
 * baseline procedure layouts has the lower objective price, then re-bases
 * the spliced procedures contiguously. Every AlignmentObjective is purely
 * intra-procedural (Table-1 conditional direction compares same-procedure
 * addresses and jump costs are weight constants; ExtTSP reads only
 * intra-procedural distances), so procedure prices are invariant under the
 * re-basing and the splice's total price is the sum of the per-procedure
 * minima — never above the baseline's. DESIGN.md §9 spells out this
 * contract.
 */
ProgramLayout
cheaperPerProc(const Program &program, ProgramLayout candidate,
               ProgramLayout baseline, const AlignmentObjective &objective)
{
    Addr base = 0;
    for (const auto &proc : program.procs()) {
        const ProcId id = proc.id();
        const double candidate_cost =
            objective.layoutCost(proc, candidate.procs[id]);
        const double baseline_cost =
            objective.layoutCost(proc, baseline.procs[id]);
        if (baseline_cost < candidate_cost)
            candidate.procs[id] = std::move(baseline.procs[id]);
        rebaseProcLayout(candidate.procs[id], base);
        base += candidate.procs[id].totalInstrs;
    }
    candidate.totalInstrs = base;
    return candidate;
}

}  // namespace

ProgramLayout
alignProgram(const Program &program, const Aligner &aligner,
             const CostModel *model, const AlignOptions &options)
{
    MaterializeOptions mat;
    if (aligner.wantsCostModelMaterialization()) {
        if (model == nullptr)
            panic("alignProgram: aligner %s needs a cost model",
                  aligner.name().c_str());
        mat.costModel = model;
    }

    const unsigned iterations =
        aligner.wantsCostModelMaterialization()
            ? std::max(1u, options.directionIterations)
            : 1;

    ProgramLayout layout;
    for (unsigned iter = 0; iter < iterations; ++iter) {
        std::vector<std::vector<BlockId>> orders;
        orders.reserve(program.numProcs());
        for (const auto &proc : program.procs()) {
            // Later iterations refine the direction hints with the
            // previous layout's block positions (paper §6: branch
            // directions are unknowable until chains are placed).
            std::vector<std::uint32_t> positions;
            DirOracle oracle;
            if (iter > 0) {
                const ProcLayout &prev = layout.procs[proc.id()];
                positions.resize(proc.numBlocks());
                for (BlockId b = 0; b < proc.numBlocks(); ++b)
                    positions[b] = prev.blocks[b].orderIndex;
                oracle = DirOracle(&positions);
            }
            const ChainSet chains = aligner.alignProc(proc, oracle);
            orders.push_back(
                orderChains(proc, chains, options.chainOrder));
        }
        layout = materializeProgram(program, orders, mat);
    }
    return layout;
}

ProgramLayout
alignProgram(const Program &program, AlignerKind kind, const CostModel *model,
             const AlignOptions &options)
{
    if (kind == AlignerKind::Original)
        return originalLayout(program);
    if (options.profileSource == ProfileSource::Estimated) {
        // Profile-free alignment: discard the carried weights and align
        // against the static estimate. The copy's CFG is identical, so
        // the layout (and its verification) transfers to the original.
        Program estimated = program;
        estimateProfile(estimated);
        AlignOptions inner = options;
        inner.profileSource = ProfileSource::Measured;
        return alignProgram(estimated, kind, model, inner);
    }
    const auto aligner = makeAligner(kind, model, options);
    ProgramLayout layout = alignProgram(program, *aligner, model, options);
    // Objective-guided aligners place chains from incomplete information
    // (direction *hints* for Table-1, merge-time distances for ExtTSP);
    // once the true addresses are fixed a decision can turn out wrong and
    // leave the result marginally pricier than the plain greedy chains.
    // Fall back per procedure so the objective price is never worse than
    // greedy's — the invariant lint's cost.monotone rule enforces.
    const bool can_price =
        !objectiveArchDependent(options.objective) || model != nullptr;
    if (kind != AlignerKind::Greedy && aligner->objectiveGuided() &&
        can_price) {
        const auto objective = makeObjective(options.objective, model);
        // Unproven here: the final verifyLayout below covers every
        // procedure the splice keeps from it.
        AlignOptions greedy_options = options;
        greedy_options.verify = false;
        ProgramLayout greedy = alignProgram(program, AlignerKind::Greedy,
                                            model, greedy_options);
        layout = cheaperPerProc(program, std::move(layout),
                                std::move(greedy), *objective);
    }
    // Post-condition: the layout is a proof-checked semantic equivalent of
    // the source program. Translation validation (verify/verify.h) rather
    // than trusting the aligner/materializer pipeline.
    if (options.verify) {
        const VerifyResult proof = verifyLayout(program, layout);
        if (!proof.verified())
            panic("alignProgram: %s layout failed verification: %s",
                  alignerKindName(kind),
                  formatVerifyFailure(proof.failures.front()).c_str());
    }
    return layout;
}

}  // namespace balign
