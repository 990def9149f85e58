#include "core/realign.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/align_program.h"
#include "support/log.h"
#include "verify/verify.h"

namespace balign {

double
profileDivergence(const Procedure &old_proc, const Procedure &new_proc)
{
    if (old_proc.numEdges() != new_proc.numEdges())
        panic("profileDivergence(%s): edge count mismatch (%zu vs %zu)",
              new_proc.name().c_str(), old_proc.numEdges(),
              new_proc.numEdges());
    const auto old_total =
        static_cast<double>(old_proc.totalEdgeWeight());
    const auto new_total =
        static_cast<double>(new_proc.totalEdgeWeight());
    if (old_total == 0.0 && new_total == 0.0)
        return 0.0;
    if (old_total == 0.0 || new_total == 0.0)
        return 2.0;
    double l1 = 0.0;
    for (std::uint32_t i = 0; i < old_proc.numEdges(); ++i) {
        const double a =
            static_cast<double>(old_proc.edge(i).weight) / old_total;
        const double b =
            static_cast<double>(new_proc.edge(i).weight) / new_total;
        l1 += std::abs(a - b);
    }
    return l1;
}

ProgramLayout
realignProgram(const Program &old_program, const ProgramLayout &old_layout,
               const Program &new_program, AlignerKind kind,
               const CostModel *model, const AlignOptions &options,
               double threshold, RealignStats *stats)
{
    if (old_program.numProcs() != new_program.numProcs())
        panic("realignProgram: procedure count mismatch (%zu vs %zu)",
              old_program.numProcs(), new_program.numProcs());
    if (old_layout.procs.size() != old_program.numProcs())
        panic("realignProgram: old layout covers %zu of %zu procedures",
              old_layout.procs.size(), old_program.numProcs());

    RealignStats local;
    local.procsTotal = new_program.numProcs();
    std::vector<ProcId> moved;
    for (ProcId id = 0; id < new_program.numProcs(); ++id) {
        const double divergence =
            profileDivergence(old_program.proc(id), new_program.proc(id));
        local.maxDivergence = std::max(local.maxDivergence, divergence);
        if (divergence >= threshold)
            moved.push_back(id);
    }
    local.procsRealigned = moved.size();

    // The moved procedures go through alignProgram's own per-procedure
    // pipeline; the splice below re-bases them with the rest.
    std::vector<ProcLayout> fresh =
        alignProcs(new_program, moved, kind, model, options);

    ProgramLayout layout;
    layout.procs.resize(new_program.numProcs());
    std::size_t next_moved = 0;
    Addr base = 0;
    for (ProcId id = 0; id < new_program.numProcs(); ++id) {
        if (next_moved < moved.size() && moved[next_moved] == id)
            layout.procs[id] = std::move(fresh[next_moved++]);
        else
            layout.procs[id] = old_layout.procs[id];  // verbatim splice
        rebaseProcLayout(layout.procs[id], base);
        base += layout.procs[id].totalInstrs;
    }
    layout.totalInstrs = base;

    // Every splice is discharged through the translation validator, same
    // as a full alignProgram: an incremental layout is never less proven
    // than a full one.
    if (options.verify) {
        const VerifyResult proof = verifyLayout(new_program, layout);
        if (!proof.verified())
            panic("realignProgram: %s spliced layout failed verification: %s",
                  alignerKindName(kind),
                  formatVerifyFailure(proof.failures.front()).c_str());
    }
    if (stats != nullptr)
        *stats = local;
    return layout;
}

}  // namespace balign
