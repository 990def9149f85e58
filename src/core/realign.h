/**
 * @file
 * Incremental realignment: when a program's profile moves, re-lay-out only
 * the procedures whose profile actually changed, and splice the fresh
 * procedure layouts into the existing program layout.
 *
 * The moved procedures run through alignProcs, the per-procedure
 * pipeline alignProgram itself runs (core/align_program.h). Procedure
 * layouts are position-independent modulo a uniform address shift, so
 * re-basing the realigned subset and the kept procedures contiguously
 * reproduces, byte for byte, what a full alignProgram would have produced
 * for the realigned procedures — and every splice is still discharged
 * through the translation validator (verify/verify.h).
 */

#ifndef BALIGN_CORE_REALIGN_H
#define BALIGN_CORE_REALIGN_H

#include <cstddef>
#include <limits>

#include "cfg/program.h"
#include "core/aligner.h"
#include "layout/layout_result.h"

namespace balign {

/**
 * L1 distance between two procedures' normalized edge-weight
 * distributions, in [0, 2]. Zero-total profiles count as distance 0 to
 * each other and 2 to any profile with weight (maximally diverged: one
 * side has no information at all). The procedures must be structurally
 * identical (same edge list); only the weights may differ.
 */
double profileDivergence(const Procedure &old_proc,
                         const Procedure &new_proc);

/// What realignProgram did, for cost accounting and curves.
struct RealignStats
{
    std::size_t procsTotal = 0;      ///< procedures examined
    std::size_t procsRealigned = 0;  ///< procedures re-laid-out
    double maxDivergence = 0.0;      ///< largest per-procedure divergence
};

/// Threshold that keeps every procedure (nothing ever diverges this far).
inline constexpr double kNeverRealign =
    std::numeric_limits<double>::infinity();

/**
 * Re-lays-out the procedures of @p new_program whose profile diverged
 * from @p old_program by at least @p threshold (profileDivergence), and
 * splices the new procedure layouts into @p old_layout, re-basing all
 * procedures contiguously in id order.
 *
 * The two programs must be structurally identical — same procedures,
 * blocks, and edges — differing only in profile weights (the degradation
 * transforms in profile/degrade.h guarantee this). @p old_layout must be
 * a layout of @p old_program with procedures in contiguous id order (any
 * alignProgram result qualifies).
 *
 * Threshold semantics: a procedure is realigned iff its divergence is
 * >= threshold. Hence threshold 0 realigns everything and is byte-
 * identical to alignProgram(new_program, kind, model, options), and
 * kNeverRealign keeps every old procedure layout verbatim (re-based).
 * When options.verify is set the spliced result is translation-validated
 * against @p new_program before being returned.
 */
ProgramLayout realignProgram(const Program &old_program,
                             const ProgramLayout &old_layout,
                             const Program &new_program, AlignerKind kind,
                             const CostModel *model,
                             const AlignOptions &options, double threshold,
                             RealignStats *stats = nullptr);

}  // namespace balign

#endif  // BALIGN_CORE_REALIGN_H
