/**
 * @file
 * Program-level alignment driver: runs an alignment algorithm over every
 * procedure (the paper aligns each procedure independently; no procedure
 * splitting or reordering), orders the chains, and materializes the final
 * binary layout.
 */

#ifndef BALIGN_CORE_ALIGN_PROGRAM_H
#define BALIGN_CORE_ALIGN_PROGRAM_H

#include <vector>

#include "cfg/program.h"
#include "core/aligner.h"
#include "layout/layout_result.h"

namespace balign {

/**
 * Aligns @p program for the architecture described by @p model.
 *
 * @param kind which algorithm (Original returns the identity layout)
 * @param model architecture cost model (unused by Original/Greedy)
 * @param options algorithm and chain-ordering options
 */
ProgramLayout alignProgram(const Program &program, AlignerKind kind,
                           const CostModel *model,
                           const AlignOptions &options = {});

/**
 * @p options as the paper aligns for @p arch (§6.1): BT/FNT replaces
 * options.chainOrder with the Pettis–Hansen precedence ordering, every
 * other architecture keeps it. The one statement of that rule.
 */
AlignOptions archAlignOptions(Arch arch, AlignOptions options);

/**
 * Aligns @p program for @p arch: alignProgram under CostModel(arch) with
 * archAlignOptions(arch, options). Every experiment cell, tool and check
 * that lays a program out for an architecture calls this, so they all
 * agree on what that layout is.
 */
ProgramLayout alignForArch(const Program &program, AlignerKind kind,
                           Arch arch, const AlignOptions &options = {});

/**
 * The per-procedure pipeline behind alignProgram and realignProgram. For
 * each procedure of @p ids, in that order: the aligner's chains,
 * orderChains, materializeProc; then, for an objective-guided aligner
 * whose objective can be priced, the Greedy layout instead wherever the
 * objective prices it strictly cheaper (DESIGN.md §9.4). The procedures
 * are laid out back to back from address 0. Nothing is verified here.
 */
std::vector<ProcLayout> alignProcs(const Program &program,
                                   const std::vector<ProcId> &ids,
                                   AlignerKind kind, const CostModel *model,
                                   const AlignOptions &options);

}  // namespace balign

#endif  // BALIGN_CORE_ALIGN_PROGRAM_H
