/**
 * @file
 * Differential harness: oracle vs. the production evaluation pipeline.
 *
 * One recorded event stream is fanned out at once to the production
 * BranchEventAdapter (the layout-to-branch-event mapping the Alpha 21064
 * pipeline model consumes) and to the naive OracleEvaluator, and the two
 * branch-event streams are compared sample by sample; the batched engine
 * the experiments run is then checked against the oracle's totals. Three
 * things can diverge, checked in order:
 *
 *  1. Structural: the materializer's address/size bookkeeping disagrees
 *     with the oracle's independent derivation (crossCheckLayout).
 *  2. Event: the streams differ at some branch execution — wrong type,
 *     site, target, direction, procedure, block or instruction count
 *     before it. The report pins the first diverging event with both
 *     sides' renderings and the surrounding context.
 *  3. Batch: the batched replay engine (sim/batch_replay.h) — the one
 *     production predictor engine — run as a single lane over the same
 *     layout disagrees with the oracle on some EvalResult counter,
 *     penalties included.
 *
 * diffPrepared() mirrors runConfigs() layout construction exactly
 * (per-architecture cost models, the BT/FNT chain-ordering override) so
 * what gets diffed is what the experiments actually evaluate.
 */

#ifndef BALIGN_CHECK_DIFFER_H
#define BALIGN_CHECK_DIFFER_H

#include <optional>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "core/align_program.h"
#include "sim/cpi.h"

namespace balign {

/// Which layer of the comparison disagreed.
enum class DivergenceKind : std::uint8_t {
    Structural,  ///< materializer bookkeeping vs. independent derivation
    Event,       ///< branch-event streams differ
    Lint,        ///< static lint rules (lint/lint.h) rejected the inputs
                 ///< before any trace was replayed
    Verify,      ///< the layout verifier (verify/verify.h) could not prove
                 ///< a layout semantically equivalent to its program
    Batch,       ///< the batched replay engine (sim/batch_replay.h)
                 ///< disagrees with the oracle on some EvalResult counter
    Realign,     ///< incremental realignment (core/realign.h) broke its
                 ///< contract: threshold-0 differs from a full
                 ///< alignProgram, threshold-infinity differs from the old
                 ///< layout, or a spliced layout failed verification
    Estimate,    ///< the static profile estimator (estimate/estimate.h)
                 ///< synthesized a profile that breaks the prof.*/est.*
                 ///< invariants, or a layout aligned on it failed the
                 ///< translation validator
    Emit,        ///< the emission backend (emit/relax.h, emit/elf.h) broke
                 ///< its contract: relaxation failed to converge, the
                 ///< relaxed layout failed verification or re-relaxed to
                 ///< different bytes, or the ELF object did not round-trip
                 ///< through the self-contained reader
    Disasm,      ///< the binary-level translation validator
                 ///< (disasm/checkobj.h) could not prove an emitted
                 ///< object's decoded instructions and control-flow graph
                 ///< equal to the relaxed layout that produced it
};

/// Printable kind name.
const char *divergenceKindName(DivergenceKind kind);

/// One detected oracle/production disagreement.
struct Divergence
{
    DivergenceKind kind = DivergenceKind::Event;
    Arch arch = Arch::Fallthrough;
    AlignerKind aligner = AlignerKind::Original;
    /// Alignment objective that was active when the finding was made
    /// (layouts differ per objective, so a repro needs it).
    ObjectiveKind objective = ObjectiveKind::TableCost;
    std::string program;  ///< program name (may be empty)
    std::string detail;   ///< full context, multi-line
};

/// Multi-line report for one divergence.
std::string formatDivergence(const Divergence &divergence);

/// Configurations a diff sweeps.
struct DiffOptions
{
    /// Architectures to check (empty = all eight).
    std::vector<Arch> archs;
    /// Aligners to check (empty = Original, Greedy, Cost, Try15).
    std::vector<AlignerKind> kinds;
    /// Alignment objectives to sweep; each objective realigns every
    /// configured (architecture, aligner) pair under its own prices
    /// (empty = just align.objective).
    std::vector<ObjectiveKind> objectives;
    /// Alignment options (the BT/FNT chain-order override is applied on
    /// top, exactly as runConfigs does; the objective field is overridden
    /// by the `objectives` sweep).
    AlignOptions align;
    /// Stop after this many divergences (0 = collect all).
    std::size_t maxDivergences = 1;
};

/**
 * Compares two branch-sample streams. Returns an empty string when they
 * are identical, else a multi-line description of the first mismatch
 * (index, both renderings, and up to @p context preceding samples).
 */
std::string compareSamples(const std::vector<BranchSample> &oracle,
                           const std::vector<BranchSample> &production,
                           std::size_t context = 3);

/**
 * Diffs one (prepared program, layout, architecture) triple. The layout
 * must have been materialized for @p prepared.program, and @p prepared
 * must come from prepareProgram (it replays the recorded trace).
 */
std::optional<Divergence> diffLayout(const PreparedProgram &prepared,
                                     const ProgramLayout &layout, Arch arch,
                                     AlignerKind kind);

/// Diffs every configured (architecture, aligner) pair of @p options.
std::vector<Divergence> diffPrepared(const PreparedProgram &prepared,
                                     const DiffOptions &options = {});

/// Convenience: profile @p program with @p walk, then diffPrepared.
std::vector<Divergence> diffProgram(Program program, const WalkOptions &walk,
                                    const DiffOptions &options = {});

}  // namespace balign

#endif  // BALIGN_CHECK_DIFFER_H
