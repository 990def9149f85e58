/**
 * @file
 * Structured CFG fuzzer with automatic shrinking.
 *
 * Each fuzz seed deterministically produces a program — either a random
 * compiler-shaped CFG (wide parameter ranges over the workload generator)
 * or one of the hand-built degenerate shapes (single-block loops, dense
 * indirect jumps, 1-instruction blocks, call chains past the walker's
 * depth cap, ...) — and runs it through one ordered table of gates: lint,
 * verify, realign, estimate and emit (the *GateCheck functions below),
 * then the differential harness (check/differ.h). Every gate enumerates
 * the campaign's ConfigSweep with forEachSweptLayout
 * (core/align_program.h), the enumeration lint, verify and the differ
 * share. The first finding wins; every kind shrinks the same way.
 *
 * When a divergence is found, the shrinker minimizes the repro in the
 * issue's order — drop procedures, drop blocks (truncate-to-return +
 * unreachable-block GC), halve weights (trace budget and block sizes) —
 * while the divergence persists, then serializes it into tests/corpus/
 * with the walk parameters embedded as '#' comments (the serializer
 * ignores comments, so corpus files stay plain loadProgram-compatible).
 */

#ifndef BALIGN_CHECK_FUZZ_H
#define BALIGN_CHECK_FUZZ_H

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/differ.h"
#include "trace/walker.h"
#include "verify/driver.h"

namespace balign {

/// A self-contained reproduction: the program plus the walk that drives it.
struct Repro
{
    Program program;
    WalkOptions walk;
};

/// Number of hand-built degenerate program shapes.
std::size_t numDegenerateKinds();

/// Printable name of degenerate shape @p kind.
const char *degenerateKindName(std::size_t kind);

/**
 * Builds degenerate shape @p kind (< numDegenerateKinds()), lightly
 * perturbed by @p seed (block sizes, biases). Valid by construction.
 */
Program degenerateProgram(std::size_t kind, std::uint64_t seed);

/// Random compiler-shaped program for one fuzz seed (valid by
/// construction; wide parameter ranges over the workload generator).
Program fuzzProgram(std::uint64_t seed);

/// The program a fuzz seed maps to: every few seeds a degenerate shape,
/// otherwise a random program.
Program programForSeed(std::uint64_t seed);

/// The walk driving a fuzz seed.
WalkOptions walkForSeed(std::uint64_t seed, std::uint64_t instr_budget);

/// The fuzzer's matrix: every architecture, every aligner including
/// ExtTsp, every objective.
ConfigSweep fuzzSweep();

/// Fuzzing campaign configuration.
struct FuzzOptions
{
    std::uint64_t seeds = 100;      ///< number of seeds to run
    std::uint64_t firstSeed = 1;    ///< first seed value
    std::uint64_t walkInstrs = 20'000;  ///< per-seed instruction budget
    /// Configurations to sweep.
    ConfigSweep sweep = fuzzSweep();
    /// Directory for shrunk repro files (empty = do not save).
    std::string corpusDir;
    /// Parallelize seeds across this pool (null = serial).
    ThreadPool *pool = nullptr;
    /// Test hook for the verify gate: corrupts each layout between
    /// alignment and verification (see verify/driver.h), proving the gate
    /// catches injected bugs end to end.
    LayoutMutator layoutMutator;
};

/// Campaign outcome.
struct FuzzReport
{
    std::uint64_t programsRun = 0;
    std::uint64_t configsChecked = 0;
    /// First divergence per diverging seed, AFTER shrinking.
    std::vector<Divergence> divergences;
    /// Repro files written (parallel to divergences; empty string when
    /// corpusDir was not set).
    std::vector<std::string> reproPaths;

    /// Findings of @p kind among `divergences`.
    std::uint64_t count(DivergenceKind kind) const;
};

/**
 * The fuzzer's lint pre-gate: lints @p program (already profiled — the
 * prof.* rules read its recorded weights) and every layout of @p sweep,
 * one objective at a time. Returns a DivergenceKind::Lint finding
 * carrying the error diagnostics, or nullopt for a clean bill.
 */
std::optional<Divergence> lintGateCheck(const Program &program,
                                        const ConfigSweep &sweep =
                                            fuzzSweep());

/**
 * The fuzzer's verify pre-gate: proves each layout of @p sweep
 * semantically equivalent to @p program (verify/driver.h). @p mutate,
 * when set, corrupts each layout first. Returns a DivergenceKind::Verify
 * finding carrying the failed proof obligations, or nullopt when every
 * layout verifies.
 */
std::optional<Divergence> verifyGateCheck(const Program &program,
                                          const ConfigSweep &sweep =
                                              fuzzSweep(),
                                          const LayoutMutator &mutate = {});

/*
 * The gates below sweep the Fallthrough architecture only: they check
 * what a pass does with a layout, not which layout an architecture gets.
 */

/**
 * The fuzzer's incremental-realignment gate: perturbs @p program's
 * profile deterministically, then for each layout of @p sweep checks
 * realignProgram's differential contract — the threshold-0 incremental
 * layout is byte-identical to a full alignProgram of the perturbed
 * profile, the threshold-infinity layout byte-identical to the old one,
 * and a mid-threshold splice passes the translation validator. Returns a
 * DivergenceKind::Realign finding, or nullopt when the contract holds.
 * @p walk feeds walk-based degradations.
 */
std::optional<Divergence> realignGateCheck(const Program &program,
                                           const WalkOptions &walk,
                                           const ConfigSweep &sweep =
                                               fuzzSweep());

/**
 * The fuzzer's static-estimator gate: estimates a profile for a copy of
 * @p program, checks the synthesized weights against the prof.* and
 * est.* invariants, then proves each layout of @p sweep aligned on the
 * estimated copy with the translation validator. Returns a
 * DivergenceKind::Estimate finding, or nullopt when the estimator holds
 * up.
 */
std::optional<Divergence> estimateGateCheck(const Program &program,
                                            const ConfigSweep &sweep =
                                                fuzzSweep());

/**
 * The fuzzer's emission gate: relaxes each layout of @p sweep once under
 * every encoding model and checks the emission contract — convergence,
 * the relaxed-layout proof obligations (verify/verify.h), a
 * byte-identical second relaxation, and an ELF object (emit/elf.h) that
 * parses back with text bytes equal to the encoder's — as a
 * DivergenceKind::Emit finding; then decodes that same object with the
 * independent disassembler and discharges the byte-level obligation
 * family (disasm/checkobj.h) against the relaxed layout, as a
 * DivergenceKind::Disasm finding carrying the first failed obligation.
 * Returns nullopt when the backend and the object both hold up.
 */
std::optional<Divergence> emitGateCheck(const Program &program,
                                        const ConfigSweep &sweep =
                                            fuzzSweep());

/// Runs the campaign: seeds -> programs -> differ -> shrink -> corpus.
FuzzReport runFuzz(const FuzzOptions &options);

/**
 * Shrinks @p repro while @p stillFails keeps returning true. The
 * predicate must be deterministic; it is never called on an invalid
 * program. Returns the smallest failing repro found.
 */
Repro shrinkRepro(Repro repro,
                  const std::function<bool(const Repro &)> &stillFails);

/// Writes a repro file: walk parameters as magic comments + the program.
void saveRepro(const Repro &repro, const std::string &path);

/**
 * Loads a repro file. Walk parameters are read from the magic comment
 * (`# balign-fuzz-walk seed=<S> budget=<B>`); files without one (plain
 * serialized programs) get default walk options. Returns nullopt with a
 * message on stderr for unparsable files.
 */
std::optional<Repro> loadRepro(const std::string &path);

}  // namespace balign

#endif  // BALIGN_CHECK_FUZZ_H
