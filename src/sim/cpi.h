/**
 * @file
 * Experiment driver: generate (or accept) a program, profile it with one
 * seeded walk, align it for a set of (architecture, algorithm) pairs, and
 * evaluate every configuration against the identical event stream — the
 * paper's methodology ("for each architecture, we use the same input to
 * align the program and to measure the improvement").
 *
 * The one profiling walk is walkBatchTrace (sim/batch_replay.h), which
 * builds the batched trace as it walks, and the trace's counts are the
 * profile (applyTraceProfile); no event stream is stored. The
 * RecordedTrace (trace/recorder.h) keeps the walk's identity, which
 * readers of single events re-walk, and the dynamic call graph is read
 * from the trace (traceCallGraph, layout/proc_order.h). Every
 * configuration is a lane of its layout, and ONE pass over the op
 * stream drives the predictors of every lane of every layout in a lane
 * block; the `ctest -L replay` suite pins every cell to an independent
 * OracleEvaluator replay (check/oracle.h). Lanes are independent, so
 * when a ThreadPool is supplied runConfigs deals the layouts into one
 * block for the calling thread plus one per idle pool worker (at most
 * one per layout with dynamic lanes) and runs the blocks' passes across
 * the pool (see sim/runner.h for the suite-level parallel runner).
 * Results are bit-identical regardless of thread count and partition.
 *
 * Layouts are shared where the paper shares them, by layoutClass()
 * (core/align_program.h): Original, Greedy and ExtTsp have one layout
 * off BT/FNT whatever the objective; Cost and TryN are re-run per cost
 * class (costClass(): the PHT architectures price alike, as do the BTBs)
 * with that class's cost model, or share one layout off BT/FNT under an
 * architecture-independent objective (ExtTSP).
 */

#ifndef BALIGN_SIM_CPI_H
#define BALIGN_SIM_CPI_H

#include <map>
#include <memory>
#include <vector>

#include "bpred/evaluator.h"
#include "cfg/cfg_stats.h"
#include "cfg/program.h"
#include "core/align_program.h"
#include "emit/encoding.h"
#include "profile/degrade.h"
#include "support/stats.h"
#include "support/thread_pool.h"
#include "trace/recorder.h"
#include "trace/walker.h"
#include "workload/spec.h"

namespace balign {

struct BatchTrace;

/**
 * Which profile an experiment cell's layout is aligned on. Measured uses
 * whatever edge weights the program carries (the walker's true profile,
 * or a degraded one — degradation is a program transform, not an
 * alignment-time choice). Estimated discards the carried weights and
 * aligns against the static profile synthesized by estimate/estimate.h:
 * profile-free alignment, the `none` endpoint of the robustness axis.
 */
enum class ProfileSource : std::uint8_t {
    Measured,
    Estimated,
};

/// Printable source name ("measured" / "estimated").
const char *profileSourceName(ProfileSource source);

/// A (prediction architecture, alignment algorithm, alignment objective)
/// triple to evaluate, plus an optional profile-degradation axis. The
/// objective defaults to the paper's Table-1 cost and the degradation to
/// None, so two-field aggregate initialization keeps its old meaning.
struct ExperimentConfig
{
    Arch arch;
    AlignerKind kind;
    ObjectiveKind objective = ObjectiveKind::TableCost;

    /// When not None, the layout for this cell is computed from a
    /// degraded copy of the profile (profile/degrade.h) while evaluation
    /// still replays the true recorded trace — the align-on-degraded /
    /// measure-on-true scenario (ROADMAP item 3).
    DegradeSpec degrade = DegradeSpec::none();

    /// Profile source for this cell's layout: Measured consumes the
    /// prepared profile (optionally degraded per `degrade`); Estimated
    /// aligns on the static estimate (estimate/estimate.h) and ignores
    /// `degrade` — the profile-free endpoint of the robustness axis.
    /// Evaluation always replays the true recorded trace.
    ProfileSource source = ProfileSource::Measured;

    /// Encoding model the evaluated addresses come from. FixedWord (the
    /// default) replays the word-model addresses directly — the paper's
    /// fixed 4-byte-instruction machine, byte-identical to the historical
    /// pipeline. Any other model relaxes each distinct layout
    /// (emit/relax.h) and replays a clone whose block/branch/jump
    /// addresses are the final relaxed byte addresses, so
    /// address-indexed predictors (BTBs) see the variable-length
    /// placement. Instruction counters are unaffected — only addresses
    /// change.
    EncodingModelKind encoding = EncodingModelKind::FixedWord;
};

/// One evaluated configuration.
struct ExperimentCell
{
    ExperimentConfig config;
    EvalResult eval;
    double relCpi = 0.0;  ///< relative CPI vs the original layout
};

/// All results for one program.
struct ExperimentRun
{
    std::string name;
    std::string group;
    ProgramStats stats;             ///< Table-2 attributes from the profile
    std::uint64_t origInstrs = 0;   ///< instructions under the original layout
    std::vector<ExperimentCell> cells;

    /// (arch, kind) -> index of the first matching cell. Built once by
    /// runConfigs so cell() is a map lookup (benches call it in loops);
    /// rebuild with buildCellIndex() after mutating `cells` by hand.
    std::map<std::pair<Arch, AlignerKind>, std::size_t> cellIndex;

    /// Rebuilds cellIndex from `cells` (the first matching cell wins).
    void buildCellIndex();

    /// Finds a cell through cellIndex; fatal() when the configuration was
    /// not evaluated (or the index was never built).
    const ExperimentCell &cell(Arch arch, AlignerKind kind) const;
};

/**
 * A profiled program ready for evaluation: the CFG with measured edge
 * weights, the walk configuration that produced the trace, the recorded
 * walk and the batched trace built during it.
 */
struct PreparedProgram
{
    Program program;
    WalkOptions walk;
    ProgramStats stats;
    /// The profiling walk: its options and summary. replay() re-walks
    /// `program` for the readers that need single events.
    std::shared_ptr<const RecordedTrace> trace;
    /// The walk in canonical batched form (sim/batch_replay.h), built
    /// during it by prepareProgram. runConfigs and diffLayout panic
    /// without it, so build PreparedPrograms with prepareProgram.
    std::shared_ptr<const BatchTrace> batch;
};

/// Generates and profiles the program described by @p spec.
PreparedProgram prepareProgram(const ProgramSpec &spec);

/// Profiles an existing program (weights are cleared first).
PreparedProgram prepareProgram(Program program, const WalkOptions &walk,
                               const std::string &name = "");

/// Optional execution context for runConfigs: a pool to spread alignment
/// and lane-block replays across, and a phase-time sink.
struct RunContext
{
    ThreadPool *pool = nullptr;   ///< null = run serially
    PhaseTimes *times = nullptr;  ///< accumulates "align" / "replay" seconds
};

/**
 * Evaluates all configurations against the prepared program's recorded
 * trace: one batched pass per lane block (one block, plus one per idle
 * worker when the context carries a pool). @p prepared must come from
 * prepareProgram.
 */
ExperimentRun runConfigs(const PreparedProgram &prepared,
                         const std::vector<ExperimentConfig> &configs,
                         const AlignOptions &options = {},
                         const RunContext &context = {});

/// Convenience: prepare + run.
ExperimentRun runExperiment(const ProgramSpec &spec,
                            const std::vector<ExperimentConfig> &configs,
                            const AlignOptions &options = {});

}  // namespace balign

#endif  // BALIGN_SIM_CPI_H
