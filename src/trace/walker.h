/**
 * @file
 * Deterministic stochastic CFG walker — the reproduction's stand-in for
 * ATOM-instrumented execution of real binaries.
 *
 * The walker executes the program model: starting at the main procedure's
 * entry block, it executes blocks, descends into calls (with a bounded call
 * stack), and chooses successors at conditional and indirect terminators
 * pseudo-randomly according to the edges' static `bias` fields. The RNG is
 * seeded, so the identical event stream can be regenerated at will; the
 * paper's methodology of using the same input for profiling and for
 * measurement falls out naturally.
 *
 * Termination: the walk runs until `instrBudget` instructions have executed.
 * When the root procedure returns and budget remains, the program restarts
 * from main (modelling a driver loop / multiple inputs), unless
 * `restartOnExit` is false.
 */

#ifndef BALIGN_TRACE_WALKER_H
#define BALIGN_TRACE_WALKER_H

#include <cstdint>
#include <vector>

#include "cfg/program.h"
#include "support/rng.h"
#include "trace/event.h"

namespace balign {

/// Maximum call depth; calls at the cap are skipped entirely.
inline constexpr unsigned kMaxCallDepth = 64;

struct WalkOptions
{
    /// RNG seed; identical seeds yield identical event streams.
    std::uint64_t seed = 1;

    /// Stop once this many instructions have executed.
    std::uint64_t instrBudget = 1'000'000;

    /// Restart from main when the root procedure returns.
    bool restartOnExit = true;
};

/// Summary of one walk.
struct WalkResult
{
    std::uint64_t instrs = 0;    ///< instructions executed
    std::uint64_t blocks = 0;    ///< block activations
    std::uint64_t calls = 0;     ///< calls taken (not skipped)
    std::uint64_t skippedCalls = 0;  ///< calls skipped at kMaxCallDepth
    std::uint64_t runs = 0;      ///< completed root activations
    std::uint64_t events = 0;    ///< events emitted to the sink

    bool operator==(const WalkResult &other) const = default;
};

/**
 * Walks @p program, emitting events to @p sink.
 *
 * Requirements: the program must validate (cfg/validate.h); call sites
 * within a block must be sorted by offset.
 */
WalkResult walk(const Program &program, const WalkOptions &options,
                EventSink &sink);

namespace walker_detail {

inline constexpr std::uint32_t kNone = 0xFFFFFFFFu;

/// One block of the walked program, flattened so that the walk loop reads
/// one row per activation and never touches a Procedure. Rows are indexed
/// program-globally, `blockBase[proc] + block`.
struct FlatBlock
{
    /// CondBranch: bias_taken / (bias_taken + bias_fall), or 0.5 when the
    /// sum is 0 — the walker's Bernoulli parameter.
    double pTaken = 0.5;
    std::uint32_t numInstrs = 0;
    std::uint32_t firstCall = 0;  ///< first call site in FlatProgram::sites
    std::uint32_t numCalls = 0;
    /// [0] the Taken edge, [1] the FallThrough edge, kNone when absent.
    /// IndirectJump: [0] the first target in FlatProgram's target arrays,
    /// [1] the number of targets.
    std::uint32_t succEdge[2] = {kNone, kNone};
    std::uint32_t succDst[2] = {0, 0};  ///< global destination blocks
    std::uint32_t correlated = kNone;   ///< global correlatedWith block
    std::uint32_t patternMask = 0;
    Terminator term = Terminator::FallThrough;
    std::uint8_t patternLength = 0;
    bool correlatedInvert = false;
};

/// The walked program as dense tables, built once at the start of a walk.
struct FlatProgram
{
    explicit FlatProgram(const Program &program);

    std::vector<std::uint32_t> blockBase;  ///< per proc: first global row
    std::vector<std::uint32_t> entry;      ///< per proc: global entry row
    std::vector<FlatBlock> blocks;
    std::vector<CallSite> sites;           ///< every block's call sites
    /// IndirectJump targets: edge index, global destination and the
    /// weight the draw uses (the biases, or all 1.0 when none is > 0).
    std::vector<std::uint32_t> targetEdge;
    std::vector<std::uint32_t> targetDst;
    std::vector<double> targetWeight;
};

struct Frame
{
    ProcId proc;
    std::uint32_t block;  ///< global row
    std::uint32_t callIndex;
    bool entered;
};

}  // namespace walker_detail

/**
 * The walk itself, dispatched statically on @p Sink: walk() is its
 * EventSink instantiation, and a caller holding a `final` sink
 * instantiates it directly so every event call is a direct call. Same
 * requirements and the same event stream as walk().
 */
template <typename Sink>
WalkResult
walkInto(const Program &program, const WalkOptions &options, Sink &sink)
{
    using namespace walker_detail;
    const FlatProgram flat(program);
    WalkResult result;
    Rng rng(options.seed);

    // Per-row walk state: the position in the outcome pattern, and the
    // last outcome (0 = not taken, 1 = taken, 2 = none yet).
    std::vector<std::uint8_t> pattern_pos(flat.blocks.size(), 0);
    std::vector<std::uint8_t> last_outcome(flat.blocks.size(), 2);
    std::vector<Frame> stack;
    stack.reserve(kMaxCallDepth);
    const ProcId main = program.mainProc();
    const Frame root{main, flat.entry[main], 0, false};
    stack.push_back(root);

    while (!stack.empty()) {
        Frame &frame = stack.back();
        const FlatBlock &block = flat.blocks[frame.block];
        const BlockId local = frame.block - flat.blockBase[frame.proc];

        if (!frame.entered) {
            if (result.instrs >= options.instrBudget)
                break;
            sink.onBlock(frame.proc, local);
            result.instrs += block.numInstrs;
            ++result.blocks;
            frame.entered = true;
            frame.callIndex = 0;
        }

        // Fire any remaining call sites, in offset order.
        if (frame.callIndex < block.numCalls) {
            const CallSite &site =
                flat.sites[block.firstCall + frame.callIndex];
            ++frame.callIndex;
            if (stack.size() < kMaxCallDepth) {
                sink.onCall(frame.proc, local, site);
                ++result.calls;
                stack.push_back(
                    Frame{site.callee, flat.entry[site.callee], 0, false});
            } else {
                ++result.skippedCalls;
            }
            continue;
        }

        // Block finished: act on the terminator. A missing successor is a
        // dead end, treated as a procedure exit.
        std::uint32_t edge = kNone;
        std::uint32_t dst = 0;
        switch (block.term) {
          case Terminator::FallThrough:
            edge = block.succEdge[1];
            dst = block.succDst[1];
            break;
          case Terminator::UncondBranch:
            edge = block.succEdge[0];
            dst = block.succDst[0];
            break;
          case Terminator::CondBranch: {
            bool take;
            if (block.correlated != kNone &&
                last_outcome[block.correlated] != 2) {
                take = (last_outcome[block.correlated] != 0) !=
                       block.correlatedInvert;
            } else if (block.patternLength > 0) {
                std::uint8_t &pos = pattern_pos[frame.block];
                take = (block.patternMask >> pos) & 1u;
                pos = static_cast<std::uint8_t>((pos + 1) %
                                                block.patternLength);
            } else {
                take = rng.nextBool(block.pTaken);
            }
            last_outcome[frame.block] = take ? 1 : 0;
            edge = block.succEdge[take ? 0 : 1];
            dst = block.succDst[take ? 0 : 1];
            break;
          }
          case Terminator::IndirectJump: {
            const std::uint32_t first = block.succEdge[0];
            const std::uint32_t count = block.succEdge[1];
            if (count == 0)
                break;
            const std::size_t pick =
                first + rng.nextWeighted(&flat.targetWeight[first], count);
            edge = flat.targetEdge[pick];
            dst = flat.targetDst[pick];
            break;
          }
          case Terminator::Return:
            break;
        }

        if (edge == kNone) {
            stack.pop_back();
            if (stack.empty()) {
                ++result.runs;
                sink.onExit();
                if (options.restartOnExit &&
                    result.instrs < options.instrBudget)
                    stack.push_back(root);
                continue;
            }
            const Frame &caller = stack.back();
            // The call we are returning to is the one just consumed.
            sink.onReturn(caller.proc,
                          caller.block - flat.blockBase[caller.proc],
                          flat.sites[flat.blocks[caller.block].firstCall +
                                     caller.callIndex - 1]);
            ++result.events;
            continue;
        }

        sink.onEdge(frame.proc, edge);
        ++result.events;
        frame.block = dst;
        frame.entered = false;
    }

    // Returns and edges were counted as they fired; each block, call and
    // run emitted exactly one onBlock, onCall or onExit.
    result.events += result.blocks + result.calls + result.runs;
    return result;
}

}  // namespace balign

#endif  // BALIGN_TRACE_WALKER_H
