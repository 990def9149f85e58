/**
 * @file
 * Procedure ordering (extension).
 *
 * The paper restricts itself to reordering blocks within procedures; it
 * cites Pettis & Hansen, whose "procedure positioning" additionally places
 * procedures that call each other frequently close together to reduce
 * instruction-cache conflicts. This module implements that classic greedy
 * algorithm over the dynamic call graph as an optional extension, and the
 * materializer overload below lays procedures out in the chosen order.
 * The call graph is read from the profiling walk's batched trace
 * (traceCallGraph), so ordering needs no walk of its own.
 */

#ifndef BALIGN_LAYOUT_PROC_ORDER_H
#define BALIGN_LAYOUT_PROC_ORDER_H

#include <map>
#include <utility>
#include <vector>

#include "cfg/program.h"
#include "layout/materialize.h"

namespace balign {

struct BatchTrace;

/// A weighted call-graph edge set: (caller, callee) -> dynamic count.
using CallGraph = std::map<std::pair<ProcId, ProcId>, Weight>;

/**
 * The dynamic call graph of the walk @p trace holds (sim/batch_replay.h):
 * every call the walk made, counted by caller and callee procedure. A
 * call pushes its call site, whose row names the calling block and the
 * callee; the caller is the procedure that block belongs to. Pairs that
 * were never called are absent.
 */
CallGraph traceCallGraph(const BatchTrace &trace);

/**
 * Pettis–Hansen procedure positioning: call-graph edges are visited in
 * decreasing weight order and their endpoint groups are concatenated,
 * keeping the hot pair as close as the existing groups allow (the better
 * of the four concatenation orientations is chosen by the distance of the
 * pair in the combined list). The group containing main comes first;
 * remaining groups follow in decreasing total weight.
 *
 * @return a permutation of all procedure ids.
 */
std::vector<ProcId> orderProcsByCallGraph(const Program &program,
                                          const CallGraph &calls);

/**
 * Materializes a program with an explicit procedure placement order (the
 * paper's experiments always use id order; this overload serves the
 * procedure-ordering extension).
 */
ProgramLayout materializeProgramOrdered(
    const Program &program, const std::vector<std::vector<BlockId>> &orders,
    const std::vector<ProcId> &proc_order,
    const CostModel *costModel = nullptr);

}  // namespace balign

#endif  // BALIGN_LAYOUT_PROC_ORDER_H
