#include "layout/proc_order.h"

#include <algorithm>
#include <numeric>

#include "sim/batch_replay.h"
#include "support/log.h"

namespace balign {

CallGraph
traceCallGraph(const BatchTrace &trace)
{
    // Every call pushes its call site on the return-stack sub-stream.
    std::vector<Weight> site_calls(trace.callSites.size(), 0);
    for (const std::uint32_t word : trace.rasOps) {
        if ((word & 3) == 0)
            ++site_calls[word >> 2];
    }
    // Call sites come in proc and block order, so the calling procedure
    // only moves forward: the last one whose first block is at or before
    // the site's block.
    CallGraph calls;
    ProcId proc = 0;
    for (std::size_t k = 0; k < site_calls.size(); ++k) {
        if (site_calls[k] == 0)
            continue;
        const BatchTrace::CallSiteRow &site = trace.callSites[k];
        while (proc + 1 < trace.blockBase.size() &&
               trace.blockBase[proc + 1] <= site.block)
            ++proc;
        calls[{proc, site.callee}] += site_calls[k];
    }
    return calls;
}

namespace {

/// Distance (in list positions) between two procedures in a group list.
std::size_t
pairDistance(const std::vector<ProcId> &group, ProcId a, ProcId b)
{
    std::size_t pos_a = group.size(), pos_b = group.size();
    for (std::size_t i = 0; i < group.size(); ++i) {
        if (group[i] == a)
            pos_a = i;
        if (group[i] == b)
            pos_b = i;
    }
    return pos_a > pos_b ? pos_a - pos_b : pos_b - pos_a;
}

}  // namespace

std::vector<ProcId>
orderProcsByCallGraph(const Program &program, const CallGraph &calls)
{
    const std::size_t n = program.numProcs();

    // Each procedure starts in its own group.
    std::vector<std::vector<ProcId>> groups(n);
    std::vector<std::size_t> group_of(n);
    std::vector<Weight> group_weight(n, 0);
    for (ProcId p = 0; p < n; ++p) {
        groups[p] = {p};
        group_of[p] = p;
    }

    // Visit call edges heaviest first.
    struct EdgeRec
    {
        ProcId caller, callee;
        Weight weight;
    };
    std::vector<EdgeRec> edges;
    edges.reserve(calls.size());
    for (const auto &[pair, weight] : calls) {
        if (pair.first != pair.second && weight > 0)
            edges.push_back(EdgeRec{pair.first, pair.second, weight});
    }
    std::stable_sort(edges.begin(), edges.end(),
                     [](const EdgeRec &a, const EdgeRec &b) {
                         return a.weight > b.weight;
                     });

    for (const auto &edge : edges) {
        const std::size_t ga = group_of[edge.caller];
        const std::size_t gb = group_of[edge.callee];
        if (ga == gb)
            continue;
        group_weight[ga] += edge.weight;

        // Choose the concatenation orientation that puts the hot pair
        // closest together: forward/reversed first group x plain/reversed
        // second group.
        const std::vector<ProcId> &a = groups[ga];
        const std::vector<ProcId> &b = groups[gb];
        std::vector<ProcId> best;
        std::size_t best_distance = ~static_cast<std::size_t>(0);
        for (int flip_a = 0; flip_a < 2; ++flip_a) {
            for (int flip_b = 0; flip_b < 2; ++flip_b) {
                std::vector<ProcId> candidate = a;
                if (flip_a)
                    std::reverse(candidate.begin(), candidate.end());
                std::vector<ProcId> tail = b;
                if (flip_b)
                    std::reverse(tail.begin(), tail.end());
                candidate.insert(candidate.end(), tail.begin(),
                                 tail.end());
                const std::size_t distance =
                    pairDistance(candidate, edge.caller, edge.callee);
                if (distance < best_distance) {
                    best_distance = distance;
                    best = std::move(candidate);
                }
            }
        }
        groups[ga] = std::move(best);
        group_weight[ga] += group_weight[gb];
        for (ProcId p : groups[gb])
            group_of[p] = ga;
        groups[gb].clear();
    }

    // Emit: main's group first, the rest heaviest-first (ties by the
    // smallest member id for determinism).
    std::vector<std::size_t> group_ids;
    for (std::size_t g = 0; g < n; ++g) {
        if (!groups[g].empty())
            group_ids.push_back(g);
    }
    const std::size_t main_group = group_of[program.mainProc()];
    std::stable_sort(group_ids.begin(), group_ids.end(),
                     [&](std::size_t x, std::size_t y) {
                         if (x == main_group)
                             return y != main_group;
                         if (y == main_group)
                             return false;
                         if (group_weight[x] != group_weight[y])
                             return group_weight[x] > group_weight[y];
                         return groups[x].front() < groups[y].front();
                     });

    std::vector<ProcId> order;
    order.reserve(n);
    for (std::size_t g : group_ids)
        for (ProcId p : groups[g])
            order.push_back(p);
    return order;
}

ProgramLayout
materializeProgramOrdered(const Program &program,
                          const std::vector<std::vector<BlockId>> &orders,
                          const std::vector<ProcId> &proc_order,
                          const CostModel *costModel)
{
    if (orders.size() != program.numProcs() ||
        proc_order.size() != program.numProcs())
        panic("materializeProgramOrdered: size mismatch");
    {
        std::vector<bool> seen(program.numProcs(), false);
        for (ProcId p : proc_order) {
            if (p >= program.numProcs() || seen[p])
                panic("materializeProgramOrdered: bad procedure order");
            seen[p] = true;
        }
    }

    ProgramLayout layout;
    layout.procs.resize(program.numProcs());
    Addr base = 0;
    for (ProcId p : proc_order) {
        layout.procs[p] =
            materializeProc(program.proc(p), orders[p], base, costModel);
        base += layout.procs[p].totalInstrs;
    }
    layout.totalInstrs = base;
    return layout;
}

}  // namespace balign
