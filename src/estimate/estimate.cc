/**
 * @file
 * The program-level estimation driver and report rendering.
 *
 * Per procedure: heuristics -> transition probabilities -> Wu-Larus
 * frequencies. Across procedures: expected call frequencies give each
 * procedure an invocation count relative to one run of main. Each
 * procedure strands exactly the trap SCCs' largest-remainder share of
 * its entry count, which is below entries x trap share + one unit per
 * trap entry, so main's entry count is chosen in closed form from that
 * bound. The integer profile is then materialized once per procedure
 * (propagate.cc), with per-block conservation exact; should even one
 * activation strand more than the budget, the empty (trivially
 * conserving) profile is the fallback.
 */

#include "estimate/estimate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "analysis/analysis.h"
#include "support/json.h"
#include "estimate/internal.h"

namespace balign {

double
combineEvidence(double a, double b)
{
    const double joint = a * b;
    const double denom = joint + (1.0 - a) * (1.0 - b);
    if (denom <= 0.0)
        return 0.5;  // contradictory certainties; stay neutral
    return joint / denom;
}

namespace {

/// Passes for the call-graph fixpoints (invocation counts and strand
/// probabilities); matches the walker's call-depth cap.
constexpr unsigned kCallGraphPasses = 64;

/// Invocation counts above this are runaway recursion; clamp.
constexpr double kInvocationCeiling = 1e12;

std::string
prob4(double p)
{
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.4f", p);
    return buffer;
}

std::string
prob6(double p)
{
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.6f", p);
    return buffer;
}

}  // namespace

EstimateReport
estimateProfile(Program &program, const EstimateOptions &options)
{
    using namespace estimate_detail;

    EstimateReport report;
    report.heuristicHits.assign(allEstimateHeuristics().size(), 0);
    const std::size_t np = program.numProcs();
    report.edgeProbs.resize(np);
    report.procs.resize(np);

    std::vector<ProcAnalysis> analyses;
    analyses.reserve(np);
    std::vector<ProcFreqs> freqs(np);
    // callees[p]: (c, expected calls from one invocation of p to c) for
    // every callee c with a positive frequency, sorted by c — the sparse
    // call graph both fixpoints below sum over in callee order.
    std::vector<std::vector<std::pair<ProcId, double>>> callees(np);
    std::vector<double> callFreq(np, 0.0);
    std::vector<ProcId> called;

    for (ProcId p = 0; p < np; ++p) {
        const Procedure &proc = program.proc(p);
        analyses.push_back(ProcAnalysis::of(proc));
        report.edgeProbs[p] = branchProbabilities(
            proc, analyses[p], options, report.branches,
            report.heuristicHits);
        freqs[p] = propagateFrequencies(proc, analyses[p],
                                        report.edgeProbs[p], options);
        report.procs[p].proc = p;
        report.procs[p].irreducibleFallback = freqs[p].irreducibleFallback;
        report.procs[p].tripCappedLoops = freqs[p].tripCappedLoops;

        called.clear();
        for (const BasicBlock &block : proc.blocks()) {
            if (block.id >= freqs[p].block.size())
                continue;
            const double bfreq = freqs[p].block[block.id];
            for (const CallSite &site : block.calls) {
                if (site.callee >= np)
                    continue;
                if (callFreq[site.callee] == 0.0)
                    called.push_back(site.callee);
                callFreq[site.callee] += bfreq;
            }
        }
        std::sort(called.begin(), called.end());
        called.erase(std::unique(called.begin(), called.end()),
                     called.end());
        for (const ProcId c : called) {
            if (callFreq[c] > 0.0)
                callees[p].emplace_back(c, callFreq[c]);
            callFreq[c] = 0.0;
        }
        for (const BasicBlock &block : proc.blocks()) {
            if (block.term == Terminator::CondBranch)
                ++report.conditionals;
        }
    }

    // Strand probability: chance that one invocation's flow reaches an
    // inescapable cycle, here or in a transitive callee.
    std::vector<double> strand(np, 0.0);
    for (unsigned pass = 0; pass < kCallGraphPasses; ++pass) {
        for (std::size_t p = np; p-- > 0;) {
            double s = freqs[p].trapMass;
            for (const auto &[c, calls] : callees[p])
                s += calls * strand[c];
            strand[p] = std::min(s, 1.0);
        }
    }
    for (ProcId p = 0; p < np; ++p)
        report.procs[p].strandProb = strand[p];

    // Invocation counts relative to one run of main (Jacobi fixpoint —
    // recursion converges against the ceiling instead of diverging).
    const ProcId main = program.mainProc();
    std::vector<double> invocations(np, 0.0);
    if (main < np) {
        invocations[main] = 1.0;
        std::vector<double> next(np, 0.0);
        for (unsigned pass = 0; pass < kCallGraphPasses; ++pass) {
            std::fill(next.begin(), next.end(), 0.0);
            next[main] = 1.0;
            for (ProcId p = 0; p < np; ++p) {
                if (invocations[p] <= 0.0)
                    continue;
                for (const auto &[c, calls] : callees[p]) {
                    next[c] = std::min(next[c] + invocations[p] * calls,
                                       kInvocationCeiling);
                }
            }
            invocations.swap(next);
        }
    }

    // Stranding is known before any flow is placed: bound it per unit
    // of main's entry count, plus the rounding slack, and scale main so
    // the bound fits the budget.
    double strand_per_entry = 0.0, strand_slack = 0.0;
    for (ProcId p = 0; p < np; ++p) {
        double total = 0.0, trapped = 0.0;
        std::size_t traps = 0;
        for (const SinkMass &sink : freqs[p].sinks) {
            total += sink.mass;
            if (sink.trap) {
                trapped += sink.mass;
                ++traps;
            }
        }
        if (invocations[p] <= 0.0 || traps == 0)
            continue;
        const double share =
            total > 0.0 ? trapped / total
                        : static_cast<double>(traps) /
                              static_cast<double>(freqs[p].sinks.size());
        strand_per_entry += invocations[p] * share;
        strand_slack += 0.5 * share + static_cast<double>(traps);
    }
    Weight entry_scale = options.entryCount;
    if (strand_per_entry > 0.0) {
        entry_scale = static_cast<Weight>(std::clamp(
            std::floor((static_cast<double>(options.strandBudget) -
                        strand_slack) /
                       strand_per_entry),
            1.0, static_cast<double>(options.entryCount)));
    }

    program.clearWeights();
    const double ceiling = static_cast<double>(kEstimateWeightCeiling);
    Weight total_stranded = 0;
    for (ProcId p = 0; p < np; ++p) {
        const Weight entries =
            p == main ? std::min(entry_scale, kEstimateWeightCeiling)
                      : static_cast<Weight>(std::llround(std::min(
                            invocations[p] * static_cast<double>(entry_scale),
                            ceiling)));
        report.procs[p].entryCount = entries;
        report.procs[p].stranded =
            materializeFlow(program.proc(p), analyses[p],
                            report.edgeProbs[p], freqs[p], entries);
        total_stranded += report.procs[p].stranded;
    }
    report.totalStranded = total_stranded;
    if (total_stranded > options.strandBudget) {
        // Even one activation strands too much (pathological trap
        // nests): fall back to the empty profile, which conserves
        // trivially (prof.degenerate notes it, nothing errors).
        program.clearWeights();
        for (ProcId p = 0; p < np; ++p) {
            report.procs[p].entryCount = 0;
            report.procs[p].stranded = 0;
        }
        report.totalStranded = 0;
    }

    program.setProfileProvenance(ProfileProvenance::Estimated);
    return report;
}

std::string
formatEstimateReport(const EstimateReport &report, const Program &program)
{
    std::ostringstream out;
    out << "estimate: " << program.name() << ": " << report.conditionals
        << " conditional branch(es) across " << program.numProcs()
        << " proc(s), stranded " << report.totalStranded << "\n";
    out << "heuristic hits:\n";
    const auto &heuristics = allEstimateHeuristics();
    for (std::size_t i = 0; i < heuristics.size(); ++i) {
        out << "  " << heuristics[i].name
            << " (p=" << prob4(heuristics[i].takenProb)
            << "): " << report.heuristicHits[i] << "\n";
    }
    for (const ProcEstimate &pe : report.procs) {
        if (pe.proc >= program.numProcs())
            continue;
        out << "  proc " << pe.proc << " '"
            << program.proc(pe.proc).name() << "': entries "
            << pe.entryCount;
        if (pe.irreducibleFallback)
            out << ", irreducible fallback";
        if (pe.tripCappedLoops > 0)
            out << ", trip-capped loops " << pe.tripCappedLoops;
        if (pe.strandProb > 0.0)
            out << ", strand-prob " << prob4(pe.strandProb);
        if (pe.stranded > 0)
            out << ", stranded " << pe.stranded;
        out << "\n";
    }
    for (const BranchEstimate &branch : report.branches) {
        out << "  proc " << branch.proc << " block " << branch.block
            << ": taken " << prob4(branch.takenProb);
        if (branch.votes.empty()) {
            out << " (no heuristic fired)";
        } else {
            out << " [";
            for (std::size_t i = 0; i < branch.votes.size(); ++i) {
                if (i > 0)
                    out << ", ";
                out << branch.votes[i].heuristic << "->"
                    << (branch.votes[i].predictsTaken ? "taken"
                                                      : "fall-through")
                    << " " << prob4(branch.votes[i].takenProb);
            }
            out << "]";
        }
        out << "\n";
    }
    return out.str();
}

void
writeEstimateReportJson(const EstimateReport &report,
                        const Program &program, std::ostream &os)
{
    os << "{\"schema_version\":" << kEstimateSchemaVersion
       << ",\"program\":";
    writeJsonString(program.name(), os);
    os << ",\"conditionals\":" << report.conditionals
       << ",\"total_stranded\":" << report.totalStranded
       << ",\"heuristics\":[";
    const auto &heuristics = allEstimateHeuristics();
    for (std::size_t i = 0; i < heuristics.size(); ++i) {
        if (i > 0)
            os << ',';
        os << "{\"name\":\"" << heuristics[i].name
           << "\",\"taken_prob\":" << prob6(heuristics[i].takenProb)
           << ",\"hits\":" << report.heuristicHits[i] << "}";
    }
    os << "],\"procs\":[";
    for (std::size_t i = 0; i < report.procs.size(); ++i) {
        const ProcEstimate &pe = report.procs[i];
        if (i > 0)
            os << ',';
        os << "{\"proc\":" << pe.proc << ",\"name\":";
        writeJsonString(pe.proc < program.numProcs()
                            ? program.proc(pe.proc).name()
                            : std::string(),
                        os);
        os << ",\"irreducible_fallback\":"
           << (pe.irreducibleFallback ? "true" : "false")
           << ",\"strand_prob\":" << prob6(pe.strandProb)
           << ",\"entry_count\":" << pe.entryCount
           << ",\"stranded\":" << pe.stranded
           << ",\"trip_capped_loops\":" << pe.tripCappedLoops << "}";
    }
    os << "],\"branches\":[";
    for (std::size_t i = 0; i < report.branches.size(); ++i) {
        const BranchEstimate &branch = report.branches[i];
        if (i > 0)
            os << ',';
        os << "{\"proc\":" << branch.proc << ",\"block\":" << branch.block
           << ",\"taken_prob\":" << prob6(branch.takenProb)
           << ",\"votes\":[";
        for (std::size_t v = 0; v < branch.votes.size(); ++v) {
            if (v > 0)
                os << ',';
            os << "{\"heuristic\":\"" << branch.votes[v].heuristic
               << "\",\"predicts_taken\":"
               << (branch.votes[v].predictsTaken ? "true" : "false")
               << ",\"taken_prob\":" << prob6(branch.votes[v].takenProb)
               << "}";
        }
        os << "]}";
    }
    os << "]}";
}

}  // namespace balign
