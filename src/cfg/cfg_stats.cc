#include "cfg/cfg_stats.h"

#include <vector>

#include "support/stats.h"

namespace balign {

double
ProgramStats::pctBreaks() const
{
    return pct(static_cast<double>(totalBreaks()),
               static_cast<double>(instrsTraced));
}

double
ProgramStats::pctTaken() const
{
    return pct(static_cast<double>(takenCondBranches),
               static_cast<double>(condBranches));
}

double
ProgramStats::pctCondOfBreaks() const
{
    return pct(static_cast<double>(condBranches),
               static_cast<double>(totalBreaks()));
}

double
ProgramStats::pctIndirectOfBreaks() const
{
    return pct(static_cast<double>(indirectJumps),
               static_cast<double>(totalBreaks()));
}

double
ProgramStats::pctUncondOfBreaks() const
{
    return pct(static_cast<double>(uncondBranches),
               static_cast<double>(totalBreaks()));
}

double
ProgramStats::pctCallOfBreaks() const
{
    return pct(static_cast<double>(calls),
               static_cast<double>(totalBreaks()));
}

double
ProgramStats::pctReturnOfBreaks() const
{
    return pct(static_cast<double>(returns),
               static_cast<double>(totalBreaks()));
}

void
fillStaticStats(const Program &program, ProgramStats &stats)
{
    std::vector<std::uint64_t> site_counts;
    std::size_t static_sites = 0;
    for (const auto &proc : program.procs()) {
        for (const auto &block : proc.blocks()) {
            if (block.term != Terminator::CondBranch)
                continue;
            ++static_sites;
            Weight executed = 0;
            for (auto index : proc.outEdges(block.id))
                executed += proc.edge(index).weight;
            site_counts.push_back(executed);
        }
    }
    stats.staticCondSites = static_sites;
    stats.q50 = coverageCount(site_counts, 0.50);
    stats.q90 = coverageCount(site_counts, 0.90);
    stats.q99 = coverageCount(site_counts, 0.99);
    stats.q100 = coverageCount(site_counts, 1.00);
}

}  // namespace balign
