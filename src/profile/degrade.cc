#include "profile/degrade.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "cfg/serialize.h"
#include "sim/batch_replay.h"
#include "support/log.h"
#include "support/rng.h"

namespace balign {

const char *
degradeKindName(DegradeKind kind)
{
    switch (kind) {
      case DegradeKind::None: return "none";
      case DegradeKind::Sample: return "sample";
      case DegradeKind::Stale: return "stale";
      case DegradeKind::Perturb: return "perturb";
      case DegradeKind::Merge: return "merge";
      case DegradeKind::Drift: return "drift";
    }
    panic("degradeKindName: bad kind");
}

std::optional<DegradeKind>
parseDegradeKind(std::string_view name)
{
    for (const DegradeKind kind : allDegradeKinds()) {
        if (name == degradeKindName(kind))
            return kind;
    }
    return std::nullopt;
}

const std::vector<DegradeKind> &
allDegradeKinds()
{
    static const std::vector<DegradeKind> kinds = {
        DegradeKind::None,    DegradeKind::Sample, DegradeKind::Stale,
        DegradeKind::Perturb, DegradeKind::Merge,  DegradeKind::Drift,
    };
    return kinds;
}

namespace {

std::string
formatParam(const char *prefix, double value)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s%g", prefix, value);
    return buf;
}

}  // namespace

std::string
DegradeSpec::severityLabel() const
{
    switch (kind) {
      case DegradeKind::None: return "-";
      case DegradeKind::Sample: return "1/" + std::to_string(n);
      case DegradeKind::Stale: return "seed=" + std::to_string(seed);
      case DegradeKind::Perturb: return formatParam("eps=", param);
      case DegradeKind::Merge: return "k=" + std::to_string(n);
      case DegradeKind::Drift: return formatParam("t=", param);
    }
    panic("DegradeSpec::severityLabel: bad kind");
}

bool
DegradeSpec::operator==(const DegradeSpec &other) const
{
    return kind == other.kind && n == other.n && param == other.param &&
           seed == other.seed;
}

bool
DegradeSpec::operator<(const DegradeSpec &other) const
{
    return std::tie(kind, n, param, seed) <
           std::tie(other.kind, other.n, other.param, other.seed);
}

std::string
degradeSpecLabel(const DegradeSpec &spec)
{
    if (spec.kind == DegradeKind::None)
        return "none";
    return std::string(degradeKindName(spec.kind)) + "(" +
           spec.severityLabel() + ")";
}

namespace {

/// Binomial(w, p) via geometric gap skipping: expected O(w * p) draws.
Weight
binomialThin(Weight w, double p, Rng &rng)
{
    if (p >= 1.0 || w == 0)
        return w == 0 ? 0 : w;
    if (p <= 0.0)
        return 0;
    Weight kept = 0;
    std::uint64_t i = rng.nextGeometric(p, w);
    while (i < w) {
        ++kept;
        i += 1 + rng.nextGeometric(p, w);
    }
    return kept;
}

/**
 * Flow-decomposition thinning of one procedure's profile.
 *
 * The recorded weights are decomposed into flow units — simple cycles and
 * simple paths whose start has no remaining inflow and whose end has no
 * remaining outflow — and each unit of weight w is independently thinned
 * to Binomial(w, keep_p). Because a unit adds the same count to every one
 * of its edges, cycles stay balanced at every block and paths only move
 * the imbalances the original profile already had (procedure entries,
 * sinks, truncated-walk stragglers), scaled down. That is exactly the
 * argument for why a prof.flow-clean input yields a prof.flow-clean
 * sample; tests/test_profile_degrade.cc checks it over the whole suite.
 */
class FlowSampler
{
  public:
    FlowSampler(Procedure &proc, double keep_p, Rng &rng)
        : proc_(proc), keepP_(keep_p), rng_(rng),
          residual_(proc.numEdges()), output_(proc.numEdges(), 0),
          stamp_(proc.numBlocks(), 0), pos_(proc.numBlocks(), 0)
    {
        for (std::uint32_t i = 0; i < proc.numEdges(); ++i)
            residual_[i] = proc.edge(i).weight;
    }

    void
    run()
    {
        for (std::uint32_t start = 0; start < proc_.numEdges(); ++start) {
            const Edge &edge = proc_.edge(start);
            // Malformed endpoints never carry walker flow; copy verbatim
            // so lint keeps seeing (and reporting) them unchanged.
            if (edge.src >= proc_.numBlocks() ||
                edge.dst >= proc_.numBlocks()) {
                output_[start] = residual_[start];
                residual_[start] = 0;
                continue;
            }
            while (residual_[start] > 0)
                extractUnitFrom(start);
        }
        for (std::uint32_t i = 0; i < proc_.numEdges(); ++i)
            proc_.edge(i).weight = output_[i];
    }

  private:
    /// Best (max-residual, then lowest-index) out-edge of @p b, or -1.
    std::int64_t
    pickOut(BlockId b) const
    {
        std::int64_t best = -1;
        for (const std::uint32_t index : proc_.outEdges(b)) {
            if (residual_[index] == 0)
                continue;
            const Edge &edge = proc_.edge(index);
            if (edge.dst >= proc_.numBlocks())
                continue;
            if (best < 0 || residual_[index] > residual_[best])
                best = index;
        }
        return best;
    }

    /// Best in-edge of @p b with remaining residual, or -1.
    std::int64_t
    pickIn(BlockId b) const
    {
        std::int64_t best = -1;
        for (const std::uint32_t index : proc_.inEdges(b)) {
            if (residual_[index] == 0)
                continue;
            const Edge &edge = proc_.edge(index);
            if (edge.src >= proc_.numBlocks())
                continue;
            if (best < 0 || residual_[index] > residual_[best])
                best = index;
        }
        return best;
    }

    /// Thins one unit and commits it to the output profile.
    void
    extract(const std::vector<std::uint32_t> &unit)
    {
        Weight w = residual_[unit.front()];
        for (const std::uint32_t e : unit)
            w = std::min(w, residual_[e]);
        const Weight kept = binomialThin(w, keepP_, rng_);
        for (const std::uint32_t e : unit) {
            residual_[e] -= w;
            output_[e] += kept;
        }
    }

    /// Edge at signed path position @p p (see extractUnitFrom).
    std::uint32_t
    edgeAt(std::int32_t p) const
    {
        return p >= 0 ? fwd_[static_cast<std::size_t>(p)]
                      : bwd_[static_cast<std::size_t>(-p - 1)];
    }

    bool
    onPath(BlockId b) const
    {
        return stamp_[b] == epoch_;
    }

    void
    place(BlockId b, std::int32_t p)
    {
        stamp_[b] = epoch_;
        pos_[b] = p;
    }

    /**
     * Grows a simple path through @p start and extracts one unit from it.
     * Blocks are indexed by signed positions: the start edge runs from
     * position 0 to 1; forward extension appends positions 2, 3, ...;
     * backward extension prepends -1, -2, .... The edge leaving position p
     * toward p+1 is edgeAt(p). When an extension step reaches a block
     * already on the path, the edges between its two visits form a simple
     * cycle, which is extracted alone.
     */
    void
    extractUnitFrom(std::uint32_t start)
    {
        ++epoch_;
        fwd_.assign(1, start);
        bwd_.clear();

        const Edge &first = proc_.edge(start);
        std::int32_t lo = 0;  // front block position
        std::int32_t hi = 1;  // back block position
        BlockId front = first.src;
        BlockId back = first.dst;
        place(front, 0);
        if (back == front) {
            extract(fwd_);  // self-loop: a one-edge cycle
            return;
        }
        place(back, 1);

        // Forward: extend from the back until a sink or a cycle.
        while (true) {
            const std::int64_t next = pickOut(back);
            if (next < 0)
                break;
            const BlockId dst = proc_.edge(next).dst;
            if (onPath(dst)) {
                // Cycle: dst's position .. back, plus the closing edge.
                std::vector<std::uint32_t> cycle;
                for (std::int32_t p = pos_[dst]; p < hi; ++p)
                    cycle.push_back(edgeAt(p));
                cycle.push_back(static_cast<std::uint32_t>(next));
                extract(cycle);
                return;
            }
            fwd_.push_back(static_cast<std::uint32_t>(next));
            back = dst;
            place(back, ++hi);
        }

        // Backward: extend from the front until a source or a cycle.
        while (true) {
            const std::int64_t prev = pickIn(front);
            if (prev < 0)
                break;
            const BlockId src = proc_.edge(prev).src;
            if (onPath(src)) {
                // Cycle: the closing edge, then front .. src's position.
                std::vector<std::uint32_t> cycle;
                cycle.push_back(static_cast<std::uint32_t>(prev));
                for (std::int32_t p = lo; p < pos_[src]; ++p)
                    cycle.push_back(edgeAt(p));
                extract(cycle);
                return;
            }
            bwd_.push_back(static_cast<std::uint32_t>(prev));
            front = src;
            place(front, --lo);
        }

        // Open path from a flow source to a flow sink.
        std::vector<std::uint32_t> unit;
        unit.reserve(bwd_.size() + fwd_.size());
        for (auto it = bwd_.rbegin(); it != bwd_.rend(); ++it)
            unit.push_back(*it);
        unit.insert(unit.end(), fwd_.begin(), fwd_.end());
        extract(unit);
    }

    Procedure &proc_;
    double keepP_;
    Rng &rng_;
    std::vector<Weight> residual_;
    std::vector<Weight> output_;
    std::vector<std::uint32_t> stamp_;
    std::vector<std::int32_t> pos_;
    std::uint32_t epoch_ = 0;
    std::vector<std::uint32_t> fwd_;
    std::vector<std::uint32_t> bwd_;
};

/// Derives an independent walker seed from the base walk and a transform
/// seed (plus a per-input index for merge).
std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t seed, std::uint64_t index)
{
    SplitMix64 mix(base ^ (seed * 0x9E3779B97F4A7C15ull) ^
                   (index * 0xBF58476D1CE4E5B9ull));
    return mix.next();
}

}  // namespace

void
sampleProfile(Program &program, std::uint32_t n, std::uint64_t seed)
{
    if (n <= 1)
        return;
    const double keep_p = 1.0 / static_cast<double>(n);
    Rng rng(deriveSeed(0x5a6d7e8f90a1b2c3ull, seed, n));
    for (Procedure &proc : program.procs())
        FlowSampler(proc, keep_p, rng).run();
}

void
staleProfile(Program &program, const WalkOptions &walk, std::uint64_t seed)
{
    WalkOptions alt = walk;
    alt.seed = deriveSeed(walk.seed, seed, 0);
    program.clearWeights();
    profileProgram(program, alt);
}

void
perturbProfile(Program &program, double eps, std::uint64_t seed)
{
    if (eps <= 0.0)
        return;
    const double lo = std::max(0.0, 1.0 - eps);
    const double hi = 1.0 + eps;
    // 2^60 is exact in a double, so the clamped product rounds to at
    // most the ceiling and always fits the cast.
    const double ceiling = static_cast<double>(kMaxProfileWeight);
    Rng rng(deriveSeed(0xc3b2a1908f7e6d5aull, seed, 0));
    for (Procedure &proc : program.procs()) {
        for (Edge &edge : proc.edges()) {
            const double factor = lo + rng.nextDouble() * (hi - lo);
            edge.weight = static_cast<Weight>(std::llround(std::min(
                static_cast<double>(edge.weight) * factor, ceiling)));
        }
    }
}

void
mergeProfiles(Program &program, const WalkOptions &walk,
              std::uint32_t extra_inputs, std::uint64_t seed)
{
    // profileProgram adds onto the weights, so each extra walk's
    // profile sums onto the existing one. No division: integer weights
    // stay flow-conserving and every consumer is scale-invariant.
    for (std::uint32_t i = 0; i < extra_inputs; ++i) {
        WalkOptions alt = walk;
        alt.seed = deriveSeed(walk.seed, seed, i + 1);
        profileProgram(program, alt);
    }
}

void
driftProfile(Program &program, double t)
{
    if (t <= 0.0)
        return;
    t = std::min(t, 1.0);
    // Moves round(t * (w_other - w)) between paired out-edges of the same
    // block: an exact convex interpolation that conserves the block's
    // total outflow for any t.
    auto shift = [t](Edge &a, Edge &b) {
        const auto wa = static_cast<std::int64_t>(a.weight);
        const auto wb = static_cast<std::int64_t>(b.weight);
        const auto delta = static_cast<std::int64_t>(
            std::llround(t * static_cast<double>(wb - wa)));
        a.weight = static_cast<Weight>(wa + delta);
        b.weight = static_cast<Weight>(wb - delta);
    };
    for (Procedure &proc : program.procs()) {
        for (const BasicBlock &block : proc.blocks()) {
            if (block.term == Terminator::CondBranch) {
                const std::int64_t taken = proc.takenEdge(block.id);
                const std::int64_t fall = proc.fallThroughEdge(block.id);
                if (taken < 0 || fall < 0)
                    continue;
                shift(proc.edge(static_cast<std::uint32_t>(taken)),
                      proc.edge(static_cast<std::uint32_t>(fall)));
            } else if (block.term == Terminator::IndirectJump) {
                // Reverse the weight ranking across the sorted targets.
                std::vector<std::uint32_t> indices;
                for (const std::uint32_t index : proc.outEdges(block.id)) {
                    if (proc.edge(index).kind == EdgeKind::Other)
                        indices.push_back(index);
                }
                std::sort(indices.begin(), indices.end(),
                          [&proc](std::uint32_t a, std::uint32_t b) {
                              const Weight wa = proc.edge(a).weight;
                              const Weight wb = proc.edge(b).weight;
                              if (wa != wb)
                                  return wa > wb;
                              return a < b;
                          });
                for (std::size_t i = 0, j = indices.size();
                     j > 1 && i < j - 1; ++i, --j) {
                    shift(proc.edge(indices[i]),
                          proc.edge(indices[j - 1]));
                }
            }
        }
    }
}

void
degradeProfile(Program &program, const WalkOptions &walk,
               const DegradeSpec &spec)
{
    switch (spec.kind) {
      case DegradeKind::None:
        return;
      case DegradeKind::Sample:
        sampleProfile(program, spec.n, spec.seed);
        break;
      case DegradeKind::Stale:
        staleProfile(program, walk, spec.seed);
        break;
      case DegradeKind::Perturb:
        perturbProfile(program, spec.param, spec.seed);
        break;
      case DegradeKind::Merge:
        mergeProfiles(program, walk, spec.n, spec.seed);
        break;
      case DegradeKind::Drift:
        driftProfile(program, spec.param);
        break;
      default:
        panic("degradeProfile: bad kind");
    }
    // After the transform: Stale/Merge re-profile internally, which
    // re-tags Measured — the degraded result must override that.
    program.setProfileProvenance(ProfileProvenance::Degraded);
}

}  // namespace balign
