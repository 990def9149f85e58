/**
 * @file
 * Objective-layer tests (label: objective).
 *
 * The centerpiece is a behaviour-preservation golden: the layouts the
 * refactored objective-based pipeline produces for every benchmark-suite
 * program under the default Table-1 objective are hashed and compared
 * against hashes captured from the pre-refactor tree (one combined hash
 * per (program, aligner) across all eight architectures, BT/FNT with its
 * chain-order override). Any pricing or plumbing change that alters even
 * one block address, realization flag, or inserted jump flips a hash.
 *
 * Try15Suite.MatchesPinnedDigest pins the TryN search on its own: one
 * digest per (suite program, paper architecture) of the Try15 layout under
 * the Table-1 objective, plus one architecture each under the size-aware
 * and ExtTSP objectives, compared with tests/corpus/try15/suite-digests.txt
 * (regenerate with BALIGN_REGEN_TRY15_GOLDEN=1 after an intentional
 * change). A faster search must not move a single block.
 *
 * ExtTspSuite.MatchesPinnedDigest and ExtTspLargeShapes.MatchesPinnedDigest
 * do the same for the ExtTSP merge loop: one digest per suite program, and
 * one per hand-built ladder, switch hub and loop nest of 1k-4k blocks, over
 * the aligner's own chains and the layout under the ExtTSP objective.
 *
 * Try15Reference checks the same property from the other side: a
 * test-only copy of the unpruned group search (every consistent subset,
 * no bound) must return the identical ChainSet as Try15Aligner on fuzzed
 * procedures for group sizes 1-20 under every objective, including
 * programs whose equal edge weights make many subsets tie.
 *
 * ObjectiveFloor checks the one property the pruned search assumes: no
 * block of the suite or the corpus ever prices below its blockCostFloor,
 * under any objective, successor, predecessor or direction hint.
 *
 * The rest covers the interface itself: kind/name round-trips,
 * makeObjective contracts, ExtTSP scoring identities, the ExtTSP
 * aligner's determinism, and its fallthrough-dominance guarantee.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cfg/serialize.h"
#include "check/differ.h"
#include "check/fuzz.h"
#include "core/align_program.h"
#include "core/exttsp_align.h"
#include "core/greedy.h"
#include "core/try15.h"
#include "objective/exttsp.h"
#include "objective/objective.h"
#include "objective/size_aware.h"
#include "objective/table_cost.h"
#include "sim/batch_replay.h"
#include "support/rng.h"
#include "trace/walker.h"
#include "workload/generator.h"
#include "workload/shapes.h"
#include "workload/suite.h"

namespace balign {
namespace {

std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xFF;
        hash *= 1099511628211ull;
    }
    return hash;
}

std::uint64_t
hashLayout(const ProgramLayout &layout)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (const ProcLayout &proc : layout.procs) {
        hash = fnv1a(hash, proc.base);
        hash = fnv1a(hash, proc.totalInstrs);
        hash = fnv1a(hash, proc.jumpsInserted);
        hash = fnv1a(hash, proc.jumpsRemoved);
        hash = fnv1a(hash, proc.sensesInverted);
        for (BlockId id : proc.order)
            hash = fnv1a(hash, id);
        for (const BlockLayout &block : proc.blocks) {
            hash = fnv1a(hash, block.addr);
            hash = fnv1a(hash, block.finalInstrs);
            hash = fnv1a(hash, static_cast<std::uint64_t>(block.cond));
            hash = fnv1a(hash, block.jumpInserted ? 1 : 2);
            hash = fnv1a(hash, block.jumpRemoved ? 1 : 2);
            hash = fnv1a(hash, block.branchAddr);
            hash = fnv1a(hash, block.jumpAddr);
        }
    }
    return hash;
}

/// Suite program with its profile attached (the goldens were captured with
/// traceInstrs pinned to 50'000 so the test is budget-setting-proof).
Program
profiledProgram(ProgramSpec spec, std::uint64_t trace_instrs = 50'000)
{
    spec.traceInstrs = trace_instrs;
    Program program = generateProgram(spec);
    program.clearWeights();
    WalkOptions walk_options;
    walk_options.seed = traceSeed(spec);
    walk_options.instrBudget = spec.traceInstrs;
    profileProgram(program, walk_options);
    return program;
}

struct GoldenRow
{
    const char *program;
    const char *aligner;
    std::uint64_t hash;
};

// Captured from the pre-refactor tree (commit 3cd64d5) with the dumper
// described in the file comment. 24 programs x 4 aligners. The cost and
// try15 rows were re-captured when DirOracle learned to resolve
// same-chain directions from the live ChainSet (definitive evidence the
// id-based fallback got wrong on rotated loops); original and greedy
// never consult the oracle and still match the pre-refactor seed.
const GoldenRow kGoldenRows[] = {
    {"alvinn", "original", 0xd73849b8910e9365ull},
    {"alvinn", "greedy", 0xd73849b8910e9365ull},
    {"alvinn", "cost", 0x983cc47ff278a25aull},
    {"alvinn", "try15", 0xd217f2203047b32aull},
    {"doduc", "original", 0x88787fefc51ac355ull},
    {"doduc", "greedy", 0x75c49446b68a7fb4ull},
    {"doduc", "cost", 0xc302d1ec89d54bd3ull},
    {"doduc", "try15", 0x943a8899bc4c8f1cull},
    {"ear", "original", 0x38cf138ff3b5bb75ull},
    {"ear", "greedy", 0x3bb640bc541731bcull},
    {"ear", "cost", 0xed6718d8f4bac298ull},
    {"ear", "try15", 0xc921717c3c24ccc1ull},
    {"fpppp", "original", 0xb884ff7a277d0485ull},
    {"fpppp", "greedy", 0x19c12b1aa29282e5ull},
    {"fpppp", "cost", 0x82fe5d2a01497838ull},
    {"fpppp", "try15", 0x31bd9b6db44bbe47ull},
    {"hydro2d", "original", 0xb5db12af29ba7f45ull},
    {"hydro2d", "greedy", 0xe48844201cf2f2ecull},
    {"hydro2d", "cost", 0xd4267a9b1648950dull},
    {"hydro2d", "try15", 0xfb30c717831dba3aull},
    {"mdljsp2", "original", 0x2324fb165fd5ae15ull},
    {"mdljsp2", "greedy", 0xb5da9314492051a5ull},
    {"mdljsp2", "cost", 0x854775c98b3f058full},
    {"mdljsp2", "try15", 0xb2a2956927756990ull},
    {"nasa7", "original", 0xd96dc5b2ecffa015ull},
    {"nasa7", "greedy", 0xacea69f472a81fdeull},
    {"nasa7", "cost", 0xf6274a6f71848a52ull},
    {"nasa7", "try15", 0xe6f0f6a55c37290eull},
    {"ora", "original", 0xdaa7a8ef2e6770d5ull},
    {"ora", "greedy", 0x3ed37333af7440a1ull},
    {"ora", "cost", 0xac7be2b5ab816f2cull},
    {"ora", "try15", 0x952abd8adaa32cd3ull},
    {"spice", "original", 0xf107b1dd1244efd5ull},
    {"spice", "greedy", 0x777cd4df6bd1fc90ull},
    {"spice", "cost", 0xfe9438b927e6b41full},
    {"spice", "try15", 0xeff91ef91150a4ccull},
    {"su2cor", "original", 0x22c14511686338e5ull},
    {"su2cor", "greedy", 0x3559bc450cbbb216ull},
    {"su2cor", "cost", 0xb771390211c2795full},
    {"su2cor", "try15", 0xac7ab2836a6daeceull},
    {"swm256", "original", 0x35fce9334e29fee5ull},
    {"swm256", "greedy", 0x34ccac0d3402d136ull},
    {"swm256", "cost", 0x980361db1e7a41faull},
    {"swm256", "try15", 0xc73eb1974faccb07ull},
    {"tomcatv", "original", 0xa8e32e71a87a2965ull},
    {"tomcatv", "greedy", 0xa8e32e71a87a2965ull},
    {"tomcatv", "cost", 0xf7411bec4c5e8dc2ull},
    {"tomcatv", "try15", 0x81479889d8e68db9ull},
    {"wave5", "original", 0xfac80cdf26557d75ull},
    {"wave5", "greedy", 0xbc08b13e1dd26f65ull},
    {"wave5", "cost", 0xe2d5a3059d736f73ull},
    {"wave5", "try15", 0x53a4466802e5c69eull},
    {"compress", "original", 0x6872f2fc7fce37a5ull},
    {"compress", "greedy", 0x3d098326a407371aull},
    {"compress", "cost", 0x9c8e3296917607f3ull},
    {"compress", "try15", 0xd1d219db20d25e8bull},
    {"eqntott", "original", 0xfb2631d5ce43a265ull},
    {"eqntott", "greedy", 0x823e121217f26ae1ull},
    {"eqntott", "cost", 0xa484de10a77dca18ull},
    {"eqntott", "try15", 0xdeaef7515113740cull},
    {"espresso", "original", 0x3ff0fa05bef4f555ull},
    {"espresso", "greedy", 0xcb5f698ceb3d33fcull},
    {"espresso", "cost", 0x9e0e2d89544ad964ull},
    {"espresso", "try15", 0x7167a189e43029e7ull},
    {"gcc", "original", 0x3deefd2f2484b315ull},
    {"gcc", "greedy", 0x54b07515c346c27dull},
    {"gcc", "cost", 0x0b13af0e17ac76c3ull},
    {"gcc", "try15", 0x7ab2afa60a219a17ull},
    {"li", "original", 0xb54ecefb31b7cf65ull},
    {"li", "greedy", 0x6df81cc3fdb88072ull},
    {"li", "cost", 0xb1cedeeb205e3c44ull},
    {"li", "try15", 0xeb4b1bb7f13feb08ull},
    {"sc", "original", 0x850e729722b0b5c5ull},
    {"sc", "greedy", 0x918b52fbf8fdf4a1ull},
    {"sc", "cost", 0xd67932c6a204adc7ull},
    {"sc", "try15", 0xc1bf96b3e22ce46full},
    {"cfront", "original", 0x6bbc0072a65242c5ull},
    {"cfront", "greedy", 0x3a59b504bce295d4ull},
    {"cfront", "cost", 0x54ef6ae4c5106e42ull},
    {"cfront", "try15", 0x499f137234a73b19ull},
    {"db++", "original", 0x2f9c3791595a6975ull},
    {"db++", "greedy", 0x8cf41b3ff04262a1ull},
    {"db++", "cost", 0x7f3b2ab0eae001f0ull},
    {"db++", "try15", 0xbbe8a2f569bb7295ull},
    {"groff", "original", 0x7d0ac20bf546e0c5ull},
    {"groff", "greedy", 0x8326b338d6e0eab4ull},
    {"groff", "cost", 0xdffcb21d172a7c12ull},
    {"groff", "try15", 0x3f150d6215359ef5ull},
    {"idl", "original", 0x5530503f02cb2b25ull},
    {"idl", "greedy", 0x7f9158fb58fcb25eull},
    {"idl", "cost", 0x4acdc732c9de0feeull},
    {"idl", "try15", 0xcb593ae85fa6213aull},
    {"tex", "original", 0x4b6fd11e598f95a5ull},
    {"tex", "greedy", 0xc759960a710254daull},
    {"tex", "cost", 0x9977432c06c5c19cull},
    {"tex", "try15", 0x0601fd4f60ccb4dbull},
};

AlignerKind
kindFromName(const std::string &name)
{
    for (const AlignerKind kind :
         {AlignerKind::Original, AlignerKind::Greedy, AlignerKind::Cost,
          AlignerKind::Try15, AlignerKind::ExtTsp}) {
        if (name == alignerKindName(kind))
            return kind;
    }
    ADD_FAILURE() << "unknown aligner name " << name;
    return AlignerKind::Original;
}

std::uint64_t
combinedHash(const Program &program, AlignerKind kind)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (const Arch arch : allArchs()) {
        const CostModel model(arch);
        AlignOptions options;
        if (arch == Arch::BtFnt)
            options.chainOrder = ChainOrderPolicy::BtFntPrecedence;
        const ProgramLayout layout =
            alignProgram(program, kind, &model, options);
        hash = fnv1a(hash, hashLayout(layout));
    }
    return hash;
}

TEST(ObjectiveGolden, TableCostLayoutsMatchPreRefactorSeed)
{
    std::size_t checked = 0;
    for (const ProgramSpec &spec : benchmarkSuite()) {
        const Program program = profiledProgram(spec);
        for (const GoldenRow &row : kGoldenRows) {
            if (spec.name != row.program)
                continue;
            EXPECT_EQ(combinedHash(program, kindFromName(row.aligner)),
                      row.hash)
                << spec.name << " / " << row.aligner;
            ++checked;
        }
    }
    EXPECT_EQ(checked, std::size(kGoldenRows));
}

/// The seven architectures of the paper's tables (PHT-local is this
/// repository's extension).
const Arch kPaperArchs[] = {Arch::Fallthrough, Arch::BtFnt,
                            Arch::Likely,      Arch::PhtDirect,
                            Arch::PhtCorrelated, Arch::BtbSmall,
                            Arch::BtbLarge};

/// Trace budget of the Try15 digest programs: large enough that most
/// procedures fill whole 15-edge groups.
constexpr std::uint64_t kTry15DigestInstrs = 400'000;

/// Hex digest of the Try15 layout of @p program on @p arch under
/// @p objective (BT/FNT with its chain-order override).
std::string
try15Digest(const Program &program, Arch arch, ObjectiveKind objective)
{
    const CostModel model(arch);
    AlignOptions options;
    options.objective = objective;
    if (arch == Arch::BtFnt)
        options.chainOrder = ChainOrderPolicy::BtFntPrecedence;
    const ProgramLayout layout =
        alignProgram(program, AlignerKind::Try15, &model, options);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hashLayout(layout)));
    return hex;
}

TEST(Try15Suite, MatchesPinnedDigest)
{
    std::ostringstream actual;
    actual << "# FNV-1a 64 of the Try15 layout (order, realizations, "
              "instruction counts, addresses) per program, arch, "
              "objective.\n";
    for (const ProgramSpec &spec : benchmarkSuite()) {
        const Program program = profiledProgram(spec, kTry15DigestInstrs);
        for (const Arch arch : kPaperArchs) {
            actual << spec.name << ' ' << archName(arch) << " table-cost "
                   << try15Digest(program, arch, ObjectiveKind::TableCost)
                   << '\n';
        }
        actual << spec.name << ' ' << archName(Arch::BtFnt)
               << " size-aware "
               << try15Digest(program, Arch::BtFnt, ObjectiveKind::SizeAware)
               << '\n';
        actual << spec.name << ' ' << archName(Arch::PhtCorrelated)
               << " exttsp "
               << try15Digest(program, Arch::PhtCorrelated,
                              ObjectiveKind::ExtTsp)
               << '\n';
    }

    const std::string golden_path =
        std::string(BALIGN_CORPUS_DIR) + "/try15/suite-digests.txt";
    if (std::getenv("BALIGN_REGEN_TRY15_GOLDEN") != nullptr) {
        std::ofstream(golden_path) << actual.str();
        return;
    }
    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good())
        << "missing golden " << golden_path
        << " (regenerate with BALIGN_REGEN_TRY15_GOLDEN=1)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(actual.str(), golden.str())
        << "Try15 layouts drifted from the pinned digests";
}

/// Trace budget of the ExtTSP digest programs.
constexpr std::uint64_t kExtTspDigestInstrs = 400'000;

/// FNV-1a over the ExtTSP aligner's own chains for every procedure of
/// @p program (before the driver's per-procedure fallback can replace
/// them) and over the program layout under the ExtTSP objective.
std::uint64_t
extTspDigest(const Program &program)
{
    std::uint64_t hash = 14695981039346656037ull;
    const ExtTspAligner aligner;
    for (const Procedure &proc : program.procs()) {
        const ChainSet chains = aligner.alignProc(proc);
        for (BlockId b = 0; b < proc.numBlocks(); ++b)
            hash = fnv1a(hash, chains.next(b));
    }
    AlignOptions options;
    options.objective = ObjectiveKind::ExtTsp;
    return fnv1a(hash, hashLayout(alignProgram(program, AlignerKind::ExtTsp,
                                               nullptr, options)));
}

struct DigestRow
{
    const char *name;
    std::uint64_t hash;
};

// Captured before the ExtTSP merge loop moved from a full rescan per merge
// to a gain heap; a faster merge loop must not move a single block.
const DigestRow kExtTspSuiteDigests[] = {
    {"alvinn", 0x4339060ead907886ull},
    {"doduc", 0x7a300d3f33d89e47ull},
    {"ear", 0x153029b6b06eca93ull},
    {"fpppp", 0x137eea6a04979106ull},
    {"hydro2d", 0xa7913266701bfd4aull},
    {"mdljsp2", 0xc790282f825dffb4ull},
    {"nasa7", 0x310d11e90d74845full},
    {"ora", 0xe1eba22828213eb3ull},
    {"spice", 0x0efbd02ec98bda4dull},
    {"su2cor", 0x44f1cb265925d036ull},
    {"swm256", 0xd5dbf46df583c30cull},
    {"tomcatv", 0xd01f218cbeaf54ceull},
    {"wave5", 0x241083b3e781e500ull},
    {"compress", 0xfe83fccb9d25ceb2ull},
    {"eqntott", 0xc55222e9e831a93aull},
    {"espresso", 0xad3b486d9b89ae4dull},
    {"gcc", 0x92bf31a049ea2a0eull},
    {"li", 0x3381de727a83f9afull},
    {"sc", 0xd86670e2df6f56cfull},
    {"cfront", 0x186099630c99ed16ull},
    {"db++", 0x55fdd3b5f2650c52ull},
    {"groff", 0x7890f2eb9b4ee7d1ull},
    {"idl", 0x0abd4ac506bae0deull},
    {"tex", 0x08b5434615bfb740ull},
};

TEST(ExtTspSuite, MatchesPinnedDigest)
{
    std::size_t checked = 0;
    for (const ProgramSpec &spec : benchmarkSuite()) {
        const Program program = profiledProgram(spec, kExtTspDigestInstrs);
        const std::uint64_t hash = extTspDigest(program);
        bool found = false;
        for (const DigestRow &row : kExtTspSuiteDigests) {
            if (spec.name != row.name)
                continue;
            found = true;
            ++checked;
            EXPECT_EQ(hash, row.hash)
                << spec.name << ": 0x" << std::hex << hash << "ull";
        }
        EXPECT_TRUE(found) << "no pinned digest for " << spec.name << ": 0x"
                           << std::hex << hash << "ull";
    }
    EXPECT_EQ(checked, std::size(kExtTspSuiteDigests));
}

struct ShapeDigestRow
{
    LargeShape shape;
    std::size_t blocks;
    std::uint64_t seed;
    std::uint64_t hash;
};

// Large single procedures with near-tie weights, so that both of the merge
// loop's tie-breaks (gain, then weight rank) and its sibling rule decide
// many merges. Captured with the suite digests above.
const ShapeDigestRow kExtTspShapeDigests[] = {
    {LargeShape::Ladder, 1000, 1, 0x7c376f5f644924e4ull},
    {LargeShape::Ladder, 4000, 2, 0x5eba5170ba85f240ull},
    {LargeShape::SwitchHub, 1000, 3, 0x613f715df961ff57ull},
    {LargeShape::SwitchHub, 4000, 4, 0xf9d47910b911d220ull},
    {LargeShape::LoopNest, 1000, 5, 0xbf0e54ed9dcf23bdull},
    {LargeShape::LoopNest, 4000, 6, 0x835ba3448d1997d7ull},
};

TEST(ExtTspLargeShapes, MatchesPinnedDigest)
{
    for (const ShapeDigestRow &row : kExtTspShapeDigests) {
        const Program program =
            largeShapeProgram(row.shape, row.blocks, row.seed);
        const std::uint64_t hash = extTspDigest(program);
        EXPECT_EQ(hash, row.hash)
            << largeShapeName(row.shape) << ' ' << row.blocks << ": 0x"
            << std::hex << hash << "ull";
    }
}

/**
 * Test-only copy of the TryN search as it stood before branch-and-bound:
 * a plain include-first DFS over every consistent subset of the group,
 * per-block costs in a std::map, strict `<` on the leaf cost. Kept here
 * (never in src/) as the reference the pruned search must agree with.
 */
namespace reference {

struct GroupEdge
{
    BlockId src;
    BlockId dst;
};

class GroupSearch
{
  public:
    GroupSearch(const Procedure &proc, const AlignmentObjective &objective,
                ChainSet &chains, const std::vector<GroupEdge> &group,
                const DirOracle &oracle)
        : proc_(proc),
          objective_(objective),
          chains_(chains),
          group_(group),
          oracle_(oracle)
    {
        for (const auto &edge : group_) {
            for (BlockId block : {edge.src, edge.dst}) {
                if (cur_.count(block) == 0)
                    cur_[block] = costOf(block);
            }
        }
        double base = 0.0;
        for (const auto &[block, cost] : cur_)
            base += cost;
        dfs(0, base, 0);
    }

    std::uint32_t bestMask() const { return bestMask_; }

  private:
    double
    costOf(BlockId block) const
    {
        return objective_.blockCost(proc_, block, chains_.next(block),
                                    oracle_, chains_.prev(block));
    }

    void
    dfs(std::size_t i, double cost, std::uint32_t mask)
    {
        if (i == group_.size()) {
            if (cost < bestCost_) {
                bestCost_ = cost;
                bestMask_ = mask;
            }
            return;
        }
        const GroupEdge &edge = group_[i];
        if (chains_.link(edge.src, edge.dst)) {
            const double old_src = cur_[edge.src];
            const double old_dst = cur_[edge.dst];
            const double new_src = costOf(edge.src);
            const double new_dst = costOf(edge.dst);
            cur_[edge.src] = new_src;
            cur_[edge.dst] = new_dst;
            dfs(i + 1, cost + (new_src - old_src) + (new_dst - old_dst),
                mask | (1u << i));
            cur_[edge.src] = old_src;
            cur_[edge.dst] = old_dst;
            chains_.unlink(edge.src, edge.dst);
        }
        dfs(i + 1, cost, mask);
    }

    const Procedure &proc_;
    const AlignmentObjective &objective_;
    ChainSet &chains_;
    const std::vector<GroupEdge> &group_;
    const DirOracle &oracle_;
    std::map<BlockId, double> cur_;
    double bestCost_ = std::numeric_limits<double>::infinity();
    std::uint32_t bestMask_ = 0;
};

ChainSet
alignProc(const Procedure &proc, const AlignmentObjective &objective,
          const AlignOptions &options, const DirOracle &base_oracle)
{
    ChainSet chains(proc.numBlocks(), proc.entry());
    const DirOracle oracle = base_oracle.withChains(&chains);

    std::vector<std::uint32_t> ordered = alignableEdgesByWeight(proc);
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t index : ordered) {
        // Paper §4: only edges executed more than once are searched.
        if (proc.edge(index).weight >= 2)
            candidates.push_back(index);
    }

    const std::size_t group_size = std::max<std::size_t>(
        1, std::min<std::size_t>(options.groupSize, 20));
    std::size_t cursor = 0;
    while (cursor < candidates.size()) {
        std::vector<GroupEdge> group;
        while (cursor < candidates.size() && group.size() < group_size) {
            const Edge &edge = proc.edge(candidates[cursor]);
            ++cursor;
            if (!chains.canLink(edge.src, edge.dst))
                continue;
            group.push_back(GroupEdge{edge.src, edge.dst});
        }
        if (group.empty())
            break;
        GroupSearch search(proc, objective, chains, group, oracle);
        const std::uint32_t mask = search.bestMask();
        for (std::size_t i = 0; i < group.size(); ++i) {
            if ((mask & (1u << i)) != 0)
                chains.link(group[i].src, group[i].dst);
        }
    }

    for (std::uint32_t index : ordered) {
        const Edge &edge = proc.edge(index);
        if (!chains.canLink(edge.src, edge.dst))
            continue;
        const double unlinked = objective.blockCost(
            proc, edge.src, chains.next(edge.src), oracle,
            chains.prev(edge.src));
        const double linked = objective.blockCost(
            proc, edge.src, edge.dst, oracle, chains.prev(edge.src));
        if (linked <= unlinked)
            chains.link(edge.src, edge.dst);
    }
    return chains;
}

}  // namespace reference

/// Fuzzed program for the reference comparison. Odd seeds keep the walk's
/// profile; even seeds overwrite every weight with one of three small
/// values so that many subsets of a group price exactly the same.
Program
referenceProgram(std::uint64_t seed)
{
    Program program = fuzzProgram(seed);
    program.clearWeights();
    profileProgram(program, walkForSeed(seed, 20'000));
    if (seed % 2 == 0) {
        Rng rng(seed);
        for (auto &proc : program.procs()) {
            for (Edge &edge : proc.edges())
                edge.weight = 2 + 2 * rng.nextBounded(3);
        }
    }
    return program;
}

/// True when @p a and @p b link every block to the same successor.
bool
sameChains(const ChainSet &a, const ChainSet &b)
{
    if (a.numBlocks() != b.numBlocks())
        return false;
    for (BlockId block = 0; block < a.numBlocks(); ++block) {
        if (a.next(block) != b.next(block) || a.prev(block) != b.prev(block))
            return false;
    }
    return true;
}

TEST(Try15Reference, PrunedSearchMatchesExhaustiveSearch)
{
    std::size_t procs_checked = 0;
    for (std::size_t group_size = 1; group_size <= 20; ++group_size) {
        // Exhaustive search is 2^N per group, so the largest groups get
        // fewer programs.
        const std::uint64_t programs = group_size <= 14 ? 12 : 4;
        for (std::uint64_t s = 0; s < programs; ++s) {
            const std::uint64_t seed = 31 * group_size + s;
            const Program program = referenceProgram(seed);
            const Arch arch = allArchs()[seed % allArchs().size()];
            const CostModel model(arch);
            std::vector<std::uint32_t> reversed;
            for (const ObjectiveKind kind : allObjectiveKinds()) {
                AlignOptions options;
                options.objective = kind;
                options.groupSize = group_size;
                const Try15Aligner aligner(makeObjective(kind, &model),
                                           options);
                for (const auto &proc : program.procs()) {
                    // Alternate the id-based direction fallback with
                    // reversed positions so both hint orders are priced.
                    reversed.resize(proc.numBlocks());
                    for (BlockId b = 0; b < proc.numBlocks(); ++b)
                        reversed[b] = proc.numBlocks() - 1 - b;
                    const DirOracle oracle = (seed + proc.id()) % 2 == 0
                                                 ? DirOracle()
                                                 : DirOracle(&reversed);
                    const ChainSet actual = aligner.alignProc(proc, oracle);
                    const ChainSet expected = reference::alignProc(
                        proc, aligner.objective(), options, oracle);
                    EXPECT_TRUE(sameChains(actual, expected))
                        << "seed " << seed << " proc " << proc.id()
                        << " group " << group_size << " objective "
                        << objectiveKindName(kind) << " arch "
                        << archName(arch);
                    ++procs_checked;
                }
            }
        }
    }
    EXPECT_GT(procs_checked, 500u);
}

/// The suite programs followed by every tests/corpus/*.balign program.
std::vector<Program>
suiteAndCorpusPrograms()
{
    std::vector<Program> programs;
    for (const ProgramSpec &spec : benchmarkSuite())
        programs.push_back(profiledProgram(spec));
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(BALIGN_CORPUS_DIR)) {
        if (entry.path().extension() == ".balign")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    for (const std::string &file : files) {
        ParseResult parsed = loadProgram(file);
        if (!parsed.ok()) {
            ADD_FAILURE() << file << ": " << parsed.error;
            continue;
        }
        programs.push_back(std::move(*parsed.program));
    }
    return programs;
}

TEST(ObjectiveFloor, BlockCostNeverBelowFloor)
{
    std::vector<std::unique_ptr<AlignmentObjective>> objectives;
    std::vector<std::unique_ptr<CostModel>> models;
    for (const Arch arch : allArchs()) {
        models.push_back(std::make_unique<CostModel>(arch));
        objectives.push_back(
            makeObjective(ObjectiveKind::TableCost, models.back().get()));
        objectives.push_back(
            makeObjective(ObjectiveKind::SizeAware, models.back().get()));
    }
    objectives.push_back(makeObjective(ObjectiveKind::ExtTsp, nullptr));

    std::size_t checks = 0;
    std::size_t violations = 0;
    for (const Program &program : suiteAndCorpusPrograms()) {
        for (const auto &proc : program.procs()) {
            std::vector<std::vector<BlockId>> preds(proc.numBlocks());
            std::vector<std::vector<BlockId>> succs(proc.numBlocks());
            for (const Edge &edge : proc.edges()) {
                preds[edge.dst].push_back(edge.src);
                succs[edge.src].push_back(edge.dst);
            }
            // The block sits at position 1; each of its first two
            // successors is placed before (0) or after (2) it, which
            // drives every forward/backward hint pair.
            std::vector<std::uint32_t> positions(proc.numBlocks(), 1);
            const DirOracle oracle(&positions);
            for (BlockId id = 0; id < proc.numBlocks(); ++id) {
                std::vector<BlockId> nexts = {kNoBlock};
                nexts.insert(nexts.end(), succs[id].begin(), succs[id].end());
                std::vector<BlockId> prevs = {kNoBlock};
                prevs.insert(prevs.end(), preds[id].begin(), preds[id].end());
                const std::size_t hinted =
                    std::min<std::size_t>(2, succs[id].size());
                for (unsigned hints = 0; hints < (1u << hinted); ++hints) {
                    for (std::size_t k = 0; k < hinted; ++k)
                        positions[succs[id][k]] = (hints >> k) & 1 ? 2 : 0;
                    positions[id] = 1;
                    for (const auto &objective : objectives) {
                        const double floor =
                            objective->blockCostFloor(proc, id);
                        for (const BlockId next : nexts) {
                            for (const BlockId prev : prevs) {
                                const double cost = objective->blockCost(
                                    proc, id, next, oracle, prev);
                                ++checks;
                                if (cost >= floor)
                                    continue;
                                if (++violations <= 5) {
                                    ADD_FAILURE()
                                        << objective->name() << " proc "
                                        << proc.id() << " block " << id
                                        << " next " << next << " prev "
                                        << prev << ": cost " << cost
                                        << " < floor " << floor;
                                }
                            }
                        }
                    }
                    for (std::size_t k = 0; k < hinted; ++k)
                        positions[succs[id][k]] = 1;
                }
            }
        }
    }
    EXPECT_EQ(violations, 0u);
    EXPECT_GT(checks, 100'000u);
}

TEST(ObjectiveKindTest, NamesRoundTrip)
{
    for (const ObjectiveKind kind : allObjectiveKinds()) {
        const auto parsed = parseObjectiveKind(objectiveKindName(kind));
        ASSERT_TRUE(parsed.has_value()) << objectiveKindName(kind);
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_EQ(parseObjectiveKind("table"), ObjectiveKind::TableCost);
    EXPECT_EQ(parseObjectiveKind("cost"), ObjectiveKind::TableCost);
    EXPECT_EQ(parseObjectiveKind("ext-tsp"), ObjectiveKind::ExtTsp);
    EXPECT_FALSE(parseObjectiveKind("tsp").has_value());
    EXPECT_FALSE(parseObjectiveKind("").has_value());
}

TEST(ObjectiveKindTest, ArchDependenceMatchesObjects)
{
    const CostModel model(Arch::Fallthrough);
    for (const ObjectiveKind kind : allObjectiveKinds()) {
        const auto objective = makeObjective(kind, &model);
        ASSERT_NE(objective, nullptr);
        EXPECT_EQ(objective->kind(), kind);
        EXPECT_EQ(objective->name(), objectiveKindName(kind));
        EXPECT_EQ(objective->archDependent(), objectiveArchDependent(kind));
        // Arch-dependent objectives drive cost-model materialization;
        // arch-independent ones must not.
        EXPECT_EQ(objective->materializationModel() != nullptr,
                  objective->archDependent());
    }
}

TEST(ObjectiveKindDeath, TableCostRequiresModel)
{
    EXPECT_DEATH(makeObjective(ObjectiveKind::TableCost, nullptr),
                 "needs a cost model");
}

TEST(ObjectiveKindTest, ExtTspNeedsNoModel)
{
    const auto objective = makeObjective(ObjectiveKind::ExtTsp, nullptr);
    ASSERT_NE(objective, nullptr);
    EXPECT_FALSE(objective->archDependent());
    EXPECT_EQ(objective->materializationModel(), nullptr);
}

TEST(ExtTspScoreTest, JumpScoreShape)
{
    // Fallthrough-distance forward jump of 0 words scores the full bonus.
    EXPECT_DOUBLE_EQ(extTspJumpScore(100, 100, 10), 1.0);
    // Linear decay to zero at the window edge.
    EXPECT_DOUBLE_EQ(extTspJumpScore(100, 100 + 512, 10),
                     10 * 0.1 * 0.5);
    EXPECT_DOUBLE_EQ(extTspJumpScore(100, 100 + 1024, 10), 0.0);
    EXPECT_DOUBLE_EQ(extTspJumpScore(1000, 1000 - 320, 10),
                     10 * 0.1 * 0.5);
    EXPECT_DOUBLE_EQ(extTspJumpScore(1000, 1000 - 640, 10), 0.0);
}

TEST(ExtTspScoreTest, ProgramScoreIsProcedureSum)
{
    const ProgramSpec spec = benchmarkSuite().front();
    const Program program = profiledProgram(spec);
    const ProgramLayout layout =
        alignProgram(program, AlignerKind::Greedy, nullptr);
    double per_proc = 0.0;
    for (const auto &proc : program.procs())
        per_proc += extTspScore(proc, layout.procs[proc.id()]);
    EXPECT_DOUBLE_EQ(extTspScore(program, layout), per_proc);
    // And the objective's price is the negated score.
    const ExtTspObjective objective;
    EXPECT_DOUBLE_EQ(objective.layoutCost(program, layout), -per_proc);
}

TEST(ExtTspAlignerTest, DeterministicAcrossRuns)
{
    const ProgramSpec spec = benchmarkSuite().front();
    const Program program = profiledProgram(spec);
    const ProgramLayout a =
        alignProgram(program, AlignerKind::ExtTsp, nullptr);
    const ProgramLayout b =
        alignProgram(program, AlignerKind::ExtTsp, nullptr);
    EXPECT_EQ(hashLayout(a), hashLayout(b));
}

TEST(ExtTspAlignerTest, ScoresAtLeastGreedyOnSuite)
{
    // Under its own objective the ExtTSP aligner can never score below
    // Greedy: the merge loop usually wins outright, and where a greedy
    // max-gain commitment blocks a heavier fallthrough the driver's
    // per-procedure fallback splice (priced by the active objective)
    // keeps the Greedy procedure instead.
    AlignOptions options;
    options.objective = ObjectiveKind::ExtTsp;
    for (const ProgramSpec &spec : benchmarkSuite()) {
        const Program program = profiledProgram(spec);
        const ProgramLayout greedy =
            alignProgram(program, AlignerKind::Greedy, nullptr, options);
        const ProgramLayout exttsp =
            alignProgram(program, AlignerKind::ExtTsp, nullptr, options);
        EXPECT_GE(extTspScore(program, exttsp),
                  extTspScore(program, greedy))
            << spec.name;
    }
}

TEST(ExtTspAlignerTest, ObjectiveGuidedButCostBlind)
{
    const ExtTspAligner aligner;
    EXPECT_FALSE(aligner.wantsCostModelMaterialization());
    EXPECT_TRUE(aligner.objectiveGuided());
    EXPECT_EQ(aligner.name(), "exttsp");
    EXPECT_EQ(std::string(alignerKindName(AlignerKind::ExtTsp)), "exttsp");
}

TEST(ObjectiveOptionTest, ExtTspObjectiveSharesLayoutAcrossArchs)
{
    // Under the arch-independent ExtTSP objective, Cost-aligned layouts
    // are identical for every architecture (no cost-model consultation
    // anywhere in the pipeline).
    const ProgramSpec spec = benchmarkSuite().front();
    const Program program = profiledProgram(spec);
    AlignOptions options;
    options.objective = ObjectiveKind::ExtTsp;
    std::uint64_t first = 0;
    bool have_first = false;
    for (const Arch arch : allArchs()) {
        if (arch == Arch::BtFnt)
            continue;  // BT/FNT overrides chain order, not the objective
        const CostModel model(arch);
        const std::uint64_t hash = hashLayout(
            alignProgram(program, AlignerKind::Cost, &model, options));
        if (!have_first) {
            first = hash;
            have_first = true;
        }
        EXPECT_EQ(hash, first) << archName(arch);
    }
}

}  // namespace
}  // namespace balign
