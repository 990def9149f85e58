/**
 * @file
 * Specification tests for the dynamic predictors (paper §3): the
 * direct-mapped PHT, the gshare (correlation) PHT, the Yeh-Patt local
 * two-level predictor, the set-associative BTB and the return stack.
 *
 * Each behaviour is driven by a tiny hand-built program whose branch
 * sites and outcome sequences are fixed, then evaluated by both the
 * batched replay engine and the oracle (replayBoth), and both are held to
 * counts worked out by hand from the paper's rules. Predictor state is
 * only visible through those counts, so every scenario is chosen so that
 * a wrong rule (no hysteresis, no aliasing, a history shifted the wrong
 * way, FIFO instead of LRU, ...) gives a different count.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bpred/ras.h"
#include "cfg/builder.h"
#include "cfg/validate.h"
#include "layout/materialize.h"
#include "replay_util.h"

using namespace balign;

namespace {

/// One conditional branch of a branch script: the address of its branch
/// instruction and its outcomes ('T' or 'N'), one per run, repeating. A
/// step with no outcomes repeats the previous step's outcome of the same
/// run (a correlated branch).
struct Step
{
    Addr site;
    std::string outcomes;
};

struct Script
{
    Program program;
    WalkOptions walk;
};

/**
 * A program whose every run executes each step's conditional branch once,
 * in order, at the step's address in the original layout:
 *
 *     s0 --T--> s1 --T--> ... --T--> exit
 *      \--N--> p0 --/ \--N--> p1 --/
 *
 * Each p_i is a one-instruction fall-through pad, so no jump is inserted
 * or executed; the only other branch is the run-ending return, which
 * assesses no penalty and makes no BTB lookup. The walk runs the program
 * exactly @p runs times. Sites must rise by at least 2 (room for a pad).
 */
Script
branchScript(const std::vector<Step> &steps, unsigned runs)
{
    Script script{Program("script"), WalkOptions{}};
    Procedure &proc = script.program.proc(script.program.addProc("main"));
    CfgBuilder b(proc);
    std::vector<BlockId> step_blocks;
    std::vector<BlockId> pads;
    Addr start = 0;
    for (const Step &step : steps) {
        EXPECT_GE(step.site, start) << "sites must rise by at least 2";
        step_blocks.push_back(b.block(
            static_cast<std::uint32_t>(step.site - start + 1),
            Terminator::CondBranch));
        pads.push_back(b.block(1, Terminator::FallThrough));
        start = step.site + 2;
    }
    const BlockId exit = b.block(1, Terminator::Return);

    std::vector<std::string> outcomes;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const BlockId next =
            i + 1 < steps.size() ? step_blocks[i + 1] : exit;
        b.taken(step_blocks[i], next);
        b.fallThrough(step_blocks[i], pads[i]);
        b.fallThrough(pads[i], next);
        BasicBlock &block = proc.block(step_blocks[i]);
        if (steps[i].outcomes.empty()) {
            block.correlatedWith = step_blocks[i - 1];
            outcomes.push_back(outcomes.back());
            continue;
        }
        outcomes.push_back(steps[i].outcomes);
        block.patternLength =
            static_cast<std::uint8_t>(steps[i].outcomes.size());
        for (std::size_t k = 0; k < steps[i].outcomes.size(); ++k) {
            if (steps[i].outcomes[k] == 'T')
                block.patternMask |= 1u << k;
        }
    }
    validateOrDie(script.program);

    // The budget is exactly the instructions of `runs` runs, so the walk
    // neither stops mid-run nor restarts after the last one.
    std::uint64_t budget = 0;
    for (unsigned run = 0; run < runs; ++run) {
        budget += 1;  // exit
        for (std::size_t i = 0; i < steps.size(); ++i) {
            budget += proc.block(step_blocks[i]).numInstrs;
            const std::string &pattern = outcomes[i];
            if (pattern[run % pattern.size()] == 'N')
                budget += 1;  // the pad
        }
    }
    script.walk.instrBudget = budget;
    return script;
}

EvalResult
replayScript(const Script &script, const EvalParams &params)
{
    return replayBoth(script.program, originalLayout(script.program),
                      script.walk, params);
}

EvalParams
pht(std::size_t entries)
{
    EvalParams params = EvalParams::forArch(Arch::PhtDirect);
    params.phtEntries = entries;
    return params;
}

EvalParams
gshare(std::size_t entries, unsigned history_bits)
{
    EvalParams params = EvalParams::forArch(Arch::PhtCorrelated);
    params.phtEntries = entries;
    params.historyBits = history_bits;
    return params;
}

EvalParams
local(std::size_t history_entries, unsigned history_bits)
{
    EvalParams params = EvalParams::forArch(Arch::PhtLocal);
    params.phtEntries = history_entries;
    params.historyBits = history_bits;
    return params;
}

EvalParams
btb(std::size_t entries, std::size_t ways)
{
    EvalParams params = EvalParams::forArch(Arch::BtbLarge);
    params.btbEntries = entries;
    params.btbWays = ways;
    return params;
}

/// Runs the engine on a one-branch program with @p params, which must
/// panic on its geometry.
void
replayBadGeometry(const EvalParams &params)
{
    const Script script = branchScript({{0, "T"}}, 1);
    runBatchReplay(script.program, originalLayout(script.program),
                   walkBatchTrace(script.program, script.walk), {params});
}

}  // namespace

// ---- PHT --------------------------------------------------------------------

TEST(Pht, DefaultsNotTaken)
{
    // Counters start weakly not-taken: a first not-taken branch is
    // predicted, a first taken one (another counter) is not.
    const EvalResult r =
        replayScript(branchScript({{0, "N"}, {5, "T"}}, 1), pht(16));
    EXPECT_EQ(r.condExec, 2u);
    EXPECT_EQ(r.mispredicts, 1u);
    EXPECT_EQ(r.misfetches, 0u);
}

TEST(Pht, LearnsDirectionWithHysteresis)
{
    // T: miss (1->2); T: hit, misfetch (2->3); N: miss (3->2);
    // N: miss (2->1) — one not-taken does not flip a strong counter;
    // N: hit (1->0).
    const EvalResult r =
        replayScript(branchScript({{5, "TTNNN"}}, 5), pht(16));
    EXPECT_EQ(r.mispredicts, 3u);
    EXPECT_EQ(r.misfetches, 1u);
    EXPECT_EQ(r.condMispredicts, 3u);
}

TEST(Pht, IndexAliasing)
{
    // 3 and 19 share a counter in a 16-entry table: site 3's taken miss
    // trains the counter site 19 then reads (hit, misfetch). Site 36
    // indexes entry 4, still fresh: a miss.
    const EvalResult r = replayScript(
        branchScript({{3, "T"}, {19, "T"}, {36, "T"}}, 1), pht(16));
    EXPECT_EQ(r.mispredicts, 2u);
    EXPECT_EQ(r.misfetches, 1u);
}

TEST(Pht, LoopBranchAccuracy)
{
    // A branch taken 9 of 10 times, 11 trips: after the first taken miss
    // the 2-bit counter mispredicts only the exits.
    const EvalResult r =
        replayScript(branchScript({{7, "TTTTTTTTTN"}}, 110), pht(64));
    EXPECT_EQ(r.mispredicts, 1u + 11u);
    EXPECT_EQ(r.misfetches, 99u - 1u);
}

TEST(PhtDeath, RejectsNonPowerOfTwo)
{
    EXPECT_DEATH(replayBadGeometry(pht(100)), "power of two");
}

// ---- gshare -----------------------------------------------------------------

TEST(Gshare, HistoryShiftsOutcomes)
{
    // Site 0, so the index is the 4-bit history, which shifts each
    // outcome in at the bottom: T,N,T,T index 0,1,2,5 (0b101 after
    // T,N,T) and miss on the three taken ones; the repeat T,N,T,T
    // indexes 11,7,14,13 (misses on 11, 14, 13); the next period
    // indexes 11,7,14,13 again and now all four hit.
    const EvalResult r =
        replayScript(branchScript({{0, "TNTT"}}, 12), gshare(64, 4));
    EXPECT_EQ(r.mispredicts, 6u);
    EXPECT_EQ(r.misfetches, 3u);
}

TEST(Gshare, HistoryMasked)
{
    // A 2-bit history saturates at 0b11: an always-taken branch at site
    // 0 indexes 0, 1, then 3 forever — three misses, then hits.
    const EvalResult r =
        replayScript(branchScript({{0, "T"}}, 10), gshare(64, 2));
    EXPECT_EQ(r.mispredicts, 3u);
    EXPECT_EQ(r.misfetches, 7u);
}

TEST(Gshare, PredictsAlternatingPatternPerfectlyAfterWarmup)
{
    // A strictly alternating branch defeats a per-site 2-bit counter
    // (every taken execution mispredicts) but is captured exactly by
    // history-indexed counters: the five taken executions before the
    // history settles miss, every later one hits.
    const Script script = branchScript({{40, "NT"}}, 164);
    const EvalResult correlated = replayScript(script, gshare(256, 8));
    EXPECT_EQ(correlated.mispredicts, 5u);
    EXPECT_EQ(correlated.misfetches, 77u);

    const EvalResult direct = replayScript(script, pht(256));
    EXPECT_EQ(direct.mispredicts, 82u);
    EXPECT_EQ(direct.misfetches, 0u);
}

TEST(Gshare, CapturesCorrelatedPair)
{
    // Branch B repeats branch A's outcome; A alternates. Keyed on a
    // history holding A's outcome, B is perfect after warmup; a per-site
    // counter misses every taken execution of both.
    const Script script = branchScript({{100, "NT"}, {200, ""}}, 300);
    const EvalResult correlated = replayScript(script, gshare(1024, 6));
    EXPECT_EQ(correlated.condExec, 600u);
    EXPECT_EQ(correlated.mispredicts, 4u);

    const EvalResult direct = replayScript(script, pht(1024));
    EXPECT_EQ(direct.mispredicts, 300u);
}

TEST(GshareDeath, RejectsBadGeometry)
{
    EXPECT_DEATH(replayBadGeometry(gshare(100, 12)), "power of two");
    EXPECT_DEATH(replayBadGeometry(gshare(64, 0)), "history");
}

// ---- local two-level --------------------------------------------------------

TEST(LocalTwoLevel, Geometry)
{
    // 1024 history registers: sites 3 and 1027 share one, 3 and 515 do
    // not. A always taken, B never. Apart, each site's history settles
    // (A at 0b11, B at 0) after three misses of A and one of B. Shared,
    // the register alternates and both settle after two misses.
    const EvalResult shared = replayScript(
        branchScript({{3, "T"}, {1027, "N"}}, 20), local(1024, 2));
    EXPECT_EQ(shared.mispredicts, 2u);
    EXPECT_EQ(shared.misfetches, 18u);

    const EvalResult apart = replayScript(
        branchScript({{3, "T"}, {515, "N"}}, 20), local(1024, 2));
    EXPECT_EQ(apart.mispredicts, 4u);
    EXPECT_EQ(apart.misfetches, 17u);
}

TEST(LocalTwoLevelDeath, RejectsBadGeometry)
{
    EXPECT_DEATH(replayBadGeometry(local(1000, 10)), "power of two");
    EXPECT_DEATH(replayBadGeometry(local(1024, 0)), "history");
}

TEST(LocalTwoLevel, LearnsFixedTripCountExactly)
{
    // A loop with a fixed trip count of 5 (TTTTN repeating) is predicted
    // perfectly once the local history distinguishes the positions —
    // the behaviour per-site 2-bit counters cannot achieve (they miss
    // every exit).
    const Script script = branchScript({{77, "TTTTN"}}, 400);
    const EvalResult two_level = replayScript(script, local(256, 8));
    EXPECT_EQ(two_level.mispredicts, 10u);
    EXPECT_EQ(two_level.misfetches, 310u);

    const EvalResult direct = replayScript(script, pht(256));
    EXPECT_EQ(direct.mispredicts, 81u);  // the first taken + 80 exits
    EXPECT_EQ(direct.misfetches, 319u);
}

TEST(LocalTwoLevel, SeparateSitesSeparateHistories)
{
    // Site A alternates; site B is always taken. With separate history
    // registers the interleaving cannot corrupt either history; folded
    // onto one register (10 and 266 in a 256-entry table) the same
    // stream settles differently.
    const EvalResult apart = replayScript(
        branchScript({{10, "NT"}, {12, "T"}}, 300), local(256, 6));
    EXPECT_EQ(apart.mispredicts, 12u);
    EXPECT_EQ(apart.misfetches, 439u);

    const EvalResult shared = replayScript(
        branchScript({{10, "NT"}, {266, "T"}}, 300), local(256, 6));
    EXPECT_EQ(shared.mispredicts, 7u);
    EXPECT_EQ(shared.misfetches, 443u);
}

TEST(LocalTwoLevel, HistoryTableAliasing)
{
    // Sites 3 and 259 collide in a 256-entry history table; 3 and 261 do
    // not. Same streams, different counts.
    const EvalResult shared = replayScript(
        branchScript({{3, "NT"}, {259, "T"}}, 200), local(256, 8));
    EXPECT_EQ(shared.mispredicts, 9u);
    EXPECT_EQ(shared.misfetches, 291u);

    const EvalResult apart = replayScript(
        branchScript({{3, "NT"}, {261, "T"}}, 200), local(256, 8));
    EXPECT_EQ(apart.mispredicts, 15u);
    EXPECT_EQ(apart.misfetches, 286u);
}

TEST(LocalTwoLevel, ArchPlumbing)
{
    EXPECT_STREQ(archName(Arch::PhtLocal), "PHT-local");
    EXPECT_TRUE(isPht(Arch::PhtLocal));
    EXPECT_FALSE(isBtb(Arch::PhtLocal));
    EXPECT_FALSE(isStatic(Arch::PhtLocal));
}

// ---- BTB --------------------------------------------------------------------

TEST(Btb, MissesWhenEmpty)
{
    // A miss predicts fall-through: a first taken branch mispredicts.
    const EvalResult r =
        replayScript(branchScript({{100, "T"}}, 1), btb(64, 2));
    EXPECT_EQ(r.btbLookups, 1u);
    EXPECT_EQ(r.btbHits, 0u);
    EXPECT_EQ(r.mispredicts, 1u);
}

TEST(Btb, OnlyTakenBranchesInserted)
{
    // N: miss, not inserted. T: miss again, inserted weakly taken.
    // T: hit predicting taken — free.
    const EvalResult r =
        replayScript(branchScript({{100, "NTT"}}, 3), btb(64, 2));
    EXPECT_EQ(r.btbLookups, 3u);
    EXPECT_EQ(r.btbHits, 1u);
    EXPECT_EQ(r.mispredicts, 1u);
    EXPECT_EQ(r.misfetches, 0u);
}

TEST(Btb, CounterTrainsDown)
{
    // T: miss, inserted weakly taken. N: hit predicting taken (miss),
    // counter trains down. N: hit predicting not-taken.
    const EvalResult r =
        replayScript(branchScript({{100, "TNN"}}, 3), btb(64, 2));
    EXPECT_EQ(r.btbHits, 2u);
    EXPECT_EQ(r.mispredicts, 2u);
}

TEST(Btb, TargetRetrainedForIndirect)
{
    // An indirect jump to one of two targets, drawn by the walk. After
    // the first (missing) execution the entry always predicts taken to
    // the last target seen, so each target change is one mispredict.
    Program program("retrain");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId sw = b.block(2, Terminator::IndirectJump);
    const BlockId c0 = b.block(1, Terminator::Return);
    const BlockId c1 = b.block(1, Terminator::Return);
    b.other(sw, c0, 1, 0.5);
    b.other(sw, c1, 1, 0.5);
    WalkOptions options;
    options.seed = 3;
    options.instrBudget = 3 * 40;  // forty runs of 3 instructions

    struct Targets : EventSink
    {
        std::vector<std::uint32_t> edges;
        void onBlock(ProcId, BlockId) override {}
        void onCall(ProcId, BlockId, const CallSite &) override {}
        void onReturn(ProcId, BlockId, const CallSite &) override {}
        void onEdge(ProcId, std::uint32_t edge) override
        {
            edges.push_back(edge);
        }
        void onExit() override {}
    } targets;
    walk(program, options, targets);
    ASSERT_EQ(targets.edges.size(), 40u);
    std::uint64_t changes = 0;
    std::uint64_t off_first = 0;
    for (std::size_t i = 1; i < targets.edges.size(); ++i) {
        changes += targets.edges[i] != targets.edges[i - 1];
        off_first += targets.edges[i] != targets.edges[0];
    }
    // The draw must tell retraining (mispredict on each change) from a
    // stored target that never moves (mispredict on each other target).
    ASSERT_GT(changes, 1u);
    ASSERT_NE(changes, off_first);

    const EvalResult r = replayBoth(program, originalLayout(program),
                                    options, btb(64, 2));
    EXPECT_EQ(r.indirectExec, 40u);
    EXPECT_EQ(r.btbHits, 39u);
    EXPECT_EQ(r.mispredicts, 1u + changes);
}

TEST(Btb, SetConflictEvictsLru)
{
    // 4 entries, 2 ways => 2 sets; sites 0, 2, 4 share set 0. Run 1
    // inserts all three, so 4 evicts the least recently used, 0. Run 2:
    // 0 misses again (and evicts 2), 2 is not-taken against no entry
    // (correct), 4 hits predicting taken but falls through.
    const EvalResult r = replayScript(
        branchScript({{0, "TT"}, {2, "TN"}, {4, "TN"}}, 2), btb(4, 2));
    EXPECT_EQ(r.btbLookups, 6u);
    EXPECT_EQ(r.btbHits, 1u);
    EXPECT_EQ(r.mispredicts, 5u);
}

TEST(Btb, LruRefreshOnHit)
{
    // Run 1 inserts 0 then 4 (2 is not taken, so not inserted). Run 2:
    // the hit on 0 refreshes it, so inserting 2 evicts 4, and 4's
    // not-taken branch then misses (correct). Without the refresh, 0
    // would go and 4 would hit predicting taken (a mispredict).
    const EvalResult r = replayScript(
        branchScript({{0, "TT"}, {2, "NT"}, {4, "TN"}}, 2), btb(4, 2));
    EXPECT_EQ(r.btbLookups, 6u);
    EXPECT_EQ(r.btbHits, 1u);
    EXPECT_EQ(r.mispredicts, 3u);
}

TEST(Btb, DifferentSetsDoNotConflict)
{
    // Sites 0 and 6 (set 0) and 3 and 9 (set 1) fill both sets exactly:
    // every second-run lookup hits.
    const EvalResult r = replayScript(
        branchScript({{0, "T"}, {3, "T"}, {6, "T"}, {9, "T"}}, 2),
        btb(4, 2));
    EXPECT_EQ(r.btbHits, 4u);
    EXPECT_EQ(r.mispredicts, 4u);
}

TEST(Btb, Geometry)
{
    // 256 entries, 4 ways => 64 sets: sites 64 apart share a set, which
    // holds four of them but not five; sites 32 apart use two sets.
    auto strided = [](Addr stride, unsigned count) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < count; ++i)
            steps.push_back({stride * i, "T"});
        return branchScript(steps, 2);
    };
    EXPECT_EQ(replayScript(strided(64, 4), btb(256, 4)).btbHits, 4u);
    EXPECT_EQ(replayScript(strided(64, 5), btb(256, 4)).btbHits, 0u);
    EXPECT_EQ(replayScript(strided(32, 8), btb(256, 4)).btbHits, 8u);
}

TEST(Btb, EvictedSiteMissesAndRefillsAnotherWay)
{
    // 4 entries, 2 ways => 2 sets; sites 0, 2, 4 share set 0.
    // Run 1: 0 fills way 0, 2 way 1; 4 evicts 0 from way 0. All miss.
    // Run 2: 0 must miss (its way now holds 4) and evicts the LRU, 2,
    // refilling way 1. 2 misses not-taken (correct, not inserted). 4 hits
    // predicting taken but falls through (a mispredict).
    // Run 3: 0 hits in way 1, taken with the right target (free); 2
    // misses not-taken again; 4 hits, its counter now predicting
    // not-taken (correct).
    const EvalResult r = replayScript(
        branchScript({{0, "T"}, {2, "TNN"}, {4, "TNN"}}, 3), btb(4, 2));
    EXPECT_EQ(r.btbLookups, 9u);
    EXPECT_EQ(r.btbHits, 3u);
    EXPECT_EQ(r.mispredicts, 5u);
    EXPECT_EQ(r.misfetches, 0u);
}

TEST(Btb, FullyAssociative)
{
    // 8 entries in 8 ways: one set that every site shares. Eight taken
    // sites fit, so the second run hits on all of them; a ninth makes
    // LRU evict each site just before it comes back.
    auto strided = [](unsigned count) {
        std::vector<Step> steps;
        for (unsigned i = 0; i < count; ++i)
            steps.push_back({Addr{2} * i, "T"});
        return branchScript(steps, 2);
    };
    const EvalResult fits = replayScript(strided(8), btb(8, 8));
    EXPECT_EQ(fits.btbLookups, 16u);
    EXPECT_EQ(fits.btbHits, 8u);
    EXPECT_EQ(fits.mispredicts, 8u);
    const EvalResult thrashes = replayScript(strided(9), btb(8, 8));
    EXPECT_EQ(thrashes.btbHits, 0u);
    EXPECT_EQ(thrashes.mispredicts, 18u);
}

TEST(Btb, DirectMapped)
{
    // 16 entries in 1 way: 16 sets of one entry. Sites 0 and 16 share
    // set 0 and evict each other; site 3 has set 3 to itself and hits in
    // the second run.
    const EvalResult r = replayScript(
        branchScript({{0, "T"}, {3, "T"}, {16, "T"}}, 2), btb(16, 1));
    EXPECT_EQ(r.btbLookups, 6u);
    EXPECT_EQ(r.btbHits, 1u);
    EXPECT_EQ(r.mispredicts, 5u);
}

TEST(BtbDeath, RejectsBadGeometry)
{
    EXPECT_DEATH(replayBadGeometry(btb(0, 1)), "bad BTB geometry");
    EXPECT_DEATH(replayBadGeometry(btb(12, 4)), "power of two");
    // A way and the absent marker must fit the one-byte way map.
    EXPECT_DEATH(replayBadGeometry(btb(512, 256)), "way map");
}

// ---- Return stack -------------------------------------------------------------

TEST(ReturnStack, LifoOrder)
{
    ReturnStack ras(8);
    ras.push(10);
    ras.push(20);
    ras.push(30);
    EXPECT_EQ(ras.pop(), 30u);
    EXPECT_EQ(ras.pop(), 20u);
    EXPECT_EQ(ras.pop(), 10u);
}

TEST(ReturnStack, UnderflowReturnsNoAddr)
{
    ReturnStack ras(4);
    EXPECT_EQ(ras.pop(), kNoAddr);
    ras.push(1);
    EXPECT_EQ(ras.pop(), 1u);
    EXPECT_EQ(ras.pop(), kNoAddr);
}

TEST(ReturnStack, WrapsAndOverwritesOldest)
{
    ReturnStack ras(4);
    for (Addr a = 1; a <= 6; ++a)
        ras.push(a);
    // Capacity 4: entries 3,4,5,6 survive.
    EXPECT_EQ(ras.depth(), 4u);
    EXPECT_EQ(ras.pop(), 6u);
    EXPECT_EQ(ras.pop(), 5u);
    EXPECT_EQ(ras.pop(), 4u);
    EXPECT_EQ(ras.pop(), 3u);
    EXPECT_EQ(ras.pop(), kNoAddr);
}

TEST(ReturnStack, DeepRecursionPattern)
{
    // Push/pop balance across a simulated deep call chain within capacity.
    ReturnStack ras(32);
    for (Addr a = 0; a < 32; ++a)
        ras.push(a * 4);
    for (Addr a = 32; a-- > 0;)
        EXPECT_EQ(ras.pop(), a * 4);
}

namespace {

/// main calls p1 twice; p_i calls p_{i+1} once, down to p_depth, a leaf.
/// One run makes 2 * depth calls, nested depth deep, and as many
/// in-program returns.
Program
callChain(unsigned depth)
{
    Program program("chain");
    std::vector<ProcId> procs = {program.addProc("main")};
    for (unsigned i = 1; i <= depth; ++i) {
        std::string name = "p";
        name += std::to_string(i);
        procs.push_back(program.addProc(name));
    }
    for (unsigned i = 0; i <= depth; ++i) {
        CfgBuilder b(program.proc(procs[i]));
        const BlockId body = b.block(3, Terminator::Return);
        if (i < depth)
            b.call(body, procs[i + 1], 0);
        if (i == 0)
            b.call(body, procs[1], 1);
    }
    validateOrDie(program);
    return program;
}

EvalResult
replayCalls(unsigned depth, std::size_t ras_entries)
{
    const Program program = callChain(depth);
    WalkOptions options;
    options.restartOnExit = false;
    EvalParams params = EvalParams::forArch(Arch::BtFnt);
    params.rasEntries = ras_entries;
    return replayBoth(program, originalLayout(program), options, params);
}

}  // namespace

TEST(ReturnStack, ReplayPredictsNestedReturnsInLifoOrder)
{
    // Within capacity every return finds its own call's resume address:
    // each call and each correctly predicted return misfetches once.
    const EvalResult r = replayCalls(3, 4);
    EXPECT_EQ(r.callExec, 6u);
    EXPECT_EQ(r.returnExec, 7u);  // six in-program + the exit
    EXPECT_EQ(r.returnMispredicts, 0u);
    EXPECT_EQ(r.misfetches, 12u);
}

TEST(ReturnStack, ReplayWrapLosesOldestThenUnderflows)
{
    // Depth 4 against 2 entries: each chain's two innermost returns are
    // predicted, the two outer ones find the stack empty (their entries
    // were overwritten) and mispredict — twice per chain, two chains.
    const EvalResult r = replayCalls(4, 2);
    EXPECT_EQ(r.callExec, 8u);
    EXPECT_EQ(r.returnMispredicts, 4u);
    EXPECT_EQ(r.mispredicts, 4u);
    EXPECT_EQ(r.misfetches, 8u + 4u);
}
