/**
 * @file
 * Tests for the architectural cost model (paper Table 1 and §6): exact
 * per-branch cycle costs for every architecture, the Figure-2 loop
 * transformation arithmetic, realization selection, and the cost classes
 * whose architectures price, and so align, alike.
 */

#include <gtest/gtest.h>

#include "bpred/cost_model.h"
#include "core/align_program.h"
#include "layout/layout_diff.h"
#include "sim/cpi.h"
#include "workload/suite.h"

using namespace balign;

// ---- Table 1 constants -------------------------------------------------

TEST(CostModel, UncondCostStaticArchitectures)
{
    for (Arch arch : {Arch::Fallthrough, Arch::BtFnt, Arch::Likely,
                      Arch::PhtDirect, Arch::PhtCorrelated}) {
        const CostModel model(arch);
        EXPECT_DOUBLE_EQ(model.uncondCost(), 2.0) << archName(arch);
    }
}

TEST(CostModel, UncondCostBtb)
{
    // 10% miss rate: 1 + 0.1 * 1 = 1.1 cycles.
    const CostModel model(Arch::BtbLarge);
    EXPECT_DOUBLE_EQ(model.uncondCost(), 1.1);
}

TEST(CostModel, FallthroughArchCosts)
{
    const CostModel model(Arch::Fallthrough);
    // Taken conditional: always mispredicted -> 5 cycles each.
    EXPECT_DOUBLE_EQ(model.condCost(1, 0, DirHint::Forward), 5.0);
    EXPECT_DOUBLE_EQ(model.condCost(1, 0, DirHint::Backward), 5.0);
    // Not-taken: correctly predicted fall-through -> 1 cycle.
    EXPECT_DOUBLE_EQ(model.condCost(0, 1, DirHint::Forward), 1.0);
}

TEST(CostModel, BtFntArchCosts)
{
    const CostModel model(Arch::BtFnt);
    // Backward taken: correctly predicted taken -> 2.
    EXPECT_DOUBLE_EQ(model.condCost(1, 0, DirHint::Backward), 2.0);
    // Backward not-taken: mispredicted -> 5.
    EXPECT_DOUBLE_EQ(model.condCost(0, 1, DirHint::Backward), 5.0);
    // Forward taken: mispredicted -> 5.
    EXPECT_DOUBLE_EQ(model.condCost(1, 0, DirHint::Forward), 5.0);
    // Forward not-taken: correct -> 1.
    EXPECT_DOUBLE_EQ(model.condCost(0, 1, DirHint::Forward), 1.0);
    // Unknown direction treated as forward.
    EXPECT_DOUBLE_EQ(model.condCost(1, 0, DirHint::Unknown), 5.0);
}

TEST(CostModel, LikelyUsesMajorityBit)
{
    const CostModel model(Arch::Likely);
    // Majority taken: taken costs 2, minority not-taken costs 5.
    EXPECT_DOUBLE_EQ(model.condCost(900, 100, DirHint::Forward),
                     900 * 2.0 + 100 * 5.0);
    // Majority not-taken: fall costs 1, minority taken costs 5.
    EXPECT_DOUBLE_EQ(model.condCost(100, 900, DirHint::Forward),
                     100 * 5.0 + 900 * 1.0);
}

TEST(CostModel, PhtExpectedCosts)
{
    const CostModel model(Arch::PhtDirect);
    // Taken: 0.9 * 2 + 0.1 * 5 = 2.3 per execution.
    EXPECT_NEAR(model.condCost(1, 0, DirHint::Forward), 2.3, 1e-12);
    // Not-taken: 0.9 * 1 + 0.1 * 5 = 1.4.
    EXPECT_NEAR(model.condCost(0, 1, DirHint::Forward), 1.4, 1e-12);
}

TEST(CostModel, BtbExpectedCosts)
{
    const CostModel model(Arch::BtbSmall);
    // Taken: 0.9 * (1 + 0.1) + 0.1 * 5 = 1.49.
    EXPECT_NEAR(model.condCost(1, 0, DirHint::Forward), 1.49, 1e-12);
    // Not-taken: 0.9 * 1 + 0.1 * 5 = 1.4.
    EXPECT_NEAR(model.condCost(0, 1, DirHint::Forward), 1.4, 1e-12);
}

// ---- Figure 2: the single-block loop transformation ------------------------

TEST(CostModel, Figure2LoopTransformation)
{
    // FALLTHROUGH model, hot self-loop: the original (taken back edge)
    // costs 5 cycles per iteration; inverting the sense and adding a jump
    // costs 1 + 2 = 3 (paper §4).
    const CostModel model(Arch::Fallthrough);
    const Weight iterations = 1000;
    const double original = model.condRealizationCost(
        iterations, 1, CondRealization::FallAdjacent, DirHint::Backward,
        DirHint::Forward);
    const double transformed = model.condRealizationCost(
        iterations, 1, CondRealization::NeitherJumpToTaken,
        DirHint::Backward, DirHint::Forward);
    EXPECT_NEAR(original, 1000 * 5.0 + 1 * 1.0, 1e-9);
    EXPECT_NEAR(transformed, 1000 * (1.0 + 2.0) + 1 * 5.0, 1e-9);
    EXPECT_LT(transformed, original);
}

TEST(CostModel, Figure2NotProfitableOnBtFnt)
{
    // On BT/FNT a backward taken loop branch costs 2; the jump trick
    // costs 3 — the transformation must NOT look profitable.
    const CostModel model(Arch::BtFnt);
    const double original = model.condRealizationCost(
        1000, 1, CondRealization::FallAdjacent, DirHint::Backward,
        DirHint::Forward);
    const double transformed = model.condRealizationCost(
        1000, 1, CondRealization::NeitherJumpToTaken, DirHint::Backward,
        DirHint::Forward);
    EXPECT_LT(original, transformed);
}

// ---- Realization cost mapping ------------------------------------------------

TEST(CostModel, RealizationMapsEdgesCorrectly)
{
    const CostModel model(Arch::Fallthrough);
    // Taken edge weight 10, fall edge weight 90.
    // FallAdjacent: realized taken = 10 -> 10*5 + 90*1 = 140.
    EXPECT_DOUBLE_EQ(
        model.condRealizationCost(10, 90, CondRealization::FallAdjacent,
                                  DirHint::Forward, DirHint::Forward),
        140.0);
    // TakenAdjacent (inverted): realized taken = 90 -> 90*5 + 10*1 = 460.
    EXPECT_DOUBLE_EQ(
        model.condRealizationCost(10, 90, CondRealization::TakenAdjacent,
                                  DirHint::Forward, DirHint::Forward),
        460.0);
    // NeitherJumpToFall: like FallAdjacent plus 90 jumps -> 140 + 180.
    EXPECT_DOUBLE_EQ(
        model.condRealizationCost(10, 90,
                                  CondRealization::NeitherJumpToFall,
                                  DirHint::Forward, DirHint::Forward),
        320.0);
    // NeitherJumpToTaken: like TakenAdjacent plus 10 jumps -> 460 + 20.
    EXPECT_DOUBLE_EQ(
        model.condRealizationCost(10, 90,
                                  CondRealization::NeitherJumpToTaken,
                                  DirHint::Forward, DirHint::Forward),
        480.0);
}

TEST(CostModel, BestNeitherPicksCheaper)
{
    const CostModel ft(Arch::Fallthrough);
    // Hot taken edge: jump-to-taken converts it to fall-through+jump.
    EXPECT_EQ(ft.bestNeitherRealization(1000, 1, DirHint::Backward,
                                        DirHint::Forward),
              CondRealization::NeitherJumpToTaken);
    // Hot fall edge: keep the sense, jump on the cold taken side... the
    // jump executes on the FALL path in NeitherJumpToFall, so the cheap
    // option is jump-to-taken only when the taken edge dominates.
    EXPECT_EQ(ft.bestNeitherRealization(1, 1000, DirHint::Forward,
                                        DirHint::Forward),
              CondRealization::NeitherJumpToFall);
}

TEST(CostModel, SingleExitCosts)
{
    const CostModel model(Arch::Likely);
    EXPECT_DOUBLE_EQ(model.singleExitAdjacentCost(), 0.0);
    EXPECT_DOUBLE_EQ(model.singleExitJumpCost(50), 100.0);
}

TEST(CostModel, CustomPenalties)
{
    CostModel::Params params;
    params.penalties.misfetch = 2.0;
    params.penalties.mispredict = 10.0;
    const CostModel model(Arch::Fallthrough, params);
    EXPECT_DOUBLE_EQ(model.uncondCost(), 3.0);
    EXPECT_DOUBLE_EQ(model.condCost(1, 0, DirHint::Forward), 11.0);
}

TEST(CostModel, ArchNames)
{
    EXPECT_STREQ(archName(Arch::Fallthrough), "FALLTHROUGH");
    EXPECT_STREQ(archName(Arch::BtFnt), "BT/FNT");
    EXPECT_STREQ(archName(Arch::Likely), "LIKELY");
    EXPECT_STREQ(archName(Arch::PhtDirect), "PHT-direct");
    EXPECT_STREQ(archName(Arch::PhtCorrelated), "PHT-correlated");
    EXPECT_STREQ(archName(Arch::BtbSmall), "BTB-64x2");
    EXPECT_STREQ(archName(Arch::BtbLarge), "BTB-256x4");
    EXPECT_TRUE(isStatic(Arch::Likely));
    EXPECT_TRUE(isPht(Arch::PhtCorrelated));
    EXPECT_TRUE(isBtb(Arch::BtbSmall));
    EXPECT_FALSE(isBtb(Arch::PhtDirect));
}

// ---- Figure 3 arithmetic (paper's worked example, our reconstruction) ------

TEST(CostModel, Figure3Arithmetic)
{
    const CostModel model(Arch::Likely);
    // Original: A FallAdjacent (taken->D w=1, fall->B w=9000) = 9005;
    // C's unconditional back branch = 9000 * 2 = 18000. Total 27005.
    const double block_a = model.condRealizationCost(
        1, 9000, CondRealization::FallAdjacent, DirHint::Forward,
        DirHint::Forward);
    EXPECT_DOUBLE_EQ(block_a, 9005.0);
    EXPECT_DOUBLE_EQ(block_a + model.singleExitJumpCost(9000), 27005.0);

    // Transformed: A TakenAdjacent (realized taken = 9000 majority) =
    // 18005; C's jump removed; entry jump 1 * 2. Total 18007.
    const double block_a_rot = model.condRealizationCost(
        1, 9000, CondRealization::TakenAdjacent, DirHint::Forward,
        DirHint::Backward);
    EXPECT_DOUBLE_EQ(block_a_rot, 18005.0);
    EXPECT_DOUBLE_EQ(block_a_rot + model.singleExitJumpCost(1), 18007.0);
}

// ---- Cost classes ----------------------------------------------------------

namespace {

constexpr CondRealization kRealizations[] = {
    CondRealization::FallAdjacent, CondRealization::TakenAdjacent,
    CondRealization::NeitherJumpToFall, CondRealization::NeitherJumpToTaken};
constexpr DirHint kHints[] = {DirHint::Forward, DirHint::Backward,
                              DirHint::Unknown};
constexpr Weight kWeights[] = {0, 1, 7, 1000, 123456};

/// True when @p a and @p b price every point of the grid alike: every
/// realization of every (taken, fall) weight pair under every pair of
/// direction hints, the best "neither" realization and a jump.
bool
priceAlike(const CostModel &a, const CostModel &b)
{
    if (a.uncondCost() != b.uncondCost())
        return false;
    for (const Weight taken : kWeights) {
        if (a.singleExitJumpCost(taken) != b.singleExitJumpCost(taken))
            return false;
        for (const Weight fall : kWeights) {
            for (const DirHint dir_taken : kHints) {
                for (const DirHint dir_fall : kHints) {
                    if (a.bestNeitherRealization(taken, fall, dir_taken,
                                                 dir_fall) !=
                        b.bestNeitherRealization(taken, fall, dir_taken,
                                                 dir_fall))
                        return false;
                    for (const CondRealization real : kRealizations) {
                        if (a.condRealizationCost(taken, fall, real,
                                                  dir_taken, dir_fall) !=
                            b.condRealizationCost(taken, fall, real,
                                                  dir_taken, dir_fall))
                            return false;
                    }
                }
            }
        }
    }
    return true;
}

}  // namespace

TEST(CostClass, NamesTheTableOneClasses)
{
    EXPECT_EQ(costClass(Arch::Fallthrough), Arch::Fallthrough);
    EXPECT_EQ(costClass(Arch::BtFnt), Arch::BtFnt);
    EXPECT_EQ(costClass(Arch::Likely), Arch::Likely);
    for (const Arch arch :
         {Arch::PhtDirect, Arch::PhtCorrelated, Arch::PhtLocal})
        EXPECT_EQ(costClass(arch), Arch::PhtDirect) << archName(arch);
    for (const Arch arch : {Arch::BtbSmall, Arch::BtbLarge})
        EXPECT_EQ(costClass(arch), Arch::BtbSmall) << archName(arch);
}

TEST(CostClass, ArchitecturesPriceAlikeExactlyWithinAClass)
{
    // Within a class every price is equal; across classes some price
    // differs, so no class merges architectures the model tells apart.
    for (const Arch a : allArchs()) {
        for (const Arch b : allArchs()) {
            EXPECT_EQ(priceAlike(CostModel(a), CostModel(b)),
                      costClass(a) == costClass(b))
                << archName(a) << " vs " << archName(b);
        }
    }
}

TEST(CostClass, OneClassAlignsTheSuiteAlike)
{
    // Cost and Try15 lay every suite program out identically for every
    // architecture of a class, which is what lets runConfigs align once
    // per class.
    for (ProgramSpec spec : benchmarkSuite()) {
        spec.traceInstrs = 2'000'000;
        const PreparedProgram prepared = prepareProgram(spec);
        for (const AlignerKind kind : {AlignerKind::Cost, AlignerKind::Try15}) {
            for (const Arch arch : allArchs()) {
                if (costClass(arch) == arch)
                    continue;
                EXPECT_TRUE(layoutsIdentical(
                    alignForArch(prepared.program, kind, arch),
                    alignForArch(prepared.program, kind, costClass(arch))))
                    << spec.name << " " << alignerKindName(kind) << " "
                    << archName(arch);
            }
        }
    }
}
