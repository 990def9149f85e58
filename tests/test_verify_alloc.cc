/**
 * @file
 * The verifier's all-pass path allocates nothing per check (label:
 * verify).
 *
 * A verified layout discharges millions of obligation instances on a
 * large program; each one used to build its failure-detail closure on the
 * heap. This executable replaces the global operator new with a counting
 * one (which is why it is its own binary: no other test pays for the
 * counter) and bounds the allocations of verifyLayout and
 * verifyRelaxedLayout on an all-pass multi-procedure program by a small
 * constant per procedure, far below one per check.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>

#include "core/align_program.h"
#include "emit/encoding.h"
#include "emit/relax.h"
#include "sim/cpi.h"
#include "verify/verify.h"
#include "workload/suite.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

// Kept out of line: GCC's -Wmismatched-new-delete otherwise sees the
// inlined free() paired with a new-expression and rejects the build.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace balign {
namespace {

/// Heap allocations made while running @p fn.
template <typename Fn>
std::size_t
allocationsDuring(Fn &&fn)
{
    const std::size_t before = g_allocations.load();
    fn();
    return g_allocations.load() - before;
}

/// Allowed allocations per procedure (one per-procedure scratch vector),
/// plus a fixed allowance for the result itself.
constexpr std::size_t kPerProc = 1;
constexpr std::size_t kFixed = 16;

/// The all-pass input: gcc scaled to 300 procedures and its Greedy layout.
struct Input
{
    PreparedProgram prepared;
    ProgramLayout layout;

    std::size_t
    budget() const
    {
        return kPerProc * prepared.program.numProcs() + kFixed;
    }
};

const Input &
input()
{
    static const Input built = [] {
        ProgramSpec spec = suiteSpec("gcc");
        spec.numProcs = 300;
        spec.traceInstrs = 200'000;
        PreparedProgram prepared = prepareProgram(spec);
        ProgramLayout layout =
            alignProgram(prepared.program, AlignerKind::Greedy, nullptr);
        return Input{std::move(prepared), std::move(layout)};
    }();
    return built;
}

TEST(VerifyAllocation, LayoutProofAllocatesPerProcedureNotPerCheck)
{
    const Input &in = input();
    VerifyResult result;
    const std::size_t allocations = allocationsDuring(
        [&] { result = verifyLayout(in.prepared.program, in.layout); });
    ASSERT_TRUE(result.verified());
    EXPECT_GT(result.totalChecks(), 10 * in.budget());
    EXPECT_LE(allocations, in.budget())
        << result.totalChecks() << " checks";
}

TEST(VerifyAllocation, RelaxedProofAllocatesPerProcedureNotPerCheck)
{
    const Input &in = input();
    for (const EncodingModelKind kind : allEncodingModelKinds()) {
        const EncodingModel &model = encodingModel(kind);
        const RelaxedLayout relaxed =
            relaxLayout(in.prepared.program, in.layout, model);
        VerifyResult result;
        const std::size_t allocations = allocationsDuring([&] {
            result = verifyRelaxedLayout(in.prepared.program, in.layout,
                                         relaxed, model);
        });
        ASSERT_TRUE(result.verified()) << encodingModelKindName(kind);
        EXPECT_GT(result.totalChecks(), 10 * in.budget());
        EXPECT_LE(allocations, in.budget())
            << encodingModelKindName(kind) << ": " << result.totalChecks()
            << " checks";
    }
}

}  // namespace
}  // namespace balign
