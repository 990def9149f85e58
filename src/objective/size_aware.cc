#include "objective/size_aware.h"

#include "emit/relax.h"

namespace balign {

namespace {

/// The Variable model is what gives decisions a size dimension; the
/// FixedWord model prices every choice identically.
const EncodingModel &
sizeModel()
{
    return encodingModel(EncodingModelKind::Variable);
}

}  // namespace

double
SizeAwareObjective::blockCost(const Procedure &proc, BlockId id,
                              BlockId next, const DirOracle &oracle,
                              BlockId prev) const
{
    const double cycles = table_.blockCost(proc, id, next, oracle, prev);

    // Bytes this decision commits for the block's control transfer,
    // branches optimistically at their short form. Classes whose size
    // no decision can change (body, calls, returns, indirect jumps)
    // shift every candidate equally and are left out.
    const EncodingModel &model = sizeModel();
    const unsigned short_cond =
        model.instrBytes(InstrClass::CondBranch, BranchForm::Short);
    const unsigned short_jump =
        model.instrBytes(InstrClass::Jump, BranchForm::Short);

    const BasicBlock &block = proc.block(id);
    unsigned bytes = 0;
    switch (block.term) {
      case Terminator::CondBranch: {
        const Edge &taken =
            proc.edge(static_cast<std::uint32_t>(proc.takenEdge(id)));
        const Edge &fall =
            proc.edge(static_cast<std::uint32_t>(proc.fallThroughEdge(id)));
        // Adjacent successor: just the conditional branch. Neither
        // adjacent: the materializer must also insert a jump.
        bytes = next == fall.dst || next == taken.dst
                    ? short_cond
                    : short_cond + short_jump;
        break;
      }
      case Terminator::UncondBranch: {
        const Edge &taken =
            proc.edge(static_cast<std::uint32_t>(proc.takenEdge(id)));
        bytes = next == taken.dst ? 0 : short_jump;  // removable jump
        break;
      }
      case Terminator::FallThrough: {
        const std::int64_t fall_index = proc.fallThroughEdge(id);
        if (fall_index >= 0 &&
            proc.edge(static_cast<std::uint32_t>(fall_index)).dst != next)
            bytes = short_jump;  // jump must be inserted
        break;
      }
      case Terminator::IndirectJump:
      case Terminator::Return:
        break;
    }
    return cycles + bytes;
}

double
SizeAwareObjective::blockCostFloor(const Procedure &proc, BlockId id) const
{
    // A conditional block always keeps its branch; every other byte
    // blockCost counts is a jump some link can remove.
    const unsigned bytes =
        proc.block(id).term == Terminator::CondBranch
            ? sizeModel().instrBytes(InstrClass::CondBranch, BranchForm::Short)
            : 0;
    return table_.blockCostFloor(proc, id) + bytes;
}

double
SizeAwareObjective::layoutCost(const Procedure &proc,
                               const ProcLayout &layout) const
{
    const double cycles = table_.layoutCost(proc, layout);
    const ProcRelaxation relaxed = relaxProc(proc, layout, sizeModel());
    return cycles + static_cast<double>(relaxed.byteSize);
}

}  // namespace balign
