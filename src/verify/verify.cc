#include "verify/verify.h"

#include <sstream>

#include "emit/relax.h"
#include "layout/materialize.h"
#include "layout/realization.h"
#include "support/types.h"

namespace balign {

const char *
obligationName(Obligation obligation)
{
    switch (obligation) {
      case Obligation::ProcBijection: return "proc-bijection";
      case Obligation::BlockBijection: return "block-bijection";
      case Obligation::EntryFirst: return "entry-first";
      case Obligation::AddressContiguity: return "address-contiguity";
      case Obligation::SizeAccounting: return "size-accounting";
      case Obligation::SuccPreservation: return "succ-preservation";
      case Obligation::JumpTargets: return "jump-targets";
      case Obligation::RelaxContiguity: return "relax-contiguity";
      case Obligation::DisplacementRange: return "displacement-range";
    }
    return "?";
}

const char *
obligationSummary(Obligation obligation)
{
    switch (obligation) {
      case Obligation::ProcBijection:
        return "one procedure layout per procedure, in id order";
      case Obligation::BlockBijection:
        return "layout order is a bijection onto the CFG blocks";
      case Obligation::EntryFirst:
        return "the entry block keeps the procedure's first address";
      case Obligation::AddressContiguity:
        return "addresses are gap-free and procedures contiguous";
      case Obligation::SizeAccounting:
        return "sizes and branch/jump addresses follow from the "
               "transformation flags";
      case Obligation::SuccPreservation:
        return "every realized successor map equals the CFG successor "
               "map modulo condition reversal and jump insertion";
      case Obligation::JumpTargets:
        return "every inserted jump trails its block and targets the "
               "displaced successor";
      case Obligation::RelaxContiguity:
        return "relaxed byte addresses are gap-free and sized by the "
               "encoding model";
      case Obligation::DisplacementRange:
        return "every branch displacement fits its chosen encoding form";
    }
    return "?";
}

std::size_t
VerifyResult::totalChecks() const
{
    std::size_t n = 0;
    for (const ObligationRecord &record : obligations)
        n += record.checks;
    return n;
}

std::string
formatVerifyFailure(const VerifyFailure &failure)
{
    std::ostringstream out;
    out << "verify[" << obligationName(failure.obligation) << "]";
    if (failure.proc != kNoProc)
        out << " proc=" << failure.proc;
    if (failure.block != kNoBlock)
        out << " block=" << failure.block;
    out << ": " << failure.detail;
    return out.str();
}

namespace {

/// Tally-and-record helper: every call is one discharged (or failed)
/// proof-obligation instance. @p detail is only rendered on failure; it
/// is taken as its own closure type, not a std::function, so a passing
/// check never allocates (DESIGN §10.2).
class Checker
{
  public:
    template <typename Detail>
    bool
    check(Obligation obligation, bool ok, ProcId proc, BlockId block,
          const Detail &detail)
    {
        ObligationRecord &record =
            result.obligations[static_cast<std::size_t>(obligation)];
        ++record.checks;
        if (!ok) {
            ++record.failures;
            result.failures.push_back(
                VerifyFailure{obligation, proc, block, detail()});
        }
        return ok;
    }

    VerifyResult result;
};

std::string
str(const std::ostringstream &out)
{
    return out.str();
}

/// The successor reached over edge index @p index, or kNoBlock.
BlockId
edgeDst(const Procedure &proc, std::int64_t index)
{
    if (index < 0)
        return kNoBlock;
    const Edge &edge = proc.edge(static_cast<std::uint32_t>(index));
    return edge.dst < proc.numBlocks() ? edge.dst : kNoBlock;
}

/// block-bijection: layout.order is a permutation of [0, numBlocks) with
/// consistent cached positions. Everything after this obligation needs a
/// walkable order, so a failure gates the rest of the procedure.
bool
checkBlockBijection(Checker &checker, const Procedure &proc,
                    const ProcLayout &layout)
{
    const ProcId pid = proc.id();
    const std::size_t n = proc.numBlocks();

    if (!checker.check(Obligation::BlockBijection,
                       layout.order.size() == n, pid, kNoBlock, [&] {
                           std::ostringstream out;
                           out << "layout order lists "
                               << layout.order.size() << " of " << n
                               << " blocks";
                           return str(out);
                       }))
        return false;

    std::vector<unsigned> seen(n, 0);
    for (const BlockId id : layout.order) {
        if (!checker.check(Obligation::BlockBijection, id < n, pid, id,
                           [&] {
                               std::ostringstream out;
                               out << "order names block " << id
                                   << " outside the " << n
                                   << "-block procedure";
                               return str(out);
                           }))
            return false;
        ++seen[id];
    }
    bool bijective = true;
    for (BlockId id = 0; id < n; ++id) {
        bijective &= checker.check(
            Obligation::BlockBijection, seen[id] == 1, pid, id, [&] {
                std::ostringstream out;
                out << "block appears " << seen[id]
                    << " times in the order (must be exactly once)";
                return str(out);
            });
    }
    if (!bijective)
        return false;

    for (std::uint32_t i = 0; i < layout.order.size(); ++i) {
        const BlockId id = layout.order[i];
        checker.check(Obligation::BlockBijection,
                      layout.blocks[id].orderIndex == i, pid, id, [&] {
                          std::ostringstream out;
                          out << "cached orderIndex "
                              << layout.blocks[id].orderIndex
                              << " disagrees with position " << i;
                          return str(out);
                      });
    }
    return true;
}

/// size-accounting: per-block arithmetic from the CFG size plus the
/// layout's own transformation flags.
void
checkSizeAccounting(Checker &checker, const Procedure &proc,
                    const ProcLayout &layout)
{
    const ProcId pid = proc.id();
    for (const BlockId id : layout.order) {
        const BasicBlock &block = proc.block(id);
        const BlockLayout &bl = layout.blocks[id];
        const std::uint32_t expect_base =
            block.numInstrs - (bl.jumpRemoved ? 1 : 0);
        const std::uint32_t expect_final =
            expect_base + (bl.jumpInserted ? 1 : 0);
        checker.check(Obligation::SizeAccounting,
                      bl.baseInstrs == expect_base &&
                          bl.finalInstrs == expect_final,
                      pid, id, [&] {
                          std::ostringstream out;
                          out << "sizes base=" << bl.baseInstrs
                              << "/final=" << bl.finalInstrs
                              << " do not follow from " << block.numInstrs
                              << " CFG instructions with the block's "
                                 "flags (expected base=" << expect_base
                              << "/final=" << expect_final << ")";
                          return str(out);
                      });

        const Addr expect_branch =
            block.hasBranchInstr() && !bl.jumpRemoved
                ? bl.addr + block.numInstrs - 1
                : kNoAddr;
        checker.check(Obligation::SizeAccounting,
                      bl.branchAddr == expect_branch, pid, id, [&] {
                          std::ostringstream out;
                          out << "branchAddr " << bl.branchAddr
                              << " is not the terminator slot (expected "
                              << expect_branch << ")";
                          return str(out);
                      });
        const Addr expect_jump =
            bl.jumpInserted ? bl.addr + block.numInstrs : kNoAddr;
        checker.check(Obligation::SizeAccounting, bl.jumpAddr == expect_jump,
                      pid, id, [&] {
                          std::ostringstream out;
                          out << "jumpAddr " << bl.jumpAddr
                              << " does not trail the block (expected "
                              << expect_jump << ")";
                          return str(out);
                      });
    }
}

/// address-contiguity: the gap-free walk of the order reproduces every
/// block address and the procedure footprint. Expected sizes are
/// re-derived so one corrupted address yields one failure.
void
checkAddresses(Checker &checker, const Procedure &proc,
               const ProcLayout &layout)
{
    const ProcId pid = proc.id();
    Addr addr = layout.base;
    for (const BlockId id : layout.order) {
        const BasicBlock &block = proc.block(id);
        const BlockLayout &bl = layout.blocks[id];
        checker.check(Obligation::AddressContiguity, bl.addr == addr, pid,
                      id, [&] {
                          std::ostringstream out;
                          out << "block placed at address " << bl.addr
                              << " but the gap-free walk expects " << addr;
                          return str(out);
                      });
        addr += block.numInstrs - (bl.jumpRemoved ? 1 : 0) +
                (bl.jumpInserted ? 1 : 0);
    }
    checker.check(Obligation::AddressContiguity,
                  layout.totalInstrs == addr - layout.base, pid, kNoBlock,
                  [&] {
                      std::ostringstream out;
                      out << "procedure footprint " << layout.totalInstrs
                          << " disagrees with the sum of block sizes "
                          << (addr - layout.base);
                      return str(out);
                  });
}

/**
 * succ-preservation: re-derives each block's realized successor map from
 * the terminator, the realization and the layout adjacency, and proves it
 * equal to the CFG successor map. Condition reversal (TakenAdjacent /
 * NeitherJumpToTaken) and inserted/removed unconditional jumps are the
 * only permitted differences; any dropped, duplicated or retargeted edge
 * fails here with the block named.
 */
void
checkSuccPreservation(Checker &checker, const Procedure &proc,
                      const ProcLayout &layout)
{
    const ProcId pid = proc.id();
    for (std::uint32_t i = 0; i < layout.order.size(); ++i) {
        const BlockId id = layout.order[i];
        const BasicBlock &block = proc.block(id);
        const BlockLayout &bl = layout.blocks[id];
        const BlockId next =
            i + 1 < layout.order.size() ? layout.order[i + 1] : kNoBlock;

        switch (block.term) {
          case Terminator::CondBranch: {
            const BlockId taken_dst = edgeDst(proc, proc.takenEdge(id));
            const BlockId fall_dst =
                edgeDst(proc, proc.fallThroughEdge(id));
            if (!checker.check(Obligation::SuccPreservation,
                               taken_dst != kNoBlock &&
                                   fall_dst != kNoBlock,
                               pid, id, [&] {
                                   return std::string(
                                       "conditional block lacks a taken "
                                       "or fall-through successor; its "
                                       "realized branch has no defined "
                                       "targets");
                               }))
                break;

            // The branch instruction covers one successor
            // (branchTargetKind); the other must be reached by adjacency
            // or by the inserted jump. Adjacent realizations pin the
            // not-branch successor to the next block — if the CFG edge
            // was retargeted, this is where it surfaces.
            const bool needs_jump =
                bl.cond == CondRealization::NeitherJumpToFall ||
                bl.cond == CondRealization::NeitherJumpToTaken;
            const BlockId displaced =
                branchTargetKind(bl.cond) == EdgeKind::Taken ? fall_dst
                                                             : taken_dst;
            if (!needs_jump) {
                checker.check(Obligation::SuccPreservation,
                              displaced == next, pid, id, [&] {
                                  std::ostringstream out;
                                  out << condRealizationName(bl.cond)
                                      << " reaches successor " << displaced
                                      << " by adjacency but the next "
                                         "block in layout is " << next
                                      << "; the edge would be retargeted";
                                  return str(out);
                              });
            }
            checker.check(Obligation::SuccPreservation,
                          bl.jumpInserted == needs_jump, pid, id, [&] {
                              std::ostringstream out;
                              out << condRealizationName(bl.cond)
                                  << (needs_jump
                                          ? " must reach the displaced "
                                            "successor through an "
                                            "inserted jump"
                                          : " must not insert a jump")
                                  << " but jumpInserted is "
                                  << (bl.jumpInserted ? "true" : "false");
                              return str(out);
                          });
            checker.check(Obligation::SuccPreservation, !bl.jumpRemoved,
                          pid, id, [&] {
                              return std::string(
                                  "conditional block marked jumpRemoved: "
                                  "deleting the branch would drop a "
                                  "successor");
                          });
            break;
          }
          case Terminator::UncondBranch: {
            const BlockId taken_dst = edgeDst(proc, proc.takenEdge(id));
            if (!checker.check(Obligation::SuccPreservation,
                               taken_dst != kNoBlock, pid, id, [&] {
                                   return std::string(
                                       "unconditional block lacks its "
                                       "taken successor");
                               }))
                break;
            // Removing the jump rewires the block onto pure fall-through:
            // only legal when the target is the next block, anything else
            // retargets the edge.
            checker.check(Obligation::SuccPreservation,
                          !bl.jumpRemoved || taken_dst == next, pid, id,
                          [&] {
                              std::ostringstream out;
                              out << "jump to block " << taken_dst
                                  << " was removed but the next block in "
                                     "layout is " << next
                                  << "; control would fall into the "
                                     "wrong block";
                              return str(out);
                          });
            checker.check(Obligation::SuccPreservation, !bl.jumpInserted,
                          pid, id, [&] {
                              return std::string(
                                  "unconditional block marked "
                                  "jumpInserted: the block already ends "
                                  "in a jump, a second one would add an "
                                  "edge");
                          });
            break;
          }
          case Terminator::FallThrough: {
            const BlockId fall_dst =
                edgeDst(proc, proc.fallThroughEdge(id));
            // Without an inserted jump the successor (if any) must be
            // adjacent; with one, the jump covers it (target proven under
            // jump-targets). A jump with no successor edge would invent
            // an edge.
            checker.check(Obligation::SuccPreservation,
                          bl.jumpInserted ? fall_dst != kNoBlock
                                          : (fall_dst == kNoBlock ||
                                             fall_dst == next),
                          pid, id, [&] {
                              std::ostringstream out;
                              if (bl.jumpInserted) {
                                  out << "inserted jump has no CFG "
                                         "successor to target";
                              } else {
                                  out << "fall-through successor "
                                      << fall_dst
                                      << " is not the next block in "
                                         "layout (" << next
                                      << ") and no jump was inserted; "
                                         "the edge is dropped";
                              }
                              return str(out);
                          });
            checker.check(Obligation::SuccPreservation, !bl.jumpRemoved,
                          pid, id, [&] {
                              return std::string(
                                  "fall-through block marked jumpRemoved "
                                  "but has no branch instruction to "
                                  "delete");
                          });
            break;
          }
          case Terminator::IndirectJump:
          case Terminator::Return:
            // Never transformed: targets are dynamic (indirect) or the
            // return stack's. Any flag would change the successor map.
            checker.check(Obligation::SuccPreservation,
                          !bl.jumpInserted && !bl.jumpRemoved, pid, id,
                          [&] {
                              std::ostringstream out;
                              out << terminatorName(block.term)
                                  << " block marked jumpInserted/"
                                     "jumpRemoved; these terminators are "
                                     "never transformed";
                              return str(out);
                          });
            break;
        }
    }
}

/// jump-targets: each inserted jump physically trails its block and its
/// implied target is exactly the successor the realization displaced.
void
checkJumpTargets(Checker &checker, const Procedure &proc,
                 const ProcLayout &layout)
{
    const ProcId pid = proc.id();
    for (const BlockId id : layout.order) {
        const BasicBlock &block = proc.block(id);
        const BlockLayout &bl = layout.blocks[id];
        if (!bl.jumpInserted)
            continue;

        BlockId displaced = kNoBlock;
        if (block.term == Terminator::CondBranch) {
            const BlockId taken_dst = edgeDst(proc, proc.takenEdge(id));
            const BlockId fall_dst =
                edgeDst(proc, proc.fallThroughEdge(id));
            displaced = branchTargetKind(bl.cond) == EdgeKind::Taken
                            ? fall_dst
                            : taken_dst;
        } else if (block.term == Terminator::FallThrough) {
            displaced = edgeDst(proc, proc.fallThroughEdge(id));
        }
        // (Other terminators with jumpInserted already failed
        // succ-preservation; there is no displaced successor to prove.)

        checker.check(Obligation::JumpTargets, displaced != kNoBlock, pid,
                      id, [&] {
                          return std::string(
                              "inserted jump displaces no CFG successor; "
                              "its target is undefined");
                      });
        if (displaced == kNoBlock)
            continue;
        checker.check(Obligation::JumpTargets,
                      bl.jumpAddr == bl.addr + block.numInstrs, pid, id,
                      [&] {
                          std::ostringstream out;
                          out << "inserted jump at " << bl.jumpAddr
                              << " does not trail the block (expected "
                              << bl.addr + block.numInstrs
                              << "); the not-branch path would not "
                                 "reach it";
                          return str(out);
                      });
        checker.check(
            Obligation::JumpTargets,
            displaced < layout.blocks.size(), pid, id, [&] {
                std::ostringstream out;
                out << "displaced successor " << displaced
                    << " has no layout record to target";
                return str(out);
            });
    }
}

}  // namespace

VerifyResult
verifyLayout(const Program &program, const ProgramLayout &layout)
{
    Checker checker;

    if (!checker.check(Obligation::ProcBijection,
                       layout.procs.size() == program.numProcs(), kNoProc,
                       kNoBlock, [&] {
                           std::ostringstream out;
                           out << "layout has " << layout.procs.size()
                               << " procedure records for a "
                               << program.numProcs()
                               << "-procedure program";
                           return str(out);
                       }))
        return std::move(checker.result);

    Addr base = 0;
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        const Procedure &proc = program.proc(p);
        const ProcLayout &pl = layout.procs[p];

        const bool sized = checker.check(
            Obligation::ProcBijection,
            pl.blocks.size() == proc.numBlocks(), p, kNoBlock, [&] {
                std::ostringstream out;
                out << "layout has " << pl.blocks.size()
                    << " block records for a " << proc.numBlocks()
                    << "-block procedure";
                return str(out);
            });

        checker.check(Obligation::AddressContiguity, pl.base == base, p,
                      kNoBlock, [&] {
                          std::ostringstream out;
                          out << "procedure base " << pl.base
                              << " leaves a gap or overlap; contiguous "
                                 "placement expects " << base;
                          return str(out);
                      });
        base = pl.base + pl.totalInstrs;

        if (!sized || !checkBlockBijection(checker, proc, pl))
            continue;  // per-block obligations need a walkable order

        if (!pl.order.empty()) {
            checker.check(Obligation::EntryFirst,
                          pl.order.front() == proc.entry(), p,
                          pl.order.front(), [&] {
                              std::ostringstream out;
                              out << "layout starts with block "
                                  << pl.order.front()
                                  << " but the procedure entry is block "
                                  << proc.entry()
                                  << "; callers jump to the first "
                                     "address";
                              return str(out);
                          });
        }
        checkAddresses(checker, proc, pl);
        checkSizeAccounting(checker, proc, pl);
        checkSuccPreservation(checker, proc, pl);
        checkJumpTargets(checker, proc, pl);
    }

    checker.check(Obligation::AddressContiguity,
                  layout.totalInstrs == base, kNoProc, kNoBlock, [&] {
                      std::ostringstream out;
                      out << "program footprint " << layout.totalInstrs
                          << " disagrees with the last procedure's end "
                          << base;
                      return str(out);
                  });
    return std::move(checker.result);
}

VerifyResult
verifyRelaxedLayout(const Program &program, const ProgramLayout &layout,
                    const RelaxedLayout &relaxed,
                    const EncodingModel &model)
{
    Checker checker;

    if (!checker.check(Obligation::RelaxContiguity,
                       relaxed.procs.size() == program.numProcs(), kNoProc,
                       kNoBlock, [&] {
                           std::ostringstream out;
                           out << "relaxed layout has "
                               << relaxed.procs.size()
                               << " procedure records for a "
                               << program.numProcs()
                               << "-procedure program";
                           return str(out);
                       }))
        return std::move(checker.result);

    // The word-model instruction enumeration is the specification the
    // byte layout must refine slot for slot. It is enumerated one
    // procedure at a time into one buffer; each block contributes its
    // base slots plus an inserted jump, which sizes the whole up front.
    std::size_t spec_size = 0;
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        const ProcLayout &pl = layout.procs[p];
        for (const BlockId id : pl.order)
            spec_size += pl.blocks[id].baseInstrs +
                         (pl.blocks[id].jumpInserted ? 1 : 0);
    }
    if (!checker.check(Obligation::RelaxContiguity,
                       relaxed.instrs.size() == spec_size, kNoProc,
                       kNoBlock, [&] {
                           std::ostringstream out;
                           out << "relaxed layout has "
                               << relaxed.instrs.size() << " slots but the "
                               << "materialized layout enumerates "
                               << spec_size;
                           return str(out);
                       }))
        return std::move(checker.result);

    std::vector<LayoutInstr> spec;
    OutEdgeIndex spec_edges;
    std::size_t spec_first = 0;  // global slot of spec[0]
    ProcId spec_proc = 0;        // next procedure to enumerate
    std::uint64_t cursor = 0;
    for (std::size_t i = 0; i < relaxed.instrs.size(); ++i) {
        while (i - spec_first >= spec.size()) {
            spec_first += spec.size();
            spec.clear();
            appendProcInstrs(program.proc(spec_proc),
                             layout.procs[spec_proc], spec, spec_edges);
            ++spec_proc;
        }
        const RelaxedInstr &instr = relaxed.instrs[i];
        const LayoutInstr &want = spec[i - spec_first];

        // The slot's procedure is the relaxed range that holds it.
        const RelaxedProc &holder = relaxed.procs[want.proc];
        checker.check(Obligation::RelaxContiguity,
                      instr.cls == want.cls &&
                          instr.wordAddr == want.wordAddr &&
                          i - holder.firstInstr < holder.numInstrs &&
                          instr.block == want.block &&
                          instr.targetBlock() == want.targetBlock &&
                          instr.callee() == want.callee,
                      want.proc, want.block, [&] {
                          std::ostringstream out;
                          out << "slot " << i << " ("
                              << instrClassName(instr.cls) << " at word "
                              << instr.wordAddr
                              << ") diverges from the materialized slot ("
                              << instrClassName(want.cls) << " at word "
                              << want.wordAddr << ")";
                          return str(out);
                      });

        const unsigned expect_size = model.instrBytes(instr.cls, instr.form);
        const std::uint64_t fixed_addr =
            std::uint64_t{instr.wordAddr} * kInstrBytes;
        const bool fixed_ok =
            model.kind() != EncodingModelKind::FixedWord ||
            instr.byteAddr == fixed_addr;
        checker.check(Obligation::RelaxContiguity,
                      instr.byteAddr == cursor &&
                          instr.size == expect_size && fixed_ok,
                      want.proc, instr.block, [&] {
                          std::ostringstream out;
                          out << "slot " << i << " at byte "
                              << instr.byteAddr << " size "
                              << unsigned{instr.size}
                              << ": the gap-free walk expects byte "
                              << cursor << " size " << expect_size;
                          if (!fixed_ok)
                              out << " (fixed-word model requires byte = "
                                  << fixed_addr << ")";
                          return str(out);
                      });
        cursor += expect_size;
    }
    checker.check(Obligation::RelaxContiguity,
                  relaxed.totalBytes == cursor, kNoProc, kNoBlock, [&] {
                      std::ostringstream out;
                      out << "relaxed footprint " << relaxed.totalBytes
                          << " bytes disagrees with the sum of slot sizes "
                          << cursor;
                      return str(out);
                  });

    // Procedure and block byte bounds must agree with their slots.
    std::uint64_t base = 0;
    std::uint32_t first = 0;
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        const RelaxedProc &proc = relaxed.procs[p];
        std::uint64_t bytes = 0;
        for (std::uint32_t s = 0; s < proc.numInstrs; ++s)
            bytes += relaxed.instrs[proc.firstInstr + s].size;
        checker.check(Obligation::RelaxContiguity,
                      proc.byteBase == base && proc.firstInstr == first &&
                          proc.byteSize == bytes,
                      p, kNoBlock, [&] {
                          std::ostringstream out;
                          out << "procedure bytes [" << proc.byteBase
                              << ", +" << proc.byteSize << ") slots ["
                              << proc.firstInstr << ", +" << proc.numInstrs
                              << ") disagree with contiguous placement at "
                              << base << " (" << bytes << " bytes, slot "
                              << first << ")";
                          return str(out);
                      });
        base += bytes;
        first += proc.numInstrs;

        const ProcLayout &pl = layout.procs[p];
        for (BlockId id = 0; id < proc.blocks.size(); ++id) {
            const RelaxedBlock &block = proc.blocks[id];
            std::uint32_t block_bytes = 0;
            for (std::uint32_t s = 0; s < block.numInstrs; ++s)
                block_bytes +=
                    relaxed.instrs[block.firstInstr + s].size;
            const std::uint64_t expect_addr =
                block.numInstrs > 0
                    ? relaxed.instrs[block.firstInstr].byteAddr
                    : block.byteAddr;
            checker.check(
                Obligation::RelaxContiguity,
                id < pl.blocks.size() &&
                    block.numInstrs == pl.blocks[id].finalInstrs &&
                    block.byteAddr == expect_addr &&
                    block.byteSize == block_bytes,
                p, id, [&] {
                    std::ostringstream out;
                    out << "block bytes [" << block.byteAddr << ", +"
                        << block.byteSize << ") over " << block.numInstrs
                        << " slots disagree with its slot range";
                    return str(out);
                });
        }
    }

    // displacement-range: every targeted slot's displacement is exactly
    // target minus end-of-instruction and representable in its form;
    // forms are Short/Near exactly for relaxable classes.
    ProcId proc = 0;
    for (std::size_t i = 0; i < relaxed.instrs.size(); ++i) {
        const RelaxedInstr &instr = relaxed.instrs[i];
        // The slot's procedure is the first range, in order, that holds
        // it; kNoProc when none does.
        while (proc < relaxed.procs.size() &&
               i - relaxed.procs[proc].firstInstr >=
                   relaxed.procs[proc].numInstrs)
            ++proc;
        const ProcId owner = proc < relaxed.procs.size() ? proc : kNoProc;
        const bool relaxable = model.relaxable(instr.cls);
        checker.check(Obligation::DisplacementRange,
                      relaxable ? instr.form != BranchForm::None
                                : instr.form == BranchForm::None,
                      owner, instr.block, [&] {
                          std::ostringstream out;
                          out << instrClassName(instr.cls) << " at byte "
                              << instr.byteAddr << " carries form "
                              << branchFormName(instr.form) << " but is "
                              << (relaxable ? "" : "not ")
                              << "relaxable under " << model.name();
                          return str(out);
                      });
        if (instr.targetBlock() == kNoBlock)
            continue;
        if (owner == kNoProc ||
            instr.targetBlock() >= relaxed.procs[owner].blocks.size()) {
            checker.check(Obligation::DisplacementRange, false, owner,
                          instr.block, [&] {
                              return std::string(
                                  "branch target block has no relaxed "
                                  "placement");
                          });
            continue;
        }
        const std::uint64_t target =
            relaxed.procs[owner].blocks[instr.targetBlock()].byteAddr;
        const std::int64_t disp =
            static_cast<std::int64_t>(target) -
            static_cast<std::int64_t>(std::uint64_t{instr.byteAddr} +
                                      instr.size);
        checker.check(
            Obligation::DisplacementRange,
            instr.disp == disp &&
                model.displacementFits(instr.cls, instr.form, disp),
            owner, instr.block, [&] {
                std::ostringstream out;
                out << instrClassName(instr.cls) << " at byte "
                    << instr.byteAddr << " to block " << instr.targetBlock()
                    << " records displacement " << instr.disp
                    << " but the target at byte " << target << " is "
                    << disp << " away"
                    << (model.displacementFits(instr.cls, instr.form, disp)
                            ? ""
                            : ", which escapes its form");
                return str(out);
            });
    }

    return std::move(checker.result);
}

}  // namespace balign
