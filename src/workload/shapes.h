/**
 * @file
 * Hand-shaped single-procedure programs of a chosen size.
 *
 * The region-grammar generator keeps procedures small (its largest suite
 * procedure has a few hundred blocks), so it cannot show how an aligner
 * grows with procedure size. These builders make one procedure of about
 * the requested number of blocks in one of three shapes:
 *
 * - Ladder: a chain of conditional blocks, each falling through to the
 *   next and branching a short random distance forward (one in eight
 *   branches backward instead);
 * - SwitchHub: a loop around an indirect jump whose cases are small
 *   diamonds that all jump back to one latch block;
 * - LoopNest: loops nested several deep, each body a run of if-diamonds
 *   and inner loops.
 *
 * Edge weights are drawn from narrow ranges, so many edges tie exactly
 * and sibling edges nearly tie: the aligners' tie-breaks decide much of
 * the layout. Fall-through edges always target the next block id, as in
 * generated programs. The result depends only on the arguments.
 */

#ifndef BALIGN_WORKLOAD_SHAPES_H
#define BALIGN_WORKLOAD_SHAPES_H

#include <cstddef>
#include <cstdint>

#include "cfg/program.h"

namespace balign {

enum class LargeShape : std::uint8_t { Ladder, SwitchHub, LoopNest };

/// Printable name of a shape ("ladder", "switch-hub", "loop-nest").
const char *largeShapeName(LargeShape shape);

/// A one-procedure program of about @p blocks blocks (at least 8) in
/// @p shape, with weights drawn from @p seed. The program validates.
Program largeShapeProgram(LargeShape shape, std::size_t blocks,
                          std::uint64_t seed);

}  // namespace balign

#endif  // BALIGN_WORKLOAD_SHAPES_H
