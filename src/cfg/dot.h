/**
 * @file
 * Graphviz export of procedure CFGs, in the visual style of the paper's
 * figures: fall-through edges solid/bold, taken edges dashed, indirect
 * edges dotted; nodes labelled "id (numInstrs)"; edges labelled with their
 * percentage of all edge transitions in the procedure.
 */

#ifndef BALIGN_CFG_DOT_H
#define BALIGN_CFG_DOT_H

#include <ostream>
#include <string>

#include "cfg/procedure.h"

namespace balign {

/// Writes @p proc as a dot digraph to @p os. Edges below 1% of the
/// procedure's transitions stay unlabelled, as in the paper's figures.
void writeDot(const Procedure &proc, std::ostream &os);

/// Renders @p proc as a dot digraph string.
std::string toDot(const Procedure &proc);

}  // namespace balign

#endif  // BALIGN_CFG_DOT_H
