/**
 * @file
 * Structural validation for procedures and programs.
 *
 * A thin wrapper over the lint engine's Error-severity cfg.* rules
 * (lintCfgErrors in lint/rules.h): each diagnostic becomes a
 * ValidationError, while advisory findings (unreachable blocks, dead
 * ends, irreducible loop regions) stay lint-only. Invariants enforced (beyond the incremental checks in
 * CfgBuilder):
 *  - every block's out-edges match its terminator's arity and kinds;
 *  - edge endpoints are in range and the in/out index lists are consistent;
 *  - the entry block exists;
 *  - call sites reference existing procedures (program-level);
 *  - conditional blocks have exactly two out-edges (taken + fall-through);
 *  - call sites sit strictly before the terminator instruction slot.
 */

#ifndef BALIGN_CFG_VALIDATE_H
#define BALIGN_CFG_VALIDATE_H

#include <string>
#include <vector>

#include "cfg/program.h"

namespace balign {

/// One validation failure.
struct ValidationError
{
    ProcId proc = kNoProc;
    BlockId block = kNoBlock;
    std::string message;
};

/// Collects all structural problems in @p proc. Empty result == valid.
std::vector<ValidationError> validate(const Procedure &proc);

/// Collects all structural problems across @p program.
std::vector<ValidationError> validate(const Program &program);

/// Convenience: panics with the first error if invalid.
void validateOrDie(const Program &program);

}  // namespace balign

#endif  // BALIGN_CFG_VALIDATE_H
