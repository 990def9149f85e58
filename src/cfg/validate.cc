/**
 * validate() runs the lint engine's Error-severity cfg.* rules
 * (lint/cfg_rules.cc) — one implementation of the structural invariants
 * instead of two drifting copies. Each diagnostic becomes a
 * ValidationError; the advisory findings (unreachable blocks, dead ends,
 * irreducible regions) are lint-only, never run here, and never fail
 * validation.
 */

#include "cfg/validate.h"

#include "lint/rules.h"
#include "support/log.h"

namespace balign {

namespace {

std::vector<ValidationError>
errorsFromDiagnostics(const std::vector<Diagnostic> &diagnostics)
{
    std::vector<ValidationError> errors;
    for (const Diagnostic &diagnostic : diagnostics) {
        errors.push_back(ValidationError{diagnostic.loc.proc,
                                         diagnostic.loc.block,
                                         diagnostic.message});
    }
    return errors;
}

}  // namespace

std::vector<ValidationError>
validate(const Procedure &proc)
{
    std::vector<Diagnostic> diagnostics;
    lintCfgProcErrors(proc, nullptr, diagnostics);
    return errorsFromDiagnostics(diagnostics);
}

std::vector<ValidationError>
validate(const Program &program)
{
    std::vector<Diagnostic> diagnostics;
    lintCfgErrors(program, diagnostics);
    return errorsFromDiagnostics(diagnostics);
}

void
validateOrDie(const Program &program)
{
    const auto errors = validate(program);
    if (errors.empty())
        return;
    for (const auto &error : errors) {
        warn("validate: proc=%d block=%d: %s",
             error.proc == kNoProc ? -1 : static_cast<int>(error.proc),
             error.block == kNoBlock ? -1 : static_cast<int>(error.block),
             error.message.c_str());
    }
    panic("program %s failed validation with %zu errors",
          program.name().c_str(), errors.size());
}

}  // namespace balign
