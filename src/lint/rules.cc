#include "lint/rules.h"

namespace balign {

const std::vector<RuleInfo> &
allLintRules()
{
    static const std::vector<RuleInfo> rules = {
        // CFG well-formedness.
        {"cfg.entry", Severity::Error,
         "program main and every procedure entry exist"},
        {"cfg.edge-targets", Severity::Error,
         "edge endpoints in range and cross-indexed by both blocks"},
        {"cfg.terminator-arity", Severity::Error,
         "out-edge kinds and counts match the block terminator"},
        {"cfg.call-site", Severity::Error,
         "call sites reference existing procedures and precede the "
         "terminator slot"},
        {"cfg.block-size", Severity::Error,
         "every block has at least one instruction"},
        {"cfg.unreachable-block", Severity::Warning,
         "block cannot be reached from its procedure entry"},
        {"cfg.dead-end", Severity::Warning,
         "non-return block has no successor (walk unwinds silently)"},
        {"cfg.irreducible", Severity::Warning,
         "loop region has a second entry (retreating edge that is not a "
         "back edge); Try15 grouping assumes reducible loops"},

        // Profile consistency.
        {"prof.flow-conservation", Severity::Error,
         "per-block edge inflow equals outflow (modulo entry/exit and "
         "truncated-walk slack)"},
        {"prof.unreachable-weight", Severity::Error,
         "profile weight on an edge no walk could reach"},
        {"prof.uncalled-proc", Severity::Error,
         "profile weight inside a procedure no call site references"},
        {"prof.bias-range", Severity::Error,
         "edge bias is a probability in [0, 1]"},
        {"prof.flow", Severity::Error,
         "natural-loop boundary flow conservation: exit weight never "
         "exceeds entry weight and strands at most the truncated-walk "
         "slack"},
        {"prof.degenerate", Severity::Note,
         "program carries edges but a completely empty profile; aligners "
         "fall back to structural order (heavy sampling or thinning can "
         "produce this)"},

        // Static-estimator self-checks (the estimator runs on a copy;
        // the program's own profile is never touched).
        {"est.prob", Severity::Error,
         "estimated transition probabilities form a distribution over "
         "every block's out-edges"},
        {"est.flow", Severity::Error,
         "estimated integer profile conserves per-block flow within the "
         "stranding budget"},
        {"est.fallback", Severity::Note,
         "irreducible region made the estimator use the "
         "bounded-iteration fallback instead of the closed form"},

        // Layout legality.
        {"layout.entry-first", Severity::Error,
         "layout order starts with the procedure entry block"},
        {"layout.permutation", Severity::Error,
         "layout order is a permutation of all blocks"},
        {"layout.addresses", Severity::Error,
         "addresses strictly monotone, gap-free and contiguous across "
         "procedures"},
        {"layout.sizes", Severity::Error,
         "final/base sizes and branch/jump addresses agree with the "
         "transformation flags"},
        {"layout.branch-polarity", Severity::Error,
         "conditional realization agrees with layout adjacency"},
        {"layout.jump-needed", Severity::Error,
         "unconditional jumps inserted exactly where required and removed "
         "where adjacent"},
        {"layout.loop-split", Severity::Note,
         "hot natural loop laid out non-contiguously (its blocks span "
         "more slots than they fill)"},
        {"layout.reach", Severity::Note,
         "conditional branch displacement exceeds the short-encoding "
         "range of the active encoding model after relaxation"},

        // Cost-model relations.
        {"cost.monotone", Severity::Error,
         "cost-aware layouts never model-cost more than the Greedy "
         "baseline (Table 1 recomputation)"},

        // Decoded-object findings (binary-level mirrors of cfg.* /
        // layout.* rules, derived from the independent disassembly).
        {"obj.unreachable", Severity::Warning,
         "decoded basic block is unreachable from its procedure entry in "
         "the decoded control-flow graph"},
        {"obj.long-form", Severity::Note,
         "decoded branch kept its near (rel32) form — the relaxation "
         "fixpoint could not shorten it"},
    };
    return rules;
}

const RuleInfo *
findLintRule(std::string_view id)
{
    for (const RuleInfo &rule : allLintRules()) {
        if (id == rule.id)
            return &rule;
    }
    return nullptr;
}

}  // namespace balign
