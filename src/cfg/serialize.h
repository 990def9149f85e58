/**
 * @file
 * Text serialization of programs (CFG + profile), enabling the command
 * line tools and interchange of profiled program models.
 *
 * Format (line oriented, '#' comments):
 *
 *   balign-program v1
 *   program <name>
 *   main <proc-id>
 *   proc <id> <name> entry <block-id>
 *   block <id> <instrs> <terminator> [pattern <len> <mask>]
 *         [corr <block-id> <invert>]
 *   call <block-id> <offset> <callee-proc>
 *   edge <src> <dst> <kind> <weight> <bias>
 *   endproc
 *
 * Terminators: fall | cond | uncond | indirect | return.
 * Edge kinds: fall | taken | other.
 * Block/call/edge lines belong to the most recent proc line; blocks must
 * appear in id order (ids are dense). Ids, counts and weights are
 * unsigned decimal integers (no sign); bias is a decimal double. Edge
 * weights may total at most kMaxProfileWeight.
 */

#ifndef BALIGN_CFG_SERIALIZE_H
#define BALIGN_CFG_SERIALIZE_H

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "cfg/program.h"

namespace balign {

/**
 * Ceiling on a program's total edge weight, enforced as edges are read:
 * an edge that lifts the running total past it is a parse error on its
 * line. Every edge weight, and every sum of weights downstream code forms
 * (block inflow and outflow, procedure and program totals), is then at
 * most 2^60, and the largest weight x cycles product, the total times
 * the 7-cycle worst case of one branch execution under Table 1, stays
 * below 2^63. DESIGN.md §15.1 gives the derivation.
 */
inline constexpr Weight kMaxProfileWeight = Weight{1} << 60;

/// Writes @p program (including profile weights and biases) to @p os.
void writeProgram(const Program &program, std::ostream &os);

/// Serializes to a string.
std::string programToString(const Program &program);

/// Parse outcome: the program, or an error with a 1-based line number.
struct ParseResult
{
    std::optional<Program> program;
    std::string error;
    std::size_t errorLine = 0;

    bool ok() const { return program.has_value(); }
};

/**
 * Parses a program from @p text in one pass, in place. The result
 * validates before returning; structural problems are reported as parse
 * errors (errorLine 0).
 */
ParseResult programFromString(std::string_view text);

/// Reads all of @p is, then parses it as programFromString does.
ParseResult readProgram(std::istream &is);

/// File helpers: fatal() on I/O failure, parse errors reported in-band.
void saveProgram(const Program &program, const std::string &path);
ParseResult loadProgram(const std::string &path);

}  // namespace balign

#endif  // BALIGN_CFG_SERIALIZE_H
