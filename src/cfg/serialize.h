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
 * weights may total at most kMaxProfileWeight, and block sizes at most
 * kMaxProgramInstrs.
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

/**
 * Ceiling on a program's total instruction count, enforced as blocks are
 * read: a block that lifts the running total past it is a parse error on
 * its line. The tools build tables with one entry per instruction (the
 * word-model enumeration, the relaxed layout, the emitted text), so an
 * unbounded block size is an unbounded allocation. 2^24 is about twice
 * the ~8M instructions of the gcc model scaled to 40,000 procedures.
 */
inline constexpr std::uint64_t kMaxProgramInstrs = std::uint64_t{1} << 24;

/// Writes programToString(@p program) to @p os in one write.
void writeProgram(const Program &program, std::ostream &os);

/// The text of @p program, profile weights and biases included; it does
/// not depend on the locale, and every bias reads back bit for bit.
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

/// The rest of @p is, read in 64 KiB chunks.
std::string readText(std::istream &is);

/// Reads the rest of @p is (readText), then parses it as
/// programFromString does.
ParseResult readProgram(std::istream &is);

/// File helpers: fatal() on I/O failure, parse errors reported in-band.
void saveProgram(const Program &program, const std::string &path);
ParseResult loadProgram(const std::string &path);

}  // namespace balign

#endif  // BALIGN_CFG_SERIALIZE_H
