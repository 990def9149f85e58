#include "cfg/serialize.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <string_view>
#include <type_traits>

#include "cfg/validate.h"
#include "support/log.h"

namespace balign {

namespace {

const char *
termToken(Terminator term)
{
    switch (term) {
      case Terminator::FallThrough: return "fall";
      case Terminator::CondBranch: return "cond";
      case Terminator::UncondBranch: return "uncond";
      case Terminator::IndirectJump: return "indirect";
      case Terminator::Return: return "return";
    }
    return "?";
}

bool
termFromToken(std::string_view token, Terminator &term)
{
    if (token == "fall")
        term = Terminator::FallThrough;
    else if (token == "cond")
        term = Terminator::CondBranch;
    else if (token == "uncond")
        term = Terminator::UncondBranch;
    else if (token == "indirect")
        term = Terminator::IndirectJump;
    else if (token == "return")
        term = Terminator::Return;
    else
        return false;
    return true;
}

const char *
kindToken(EdgeKind kind)
{
    switch (kind) {
      case EdgeKind::FallThrough: return "fall";
      case EdgeKind::Taken: return "taken";
      case EdgeKind::Other: return "other";
    }
    return "?";
}

bool
kindFromToken(std::string_view token, EdgeKind &kind)
{
    if (token == "fall")
        kind = EdgeKind::FallThrough;
    else if (token == "taken")
        kind = EdgeKind::Taken;
    else if (token == "other")
        kind = EdgeKind::Other;
    else
        return false;
    return true;
}

/**
 * Appends the text of a program to one string. Numbers go through
 * std::to_chars, which ignores the locale: integers in plain decimal,
 * biases at 17 significant digits in the general format, exactly what
 * printf's "%.17g" (and an ostream at max_digits10 under the classic
 * locale) prints, so every bias survives the round trip bit for bit.
 */
class TextWriter
{
  public:
    explicit TextWriter(std::string &out) : out_(out) {}

    TextWriter &
    operator<<(std::string_view text)
    {
        out_.append(text);
        return *this;
    }

    TextWriter &
    operator<<(char c)
    {
        out_.push_back(c);
        return *this;
    }

    template <typename T>
        requires std::is_unsigned_v<T>
    TextWriter &
    operator<<(T value)
    {
        char buf[std::numeric_limits<T>::digits10 + 1];
        out_.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
        return *this;
    }

    TextWriter &
    operator<<(double value)
    {
        constexpr int kDigits = std::numeric_limits<double>::max_digits10;
        // Sign, 17 digits, point, and an exponent of at most "e-324".
        char buf[32];
        out_.append(buf, std::to_chars(buf, buf + sizeof buf, value,
                                       std::chars_format::general, kDigits)
                             .ptr);
        return *this;
    }

  private:
    std::string &out_;
};

}  // namespace

std::string
programToString(const Program &program)
{
    std::string text;
    TextWriter os(text);
    os << "balign-program v1\n";
    os << "program " << program.name() << '\n';
    os << "main " << program.mainProc() << '\n';
    // Provenance line only when it deviates from the Measured default,
    // so pre-existing serialized programs stay byte-identical.
    if (program.profileProvenance() != ProfileProvenance::Measured) {
        os << "profile " << profileProvenanceName(program.profileProvenance())
           << '\n';
    }
    for (const auto &proc : program.procs()) {
        os << "proc " << proc.id() << ' ' << proc.name() << " entry "
           << proc.entry() << '\n';
        for (const auto &block : proc.blocks()) {
            os << "block " << block.id << ' ' << block.numInstrs << ' '
               << termToken(block.term);
            if (block.patternLength > 0) {
                os << " pattern " << unsigned(block.patternLength) << ' '
                   << block.patternMask;
            }
            if (block.correlatedWith != kNoBlock) {
                os << " corr " << block.correlatedWith << ' '
                   << (block.correlatedInvert ? '1' : '0');
            }
            os << '\n';
            for (const auto &site : block.calls) {
                os << "call " << block.id << ' ' << site.offset << ' '
                   << site.callee << '\n';
            }
        }
        for (const auto &edge : proc.edges()) {
            os << "edge " << edge.src << ' ' << edge.dst << ' '
               << kindToken(edge.kind) << ' ' << edge.weight << ' '
               << edge.bias << '\n';
        }
        os << "endproc\n";
    }
    return text;
}

void
writeProgram(const Program &program, std::ostream &os)
{
    const std::string text = programToString(program);
    os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

namespace {

/// Whitespace of the classic locale; a line never holds '\n'.
bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r';
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/**
 * Reads the fields of one line in the grammar of `std::istream >>` under
 * the classic locale, which the format has always been read with: each
 * read skips leading whitespace, a word runs to the next whitespace, and
 * a number runs to the first character outside its grammar, so `1x`
 * reads as the number 1 followed by the word `x`. A read that fails
 * leaves the cursor where it stopped; every caller then rejects the line.
 */
class FieldCursor
{
  public:
    explicit FieldCursor(std::string_view line)
        : p_(line.data()), end_(line.data() + line.size())
    {
    }

    bool
    word(std::string_view &out)
    {
        skipSpace();
        const char *start = p_;
        while (p_ != end_ && !isSpace(*p_))
            ++p_;
        out = std::string_view(start, static_cast<std::size_t>(p_ - start));
        return p_ != start;
    }

    /// An unsigned field: decimal digits only. A sign is rejected, so
    /// "-1" never wraps to the type's maximum.
    template <typename T>
    bool
    unsignedField(T &out)
    {
        skipSpace();
        std::uint64_t magnitude = 0;
        if (!digits(magnitude, std::numeric_limits<T>::max()))
            return false;
        out = static_cast<T>(magnitude);
        return true;
    }

    /// A signed int field: optional sign, then decimal digits.
    bool
    intField(int &out)
    {
        skipSpace();
        bool negative = false;
        if (p_ != end_ && (*p_ == '+' || *p_ == '-')) {
            negative = *p_ == '-';
            ++p_;
        }
        std::uint64_t magnitude = 0;
        const std::uint64_t limit =
            std::uint64_t{std::numeric_limits<int>::max()} + 1;
        if (!digits(magnitude, limit) || (!negative && magnitude == limit))
            return false;
        out = negative ? static_cast<int>(-static_cast<std::int64_t>(magnitude))
                       : static_cast<int>(magnitude);
        return true;
    }

    /**
     * A double field: optional sign, digits with at most one '.', and an
     * optional exponent, as the stream collects them (no "inf", "nan" or
     * hex form; "0x1p3" reads as 0). The mantissa needs a digit and an
     * exponent needs a digit. A value beyond the double range fails; one
     * below it rounds to zero, as strtod rounds it.
     */
    bool
    doubleField(double &out)
    {
        skipSpace();
        const char *number = p_;  // from_chars reads a '-' but no '+'
        bool negative = false;
        if (p_ != end_ && (*p_ == '+' || *p_ == '-')) {
            negative = *p_ == '-';
            number += *p_ == '+';
            ++p_;
        }
        // Place of the leading nonzero digit relative to the point (1 for
        // "1.5", -2 for "0.005"), to tell an overflow from an underflow.
        std::int64_t scale = 0;
        bool nonzero = false;
        bool dot = false;
        std::size_t mantissaDigits = 0;
        for (; p_ != end_; ++p_) {
            if (*p_ == '.' && !dot) {
                dot = true;
                continue;
            }
            if (!isDigit(*p_))
                break;
            ++mantissaDigits;
            nonzero = nonzero || *p_ != '0';
            if (nonzero && !dot)
                ++scale;
            else if (!nonzero && dot)
                --scale;
        }
        if (mantissaDigits == 0)
            return false;
        std::int64_t exponent = 0;
        if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
            ++p_;
            bool negativeExponent = false;
            if (p_ != end_ && (*p_ == '+' || *p_ == '-')) {
                negativeExponent = *p_ == '-';
                ++p_;
            }
            if (p_ == end_ || !isDigit(*p_))
                return false;
            for (; p_ != end_ && isDigit(*p_); ++p_)
                exponent = std::min<std::int64_t>(exponent * 10 + (*p_ - '0'),
                                                  1'000'000'000);
            if (negativeExponent)
                exponent = -exponent;
        }
        const auto [end, ec] = std::from_chars(number, p_, out);
        if (ec == std::errc::result_out_of_range) {
            // Only a value past the double range (at least 1) or below
            // the least subnormal is out of range.
            if (scale + exponent > 0)
                return false;
            out = negative ? -0.0 : 0.0;
            return true;
        }
        return ec == std::errc() && end == p_;
    }

  private:
    void
    skipSpace()
    {
        while (p_ != end_ && isSpace(*p_))
            ++p_;
    }

    /// Decimal digits; fails without a digit or when the value exceeds
    /// @p limit. Every digit is consumed either way.
    bool
    digits(std::uint64_t &magnitude, std::uint64_t limit)
    {
        const char *first = p_;
        bool overflow = false;
        for (; p_ != end_ && isDigit(*p_); ++p_) {
            const auto digit = static_cast<std::uint64_t>(*p_ - '0');
            if (magnitude > (limit - digit) / 10)
                overflow = true;
            else
                magnitude = magnitude * 10 + digit;
        }
        return p_ != first && !overflow;
    }

    const char *p_;
    const char *end_;
};

}  // namespace

ParseResult
programFromString(std::string_view text)
{
    ParseResult result;
    Program program;
    Procedure *proc = nullptr;
    std::size_t line_no = 0;
    bool saw_header = false;
    Weight total_weight = 0;  // every edge so far, at most the ceiling
    std::uint64_t total_instrs = 0;  // every block so far, likewise

    auto fail = [&](const std::string &message) {
        result.program.reset();
        result.error = message;
        result.errorLine = line_no;
        return result;
    };
    auto quoted = [](const char *prefix, std::string_view token) {
        return std::string(prefix) + std::string(token) + "'";
    };

    // Lines end at '\n'; text after the last one is a line when nonempty.
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string_view::npos)
            eol = text.size();
        std::string_view line = text.substr(pos, eol - pos);
        pos = eol + 1;
        ++line_no;
        // Strip comments; whitespace-only lines hold no keyword.
        const std::size_t hash = line.find('#');
        if (hash != std::string_view::npos)
            line = line.substr(0, hash);
        FieldCursor fields(line);
        std::string_view keyword;
        if (!fields.word(keyword))
            continue;

        if (!saw_header) {
            if (keyword != "balign-program")
                return fail("missing 'balign-program v1' header");
            std::string_view version;
            fields.word(version);
            if (version != "v1")
                return fail(quoted("unsupported version '", version));
            saw_header = true;
            continue;
        }

        if (keyword == "block") {
            if (proc == nullptr)
                return fail("block outside proc");
            BlockId id;
            std::uint32_t instrs;
            std::string_view term_token;
            if (!fields.unsignedField(id) || !fields.unsignedField(instrs) ||
                !fields.word(term_token))
                return fail("bad block line");
            Terminator term;
            if (!termFromToken(term_token, term))
                return fail(quoted("unknown terminator '", term_token));
            if (id != proc->numBlocks())
                return fail("block ids must be dense and in order");
            if (instrs == 0)
                return fail("block must have at least one instruction");
            if (instrs > kMaxProgramInstrs - total_instrs)
                return fail("block of " + std::to_string(instrs) +
                            " instructions lifts the program past the 2^24 "
                            "instruction ceiling");
            total_instrs += instrs;
            const BlockId added = proc->addBlock(instrs, term);
            // Optional attributes.
            std::string_view attr;
            while (fields.word(attr)) {
                if (attr == "pattern") {
                    unsigned len;
                    std::uint32_t mask;
                    if (!fields.unsignedField(len) ||
                        !fields.unsignedField(mask) || len == 0 || len > 32)
                        return fail("bad pattern attribute");
                    proc->block(added).patternLength =
                        static_cast<std::uint8_t>(len);
                    proc->block(added).patternMask = mask;
                } else if (attr == "corr") {
                    BlockId controller;
                    int invert;
                    if (!fields.unsignedField(controller) ||
                        !fields.intField(invert))
                        return fail("bad corr attribute");
                    proc->block(added).correlatedWith = controller;
                    proc->block(added).correlatedInvert = invert != 0;
                } else {
                    return fail(quoted("unknown block attribute '", attr));
                }
            }
        } else if (keyword == "edge") {
            if (proc == nullptr)
                return fail("edge outside proc");
            BlockId src, dst;
            std::string_view kind_token;
            Weight weight;
            double bias;
            if (!fields.unsignedField(src) || !fields.unsignedField(dst) ||
                !fields.word(kind_token) || !fields.unsignedField(weight) ||
                !fields.doubleField(bias))
                return fail("bad edge line");
            EdgeKind kind;
            if (!kindFromToken(kind_token, kind))
                return fail(quoted("unknown edge kind '", kind_token));
            if (src >= proc->numBlocks() || dst >= proc->numBlocks())
                return fail("edge references unknown block");
            if (weight > kMaxProfileWeight - total_weight)
                return fail("edge weight " + std::to_string(weight) +
                            " lifts the program's total edge weight past "
                            "the 2^60 profile ceiling");
            total_weight += weight;
            proc->addEdge(src, dst, kind, weight, bias);
        } else if (keyword == "call") {
            if (proc == nullptr)
                return fail("call outside proc");
            BlockId block;
            std::uint32_t offset;
            ProcId callee;
            if (!fields.unsignedField(block) ||
                !fields.unsignedField(offset) || !fields.unsignedField(callee))
                return fail("bad call line");
            if (block >= proc->numBlocks())
                return fail("call references unknown block");
            proc->block(block).calls.push_back(CallSite{callee, offset});
        } else if (keyword == "proc") {
            ProcId id;
            std::string_view name, entry_kw;
            BlockId entry;
            if (!fields.unsignedField(id) || !fields.word(name) ||
                !fields.word(entry_kw) || !fields.unsignedField(entry) ||
                entry_kw != "entry")
                return fail("bad proc line");
            if (id != program.numProcs())
                return fail("proc ids must be dense and in order");
            program.addProc(std::string(name));
            proc = &program.proc(id);
            proc->setEntry(entry);
        } else if (keyword == "endproc") {
            if (proc == nullptr)
                return fail("endproc outside proc");
            proc = nullptr;
        } else if (keyword == "program") {
            std::string_view name;
            fields.word(name);
            program.setName(std::string(name));
        } else if (keyword == "main") {
            ProcId main = 0;
            if (!fields.unsignedField(main))
                return fail("bad main line");
            program.setMainProc(main);
        } else if (keyword == "profile") {
            std::string_view tag;
            ProfileProvenance provenance;
            if (!fields.word(tag) ||
                !profileProvenanceFromName(std::string(tag), provenance))
                return fail(quoted("unknown profile provenance '", tag));
            program.setProfileProvenance(provenance);
        } else {
            return fail(quoted("unknown keyword '", keyword));
        }
    }

    if (!saw_header)
        return fail("empty input");
    if (proc != nullptr)
        return fail("missing endproc");

    const auto errors = validate(program);
    if (!errors.empty()) {
        line_no = 0;
        return fail("program failed validation: " +
                    errors.front().message);
    }
    result.program = std::move(program);
    return result;
}

ParseResult
readProgram(std::istream &is)
{
    // Chunked reads from the stream buffer, not one virtual call per
    // character.
    std::string text;
    if (std::streambuf *buf = is.rdbuf()) {
        char chunk[1 << 16];
        for (std::streamsize got;
             (got = buf->sgetn(chunk, sizeof chunk)) > 0;)
            text.append(chunk, static_cast<std::size_t>(got));
    }
    return programFromString(text);
}

void
saveProgram(const Program &program, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '%s' for writing", path.c_str());
    writeProgram(program, os);
    if (!os)
        fatal("error writing '%s'", path.c_str());
}

ParseResult
loadProgram(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        ParseResult result;
        result.error = "cannot open '" + path + "'";
        return result;
    }
    return readProgram(is);
}

}  // namespace balign
