/**
 * @file
 * Tests for program serialization: round trips over hand-built and
 * generated programs, the writer's number text against printf and under
 * a foreign global locale, and error reporting for malformed input.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdio>
#include <limits>
#include <locale>
#include <sstream>
#include <streambuf>

#include "cfg/serialize.h"
#include "check/fuzz.h"
#include "workload/generator.h"
#include "workload/paper_figures.h"
#include "workload/suite.h"

using namespace balign;

namespace {

/// Structural + profile equality.
void
expectEqualPrograms(const Program &a, const Program &b)
{
    ASSERT_EQ(a.numProcs(), b.numProcs());
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.mainProc(), b.mainProc());
    for (ProcId p = 0; p < a.numProcs(); ++p) {
        const Procedure &pa = a.proc(p);
        const Procedure &pb = b.proc(p);
        EXPECT_EQ(pa.name(), pb.name());
        EXPECT_EQ(pa.entry(), pb.entry());
        ASSERT_EQ(pa.numBlocks(), pb.numBlocks());
        ASSERT_EQ(pa.numEdges(), pb.numEdges());
        for (BlockId blk = 0; blk < pa.numBlocks(); ++blk) {
            const BasicBlock &ba = pa.block(blk);
            const BasicBlock &bb = pb.block(blk);
            EXPECT_EQ(ba.numInstrs, bb.numInstrs);
            EXPECT_EQ(ba.term, bb.term);
            EXPECT_EQ(ba.patternLength, bb.patternLength);
            EXPECT_EQ(ba.patternMask, bb.patternMask);
            EXPECT_EQ(ba.correlatedWith, bb.correlatedWith);
            EXPECT_EQ(ba.correlatedInvert, bb.correlatedInvert);
            ASSERT_EQ(ba.calls.size(), bb.calls.size());
            for (std::size_t c = 0; c < ba.calls.size(); ++c) {
                EXPECT_EQ(ba.calls[c].callee, bb.calls[c].callee);
                EXPECT_EQ(ba.calls[c].offset, bb.calls[c].offset);
            }
        }
        for (std::size_t e = 0; e < pa.numEdges(); ++e) {
            const Edge &ea = pa.edge(e);
            const Edge &eb = pb.edge(e);
            EXPECT_EQ(ea.src, eb.src);
            EXPECT_EQ(ea.dst, eb.dst);
            EXPECT_EQ(ea.kind, eb.kind);
            EXPECT_EQ(ea.weight, eb.weight);
            EXPECT_NEAR(ea.bias, eb.bias, 1e-9);
        }
    }
}

}  // namespace

TEST(Serialize, RoundTripFigure3)
{
    const Program original = figure3Loop();
    const ParseResult parsed =
        programFromString(programToString(original));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    expectEqualPrograms(original, *parsed.program);
}

TEST(Serialize, RoundTripFigure1WithWeights)
{
    const Program original = figure1Espresso();
    const ParseResult parsed =
        programFromString(programToString(original));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    expectEqualPrograms(original, *parsed.program);
}

TEST(Serialize, RoundTripGeneratedSuitePrograms)
{
    for (const char *name : {"compress", "alvinn", "idl"}) {
        const Program original = generateProgram(suiteSpec(name));
        const ParseResult parsed =
            programFromString(programToString(original));
        ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.error;
        expectEqualPrograms(original, *parsed.program);
    }
}

TEST(Serialize, CommentsAndBlankLinesIgnored)
{
    const std::string text = R"(# a comment
balign-program v1
program tiny

main 0
proc 0 main entry 0   # trailing comment
block 0 3 return
endproc
)";
    const ParseResult parsed = programFromString(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.program->name(), "tiny");
    EXPECT_EQ(parsed.program->proc(0).block(0).numInstrs, 3u);
}

TEST(Serialize, MissingHeaderRejected)
{
    const ParseResult parsed = programFromString("program x\n");
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("header"), std::string::npos);
    EXPECT_EQ(parsed.errorLine, 1u);
}

TEST(Serialize, UnknownKeywordRejectedWithLineNumber)
{
    const std::string text = "balign-program v1\nprogram x\nbogus 1\n";
    const ParseResult parsed = programFromString(text);
    EXPECT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.errorLine, 3u);
}

TEST(Serialize, NonDenseBlockIdsRejected)
{
    const std::string text = R"(balign-program v1
program x
main 0
proc 0 main entry 0
block 1 3 return
endproc
)";
    const ParseResult parsed = programFromString(text);
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("dense"), std::string::npos);
}

TEST(Serialize, EdgeToUnknownBlockRejected)
{
    const std::string text = R"(balign-program v1
program x
main 0
proc 0 main entry 0
block 0 3 uncond
edge 0 7 taken 0 1.0
endproc
)";
    const ParseResult parsed = programFromString(text);
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("unknown block"), std::string::npos);
}

TEST(Serialize, StructurallyInvalidProgramRejected)
{
    // A conditional block with only one out-edge fails validation.
    const std::string text = R"(balign-program v1
program x
main 0
proc 0 main entry 0
block 0 3 cond
block 1 1 return
edge 0 1 taken 0 1.0
endproc
)";
    const ParseResult parsed = programFromString(text);
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("validation"), std::string::npos);
}

TEST(Serialize, MissingEndprocRejected)
{
    const std::string text = R"(balign-program v1
program x
main 0
proc 0 main entry 0
block 0 3 return
)";
    const ParseResult parsed = programFromString(text);
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("endproc"), std::string::npos);
}

TEST(Serialize, FileRoundTrip)
{
    const Program original = figure2Alvinn();
    const std::string path = "/tmp/balign_serialize_test.prog";
    saveProgram(original, path);
    const ParseResult parsed = loadProgram(path);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    expectEqualPrograms(original, *parsed.program);
}

namespace {

/// An unseekable stream buffer that hands out at most 1,000 bytes of a
/// string per refill, as a pipe does.
class PipeBuf : public std::streambuf
{
  public:
    explicit PipeBuf(std::string_view text) : text_(text) {}

  protected:
    int_type
    underflow() override
    {
        if (pos_ == text_.size())
            return traits_type::eof();
        chunk_ = text_.substr(pos_, 1000);
        pos_ += chunk_.size();
        setg(chunk_.data(), chunk_.data(), chunk_.data() + chunk_.size());
        return traits_type::to_int_type(chunk_.front());
    }

  private:
    std::string_view text_;
    std::size_t pos_ = 0;
    std::string chunk_;
};

}  // namespace

TEST(Serialize, ReadProgramReadsRestOfStream)
{
    const std::string text = programToString(generateProgram(suiteSpec("gcc")));
    ASSERT_GT(text.size(), 1u << 16);  // past the first chunk of a pipe

    // A pipe is read in chunks to its end.
    PipeBuf pipe(text);
    std::istream piped(&pipe);
    const ParseResult fromPipe = readProgram(piped);
    ASSERT_TRUE(fromPipe.ok()) << fromPipe.error;
    EXPECT_EQ(programToString(*fromPipe.program), text);

    // A seekable stream is read from where it stands, not from its start.
    std::istringstream seekable("# a line already consumed\n" + text);
    std::string first;
    std::getline(seekable, first);
    const ParseResult rest = readProgram(seekable);
    ASSERT_TRUE(rest.ok()) << rest.error;
    EXPECT_EQ(programToString(*rest.program), text);
}

TEST(Serialize, LoadMissingFileReportsError)
{
    const ParseResult parsed = loadProgram("/nonexistent/path/prog");
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("cannot open"), std::string::npos);
}

TEST(Serialize, RoundTripDegenerateShapes)
{
    // The fuzzer's degenerate generators are the nastiest valid programs
    // we know how to build (self-loops, unreachable blocks, dense
    // indirect hubs, call chains past the walker's depth cap, outcome
    // patterns and correlations); all of them must survive the text
    // format unchanged.
    for (std::size_t kind = 0; kind < numDegenerateKinds(); ++kind) {
        const Program program = degenerateProgram(kind, 2);
        const auto parsed = programFromString(programToString(program));
        ASSERT_TRUE(parsed.ok())
            << degenerateKindName(kind) << ": " << parsed.error;
        expectEqualPrograms(program, *parsed.program);
    }
}

TEST(Serialize, TrulyEmptyProcedureRejected)
{
    // A procedure with no blocks at all cannot be walked; the parser must
    // reject it at validation instead of handing it to the pipeline.
    const char *text =
        "balign-program v1\n"
        "program empty\n"
        "main 0\n"
        "proc 0 main entry 0\n"
        "endproc\n";
    const auto parsed = programFromString(text);
    EXPECT_FALSE(parsed.ok());
    EXPECT_FALSE(parsed.error.empty());
}

TEST(Serialize, SignOnUnsignedFieldRejected)
{
    // A leading sign used to be read the way strtoul reads it: "-1" as
    // the type's maximum. Unsigned fields now take digits only.
    const std::string head = "balign-program v1\nprogram x\nmain 0\n"
                             "proc 0 main entry 0\n";
    const struct
    {
        std::string text;
        const char *error;
        std::size_t line;
    } rows[] = {
        {"balign-program v1\nmain -1\n", "bad main line", 2},
        {"balign-program v1\nmain +0\n", "bad main line", 2},
        {"balign-program v1\nproc -0 main entry 0\n", "bad proc line", 2},
        {head + "block 0 +2 return\n", "bad block line", 5},
        {head + "block 0 2 cond pattern 3 -5\n", "bad pattern attribute", 5},
        {head + "block 0 2 return\ncall 0 -1 0\n", "bad call line", 6},
        {head + "block 0 2 return\nedge 0 0 fall -1 0.5\n", "bad edge line",
         6},
    };
    for (const auto &row : rows) {
        SCOPED_TRACE(row.text);
        const ParseResult parsed = programFromString(row.text);
        EXPECT_FALSE(parsed.ok());
        EXPECT_EQ(parsed.error, row.error);
        EXPECT_EQ(parsed.errorLine, row.line);
    }

    // corr's invert flag is a signed int and keeps its sign; biases are
    // doubles and keep theirs.
    const ParseResult signedOk = programFromString(
        head + "block 0 2 cond corr 0 -1\nblock 1 1 return\n"
               "edge 0 1 taken 1 -0.0\nedge 0 1 fall 1 +1\nendproc\n");
    ASSERT_TRUE(signedOk.ok()) << signedOk.error;
    EXPECT_TRUE(signedOk.program->proc(0).block(0).correlatedInvert);
}

TEST(Serialize, TotalEdgeWeightCeiling)
{
    const auto text = [](Weight taken, Weight fall) {
        return "balign-program v1\nprogram x\nmain 0\nproc 0 main entry 0\n"
               "block 0 2 cond\nblock 1 1 return\nedge 0 1 taken " +
               std::to_string(taken) + " 0.5\nedge 0 1 fall " +
               std::to_string(fall) + " 0.5\nendproc\n";
    };
    const Weight half = kMaxProfileWeight / 2;

    // A total of exactly the ceiling is accepted and round-trips.
    const ParseResult atCeiling = programFromString(text(half, half));
    ASSERT_TRUE(atCeiling.ok()) << atCeiling.error;
    EXPECT_EQ(atCeiling.program->proc(0).totalEdgeWeight(),
              kMaxProfileWeight);

    // One more is rejected on the edge that crosses it.
    const ParseResult past = programFromString(text(half, half + 1));
    EXPECT_FALSE(past.ok());
    EXPECT_EQ(past.errorLine, 8u);
    EXPECT_EQ(past.error, "edge weight " + std::to_string(half + 1) +
                              " lifts the program's total edge weight "
                              "past the 2^60 profile ceiling");

    // Two edges of 2^64 - 1: the first is already past the ceiling.
    const Weight max = std::numeric_limits<Weight>::max();
    const ParseResult wrapped = programFromString(text(max, max));
    EXPECT_FALSE(wrapped.ok());
    EXPECT_EQ(wrapped.errorLine, 7u);
}

TEST(Serialize, TotalInstructionCeiling)
{
    const auto text = [](std::uint64_t first, std::uint64_t second) {
        return "balign-program v1\nprogram x\nmain 0\nproc 0 main entry 0\n"
               "block 0 " + std::to_string(first) + " fall\nblock 1 " +
               std::to_string(second) + " return\nedge 0 1 fall 1 1.0\n"
               "endproc\n";
    };
    const std::uint64_t half = kMaxProgramInstrs / 2;

    // A program of exactly the ceiling is accepted.
    const ParseResult atCeiling = programFromString(text(half, half));
    ASSERT_TRUE(atCeiling.ok()) << atCeiling.error;
    EXPECT_EQ(atCeiling.program->proc(0).totalInstrs(), kMaxProgramInstrs);

    // One more is rejected on the block that crosses it.
    const ParseResult past = programFromString(text(half, half + 1));
    EXPECT_FALSE(past.ok());
    EXPECT_EQ(past.errorLine, 6u);
    EXPECT_EQ(past.error, "block of " + std::to_string(half + 1) +
                              " instructions lifts the program past the "
                              "2^24 instruction ceiling");

    // The one-block file of tests/corpus/reject/: 4e9 instructions.
    const ParseResult huge = programFromString(text(4'000'000'000, 1));
    EXPECT_FALSE(huge.ok());
    EXPECT_EQ(huge.errorLine, 5u);
}

TEST(Serialize, BiasesPrintAsPrintf17g)
{
    // An indirect hub carries one bias per out-edge; validation reads no
    // bias, so values outside [0, 1] round-trip too. Whole numbers below
    // 10^17 print as their digits, and -0 keeps its sign.
    const double biases[] = {0.0,
                             -0.0,
                             1.0,
                             0.1,
                             1.0 / 3,
                             1e-5,
                             123456789.125,
                             99999999999999984.0,
                             1e17,
                             std::numeric_limits<double>::denorm_min(),
                             DBL_MAX};
    Program program("biases");
    Procedure &proc = program.proc(program.addProc("main"));
    proc.addBlock(1, Terminator::IndirectJump);
    std::string want = "balign-program v1\nprogram biases\nmain 0\n"
                       "proc 0 main entry 0\nblock 0 1 indirect\n";
    for (BlockId b = 1; b <= std::size(biases); ++b) {
        proc.addBlock(1, Terminator::Return);
        want += "block " + std::to_string(b) + " 1 return\n";
    }
    for (BlockId b = 1; b <= std::size(biases); ++b) {
        proc.addEdge(0, b, EdgeKind::Other, b, biases[b - 1]);
        char bias[40];
        std::snprintf(bias, sizeof bias, "%.17g", biases[b - 1]);
        want += "edge 0 " + std::to_string(b) + " other " +
                std::to_string(b) + " " + bias + "\n";
    }
    want += "endproc\n";

    const std::string text = programToString(program);
    EXPECT_EQ(text, want);
    const ParseResult parsed = programFromString(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    for (std::uint32_t e = 0; e < std::size(biases); ++e) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      parsed.program->proc(0).edge(e).bias),
                  std::bit_cast<std::uint64_t>(biases[e]))
            << want;
    }
}

namespace {

/// Groups digits in threes with ',' as a thousands separator.
struct GroupingPunct : std::numpunct<char>
{
    char do_thousands_sep() const override { return ','; }
    std::string do_grouping() const override { return "\3"; }
};

/// Installs a global locale for its lifetime.
class ScopedGlobalLocale
{
  public:
    explicit ScopedGlobalLocale(const std::locale &locale)
        : previous_(std::locale::global(locale))
    {
    }
    ~ScopedGlobalLocale() { std::locale::global(previous_); }
    ScopedGlobalLocale(const ScopedGlobalLocale &) = delete;
    ScopedGlobalLocale &operator=(const ScopedGlobalLocale &) = delete;

  private:
    std::locale previous_;
};

}  // namespace

TEST(Serialize, WriterIgnoresGlobalLocale)
{
    Program program("grouped");
    Procedure &proc = program.proc(program.addProc("main"));
    proc.addBlock(1, Terminator::FallThrough);
    proc.addBlock(1, Terminator::Return);
    proc.addEdge(0, 1, EdgeKind::FallThrough, 1234567, 1.0);

    const ScopedGlobalLocale grouping(
        std::locale(std::locale::classic(), new GroupingPunct));
    const std::string text = programToString(program);
    EXPECT_NE(text.find("edge 0 1 fall 1234567 1\n"), std::string::npos)
        << text;
    const ParseResult parsed = programFromString(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.program->proc(0).edge(0).weight, 1234567u);
}
