/**
 * @file
 * `ctest -L bytefuzz`: pins the two readers of user bytes, the .balign
 * parser (cfg/serialize.h) and the object checker (disasm/checkobj.h),
 * outcome for outcome, so that a rewrite of either must reproduce every
 * error string, line number and failure line byte for byte.
 *
 *  - ParseContract: one row per keyword per malformed form, with the
 *    exact error and errorLine, plus the accepted quirks of the token
 *    grammar (a number runs until its first non-digit).
 *  - ByteFuzz.ParseMutationDigest: 64-bit FNV-1a over (ok, error,
 *    errorLine, programToString(result)) for seeded byte mutants of every
 *    .balign file directly under tests/corpus.
 *  - ByteFuzz.CheckObjMutationDigest: 64-bit FNV-1a over (verified, every
 *    formatObjFailure line) for seeded byte mutants of every object
 *    under tests/corpus/disasm, checked against its base.balign.
 *
 * When a digest moves on purpose, the failure message prints the new
 * value to pin.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "cfg/serialize.h"
#include "check/fuzz.h"
#include "core/align_program.h"
#include "disasm/checkobj.h"
#include "emit/elf.h"
#include "emit/relax.h"
#include "sim/batch_replay.h"
#include "support/rng.h"
#include "trace/walker.h"

using namespace balign;

namespace {

constexpr const char *kCorpusDir = BALIGN_CORPUS_DIR;

/// Mutants drawn per corpus file.
constexpr int kParseMutants = 2000;
constexpr int kObjectMutants = 1000;

/// Pinned digests (see the file comment).
constexpr std::uint64_t kParseDigest = 0x485fba1ab08bc771ull;
constexpr std::uint64_t kObjectDigest = 0x557f0c6f764eb5efull;

/// 64-bit FNV-1a, folded over successive fields.
class Fnv1a
{
  public:
    void
    add(const std::string &text)
    {
        for (const char c : text) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= 0x100000001b3ull;
        }
        // Field separator, so ("ab", "c") and ("a", "bc") differ.
        hash_ ^= 0xff;
        hash_ *= 0x100000001b3ull;
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string
hex(std::uint64_t value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/// Corpus files with @p extension directly under @p dir, sorted by name.
std::vector<std::filesystem::path>
corpusFiles(const std::filesystem::path &dir, const std::string &extension)
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.is_regular_file() && entry.path().extension() == extension)
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

// ---------------------------------------------------------------------
// Parser contract.

struct ContractRow
{
    const char *name;
    std::string text;
    std::string error;  ///< empty: the text parses
    std::size_t errorLine;
};

/// A valid two-block procedure the rows append to or splice into.
const std::string kHead = "balign-program v1\nprogram t\nmain 0\n";
const std::string kProc = "proc 0 main entry 0\n";
const std::string kBody = "block 0 2 cond\n"
                          "block 1 1 return\n"
                          "edge 0 1 taken 3 0.25\n"
                          "edge 0 1 fall 9 0.75\n";

std::vector<ContractRow>
contractRows()
{
    const std::string open = kHead + kProc;
    const std::string ok = open + kBody + "endproc\n";
    return {
        // Header.
        {"empty", "", "empty input", 0},
        {"comments-only", "# nothing\n\n   \t\n", "empty input", 3},
        {"no-header", "program t\n", "missing 'balign-program v1' header",
         1},
        {"header-after-blank", "\n\nmain 0\n",
         "missing 'balign-program v1' header", 3},
        {"bad-version", "balign-program v2\n", "unsupported version 'v2'",
         1},
        {"no-version", "balign-program\n", "unsupported version ''", 1},
        {"header-only", "balign-program v1\n",
         "program failed validation: program has no procedures", 0},
        // program / main / profile.
        {"program-no-name", "balign-program v1\nprogram\nmain 0\n" + kProc +
                                kBody + "endproc\n",
         "", 0},
        {"main-word", kHead + "main zero\n", "bad main line", 4},
        {"main-missing", "balign-program v1\nmain\n", "bad main line", 2},
        {"main-overflow", "balign-program v1\nmain 4294967296\n",
         "bad main line", 2},
        {"main-out-of-range", "balign-program v1\nmain 3\n" + kProc + kBody +
                                  "endproc\n",
         "program failed validation: main procedure 3 out of range (1 "
         "procedures)",
         0},
        {"profile-unknown", kHead + "profile guessed\n",
         "unknown profile provenance 'guessed'", 4},
        {"profile-missing", kHead + "profile\n",
         "unknown profile provenance ''", 4},
        {"profile-estimated",
         kHead + "profile estimated\n" + kProc + kBody + "endproc\n", "", 0},
        // proc.
        {"proc-short", kHead + "proc 0 main\n", "bad proc line", 4},
        {"proc-entry-keyword", kHead + "proc 0 main start 0\n",
         "bad proc line", 4},
        {"proc-entry-word", kHead + "proc 0 main entry x\n", "bad proc line",
         4},
        {"proc-not-dense", kHead + "proc 1 main entry 0\n",
         "proc ids must be dense and in order", 4},
        {"proc-bad-entry", kHead + "proc 0 main entry 7\n" + kBody +
                               "endproc\n",
         "program failed validation: entry block 7 out of range (2 blocks)",
         0},
        // block.
        {"block-outside", kHead + "block 0 1 return\n", "block outside proc",
         4},
        {"block-short", open + "block 0 1\n", "bad block line", 5},
        {"block-word-instrs", open + "block 0 x return\n", "bad block line",
         5},
        {"block-unknown-term", open + "block 0 1 jump\n",
         "unknown terminator 'jump'", 5},
        {"block-not-dense", open + "block 1 1 return\n",
         "block ids must be dense and in order", 5},
        {"block-zero-instrs", open + "block 0 0 return\n",
         "block must have at least one instruction", 5},
        {"block-glued-term", open + "block 0 1x return\n",
         "unknown terminator 'x'", 5},
        {"pattern-zero", open + "block 0 2 cond pattern 0 1\n",
         "bad pattern attribute", 5},
        {"pattern-long", open + "block 0 2 cond pattern 33 1\n",
         "bad pattern attribute", 5},
        {"pattern-no-mask", open + "block 0 2 cond pattern 3\n",
         "bad pattern attribute", 5},
        {"pattern-mask-overflow",
         open + "block 0 2 cond pattern 3 4294967296\n",
         "bad pattern attribute", 5},
        {"corr-short", open + "block 0 2 cond corr 0\n", "bad corr attribute",
         5},
        {"corr-word", open + "block 0 2 cond corr x 1\n",
         "bad corr attribute", 5},
        {"corr-invert-overflow", open + "block 0 2 cond corr 0 2147483648\n",
         "bad corr attribute", 5},
        {"block-unknown-attr", open + "block 0 2 cond weight 3\n",
         "unknown block attribute 'weight'", 5},
        {"block-attrs-ok",
         open + "block 0 2 cond pattern 3 5 corr 0 1\nblock 1 1 return\n"
                "edge 0 1 taken 3 0.25\nedge 0 1 fall 9 0.75\nendproc\n",
         "", 0},
        {"block-glued-attr",
         open + "block 0 2 cond pattern 3 5corr 0 -7\nblock 1 1 return\n"
                "edge 0 1 taken 3 0.25\nedge 0 1 fall 9 0.75\nendproc\n",
         "", 0},
        {"block-glued-return", open + "block 0 1return\nendproc\n", "", 0},
        // call.
        {"call-outside", kHead + "call 0 0 0\n", "call outside proc", 4},
        {"call-short", open + "block 0 2 return\ncall 0 0\n",
         "bad call line", 6},
        {"call-unknown-block", open + "block 0 2 return\ncall 1 0 0\n",
         "call references unknown block", 6},
        {"call-unknown-callee", open + "block 0 2 return\ncall 0 0 5\n"
                                       "endproc\n",
         "program failed validation: call at offset 0 targets unknown "
         "procedure 5",
         0},
        // edge.
        {"edge-outside", kHead + "edge 0 1 fall 1 0\n", "edge outside proc",
         4},
        {"edge-short", open + "block 0 1 return\nedge 0 0 fall 1\n",
         "bad edge line", 6},
        {"edge-unknown-kind", open + "block 0 1 return\nedge 0 0 jump 1 0\n",
         "unknown edge kind 'jump'", 6},
        {"edge-unknown-block", open + "block 0 1 return\nedge 0 4 fall 1 0\n",
         "edge references unknown block", 6},
        {"edge-weight-word", open + "block 0 1 return\nedge 0 0 fall w 0\n",
         "bad edge line", 6},
        {"edge-weight-overflow",
         open + "block 0 1 return\nedge 0 0 fall 18446744073709551616 0\n",
         "bad edge line", 6},
        {"edge-bias-word", open + "block 0 1 return\nedge 0 0 fall 1 b\n",
         "bad edge line", 6},
        {"edge-bias-nan", open + "block 0 1 return\nedge 0 0 fall 1 nan\n",
         "bad edge line", 6},
        {"edge-bias-inf", open + "block 0 1 return\nedge 0 0 fall 1 inf\n",
         "bad edge line", 6},
        {"edge-bias-hex-reads-zero",
         open + "block 0 1 return\nedge 0 0 fall 1 0x1p3\n", "missing endproc",
         6},
        {"edge-bias-bare-exponent",
         open + "block 0 1 return\nedge 0 0 fall 1 1e\n", "bad edge line",
         6},
        {"edge-bias-signed-exponent",
         open + "block 0 1 return\nedge 0 0 fall 1 1e+\n", "bad edge line",
         6},
        {"edge-bias-dot", open + "block 0 1 return\nedge 0 0 fall 1 .\n",
         "bad edge line", 6},
        {"edge-bias-overflow",
         open + "block 0 1 return\nedge 0 0 fall 1 1e999\n", "bad edge line",
         6},
        {"edge-arity", open + "block 0 1 return\nedge 0 0 fall 1 0\n"
                              "endproc\n",
         "program failed validation: return block has taken=0 fall=1 "
         "other=0, expected no out-edges",
         0},
        // endproc, keywords, comments, line ends.
        {"endproc-outside", kHead + "endproc\n", "endproc outside proc", 4},
        {"missing-endproc", open + kBody, "missing endproc", 8},
        {"missing-endproc-no-newline", open + "block 0 1 return",
         "missing endproc", 5},
        {"unknown-keyword", ok + "frob 1\n", "unknown keyword 'frob'", 10},
        {"keyword-case", kHead + "Proc 0 main entry 0\n",
         "unknown keyword 'Proc'", 4},
        {"comment-cuts-line", open + "block 0 1 return # 0 fall\nendproc\n",
         "", 0},
        {"comment-cuts-field", open + "block 0 1#return\n", "bad block line",
         5},
        {"crlf", "balign-program v1\r\nprogram t\r\nmain 0\r\n"
                 "proc 0 main entry 0\r\nblock 0 1 return\r\nendproc\r\n",
         "", 0},
        {"trailing-junk", open + "block 0 1 return extra\n",
         "unknown block attribute 'extra'", 5},
        {"trailing-junk-ignored", open + "block 0 1 return\nendproc junk\n",
         "", 0},
        {"valid", ok, "", 0},
    };
}

TEST(ParseContract, EveryKeywordMalformedForm)
{
    for (const ContractRow &row : contractRows()) {
        SCOPED_TRACE(row.name);
        const ParseResult result = programFromString(row.text);
        EXPECT_EQ(result.ok(), row.error.empty());
        EXPECT_EQ(result.error, row.error);
        EXPECT_EQ(result.errorLine, row.errorLine);
    }
}

TEST(ParseContract, ValuesSurviveTheGrammar)
{
    const ParseResult glued = programFromString(
        kHead + kProc +
        "block 0 2 cond pattern 3 5corr 0 -7\nblock 1 1 return\n"
        "edge 0 1 taken 0018 0x1p3\nedge 0 1 fall 9 -0.5e-1\nendproc\n");
    ASSERT_TRUE(glued.ok()) << glued.error;
    const Procedure &proc = glued.program->proc(0);
    EXPECT_EQ(proc.block(0).patternLength, 3u);
    EXPECT_EQ(proc.block(0).patternMask, 5u);
    EXPECT_EQ(proc.block(0).correlatedWith, 0u);
    EXPECT_TRUE(proc.block(0).correlatedInvert);
    EXPECT_EQ(proc.edge(0).weight, 18u);
    EXPECT_EQ(proc.edge(0).bias, 0.0);  // "0x1p3" reads as 0
    EXPECT_EQ(proc.edge(1).bias, -0.05);

    // Subnormal and underflowing biases are accepted as strtod rounds them.
    const ParseResult tiny = programFromString(
        kHead + kProc +
        "block 0 2 cond\nblock 1 1 return\n"
        "edge 0 1 taken 3 4.9406564584124654e-324\n"
        "edge 0 1 fall 9 1e-400\nendproc\n");
    ASSERT_TRUE(tiny.ok()) << tiny.error;
    EXPECT_EQ(tiny.program->proc(0).edge(0).bias,
              std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(tiny.program->proc(0).edge(1).bias, 0.0);
}

// ---------------------------------------------------------------------
// Parser mutation digest.

/// Tokens a mutant may splice in: the edges of the number grammar and
/// whole attribute or line fragments.
const char *const kTextTokens[] = {
    "18446744073709551615", "18446744073709551616", "4294967295",
    "4294967296", "2147483648", "-1", "+7", "-0", "007", "1e999", "1e-400",
    "4.9e-324", "nan", "inf", "0x10", "1e", "1e+", ".5", "5.", "-.e",
    " pattern 3 5", " corr 0 1", "\nendproc\n", "\nproc 1 p entry 0\n", "#",
    " ", "\t", "\r", "\n"};

const char kTextBytes[] = "0123456789-+ .eE#\n\t\rx";

std::string
mutateText(const std::string &original, Rng &rng)
{
    std::string text = original;
    const int ops = 1 + static_cast<int>(rng.nextBounded(3));
    for (int op = 0; op < ops; ++op) {
        const std::size_t pos = rng.nextBounded(text.size() + 1);
        switch (rng.nextBounded(6)) {
          case 0:  // overwrite one byte from the grammar's alphabet
            if (pos < text.size())
                text[pos] = kTextBytes[rng.nextBounded(sizeof(kTextBytes) -
                                                       1)];
            break;
          case 1:  // overwrite one byte with any value
            if (pos < text.size())
                text[pos] = static_cast<char>(rng.nextBounded(256));
            break;
          case 2:  // delete a run of up to four bytes
            text.erase(std::min(pos, text.size()),
                       1 + rng.nextBounded(4));
            break;
          case 3:  // insert one grammar byte
            text.insert(pos, 1,
                        kTextBytes[rng.nextBounded(sizeof(kTextBytes) - 1)]);
            break;
          case 4: {  // splice a token in, replacing the word at pos
            const char *token =
                kTextTokens[rng.nextBounded(std::size(kTextTokens))];
            std::size_t end = pos;
            while (end < text.size() && text[end] != ' ' &&
                   text[end] != '\n')
                ++end;
            text.replace(pos, end - pos, token);
            break;
          }
          default: {  // duplicate or drop the line holding pos
            const std::size_t begin =
                pos == 0 ? 0 : text.rfind('\n', pos - 1) + 1;
            std::size_t end = text.find('\n', begin);
            end = end == std::string::npos ? text.size() : end + 1;
            if (rng.nextBool(0.5))
                text.insert(begin, text.substr(begin, end - begin));
            else
                text.erase(begin, end - begin);
            break;
          }
        }
    }
    return text;
}

TEST(ByteFuzz, ParseMutationDigest)
{
    const std::vector<std::filesystem::path> files =
        corpusFiles(kCorpusDir, ".balign");
    ASSERT_GE(files.size(), 10u);

    Fnv1a digest;
    std::size_t accepted = 0;
    for (std::size_t f = 0; f < files.size(); ++f) {
        const std::string original = readFile(files[f]);
        ASSERT_TRUE(programFromString(original).ok()) << files[f];
        for (int m = 0; m < kParseMutants; ++m) {
            Rng rng(f * 1'000'003ull + static_cast<std::uint64_t>(m));
            const ParseResult result =
                programFromString(mutateText(original, rng));
            digest.add(result.ok() ? "1" : "0");
            digest.add(result.error);
            digest.add(std::to_string(result.errorLine));
            digest.add(result.ok() ? programToString(*result.program) : "");
            accepted += result.ok();
        }
    }
    // The mutants must reach both outcomes to pin anything.
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, files.size() * kParseMutants);
    EXPECT_EQ(hex(digest.value()), hex(kParseDigest));
}

// ---------------------------------------------------------------------
// Object-checker mutation digest.

struct ObjectContext
{
    Program program;
    RelaxedLayout relaxed;
};

/// The corpus fixture pipeline of tests/test_disasm.cc: base.balign,
/// re-profiled from its embedded walk, identity layout relaxed under the
/// variable model.
std::optional<ObjectContext>
objectContext(const std::filesystem::path &dir)
{
    std::optional<Repro> repro = loadRepro((dir / "base.balign").string());
    if (!repro.has_value())
        return std::nullopt;
    Program program = std::move(repro->program);
    program.clearWeights();
    profileProgram(program, repro->walk);
    const CostModel model(Arch::Fallthrough);
    const ProgramLayout layout =
        alignProgram(program, AlignerKind::Original, &model);
    RelaxedLayout relaxed = relaxLayout(
        program, layout, encodingModel(EncodingModelKind::Variable));
    return ObjectContext{std::move(program), std::move(relaxed)};
}

/// Opcode and field bytes of the variable encoding.
const std::uint8_t kObjectBytes[] = {0x74, 0xeb, 0xe9, 0xe8, 0x0f, 0x84,
                                     0x1f, 0x40, 0xc3, 0xff, 0xe0, 0x00,
                                     0x01, 0x80, 0x7f, 0xfc};

std::vector<std::uint8_t>
mutateObject(const std::vector<std::uint8_t> &original,
             std::size_t textOffset, std::size_t textSize, Rng &rng)
{
    std::vector<std::uint8_t> bytes = original;
    const int ops = 1 + static_cast<int>(rng.nextBounded(2));
    for (int op = 0; op < ops; ++op) {
        // Half the edits land in .text, where the decoder and lifter
        // read; the rest anywhere (headers, symbols, relocations).
        const std::size_t pos =
            textSize > 0 && rng.nextBool(0.5)
                ? textOffset + rng.nextBounded(textSize)
                : rng.nextBounded(bytes.size());
        switch (rng.nextBounded(4)) {
          case 0:
            bytes[pos] = kObjectBytes[rng.nextBounded(std::size(kObjectBytes))];
            break;
          case 1:
            bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.nextBounded(8));
            break;
          case 2:
            bytes[pos] = static_cast<std::uint8_t>(
                bytes[pos] + rng.nextRange(-8, 8));
            break;
          default:
            bytes[pos] = static_cast<std::uint8_t>(rng.nextBounded(256));
            break;
        }
    }
    return bytes;
}

TEST(ByteFuzz, CheckObjMutationDigest)
{
    const std::filesystem::path dir =
        std::filesystem::path(kCorpusDir) / "disasm";
    const std::optional<ObjectContext> ctx = objectContext(dir);
    ASSERT_TRUE(ctx.has_value()) << "missing disasm/base.balign";
    const std::vector<std::filesystem::path> files = corpusFiles(dir, ".o");
    ASSERT_GE(files.size(), 6u);

    Fnv1a digest;
    std::size_t verified = 0;
    for (std::size_t f = 0; f < files.size(); ++f) {
        const std::string raw = readFile(files[f]);
        const std::vector<std::uint8_t> original(raw.begin(), raw.end());

        // Locate .text in the file by its parsed payload.
        const ParsedElf elf = parseElfObject(original);
        std::size_t textOffset = 0;
        std::size_t textSize = 0;
        if (elf.ok && !elf.text.empty()) {
            const auto it = std::search(original.begin(), original.end(),
                                        elf.text.begin(), elf.text.end());
            if (it != original.end()) {
                textOffset = static_cast<std::size_t>(it - original.begin());
                textSize = elf.text.size();
            }
        }
        ASSERT_GT(textSize, 0u) << files[f];

        for (int m = 0; m < kObjectMutants; ++m) {
            Rng rng(f * 1'000'003ull + static_cast<std::uint64_t>(m));
            const ObjCheckResult result = checkObject(
                ctx->program, ctx->relaxed,
                mutateObject(original, textOffset, textSize, rng));
            digest.add(result.verified() ? "1" : "0");
            for (const ObjFailure &failure : result.failures)
                digest.add(formatObjFailure(failure));
            verified += result.verified();
        }
    }
    EXPECT_LT(verified, files.size() * kObjectMutants);
    EXPECT_EQ(hex(digest.value()), hex(kObjectDigest));
}

}  // namespace
