/**
 * @file
 * Encoded-size benchmark: the static byte cost of every suite program
 * under both encoding models, and what alignment does to it.
 *
 * For each program the Original and Cost (table-cost, BT/FNT) layouts
 * are relaxed under the FixedWord and Variable models and the final
 * byte totals, branch-form splits and sweep counts reported. Under
 * FixedWord the byte total is layout-invariant (4 bytes per slot, give
 * or take inserted jumps); under Variable the table shows the size the
 * relaxation fixpoint actually settles at — the quantity the
 * size-aware objective prices and CI soft-gates against
 * bench/emit_baseline.json.
 *
 * A second phase measures decode throughput: each program's Cost-layout
 * object is emitted once under the Variable model and the independent
 * disassembler (disasm/disasm.h) re-decodes its .text repeatedly until a
 * fixed byte target is consumed, giving MB/s per program and in
 * aggregate — the cost of the check-obj validation loop, minus the
 * obligation checks themselves. The throughput keys ride along in
 * bench/emit_baseline.json for reference; CI's soft gate compares only
 * the deterministic size keys.
 *
 * Flags:
 *   --quick   cap the per-program trace at 50k instructions
 *             (BALIGN_TRACE_INSTRS still wins when set)
 *   --json    one machine-readable JSON document on stdout
 */

#include <algorithm>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "disasm/disasm.h"
#include "emit/elf.h"
#include "emit/relax.h"
#include "sim/runner.h"
#include "support/log.h"
#include "support/table.h"

using namespace balign;

namespace {

constexpr Arch kArch = Arch::BtFnt;

struct SizeRow
{
    std::uint64_t fixedBytes = 0;     ///< FixedWord, any layout
    std::uint64_t origBytes = 0;      ///< Variable, Original layout
    std::uint64_t alignedBytes = 0;   ///< Variable, Cost layout
    std::uint64_t shortBranches = 0;  ///< Variable, Cost layout
    std::uint64_t nearBranches = 0;
    std::uint32_t sweeps = 0;         ///< relaxation sweeps, Cost layout
    double decodeMbps = 0.0;          ///< disassembler throughput
    std::uint64_t decodedBytes = 0;   ///< bytes consumed measuring it
    double decodeSeconds = 0.0;
};

SizeRow
measure(const Program &program, std::uint64_t decode_target)
{
    const ProgramLayout original = originalLayout(program);
    const ProgramLayout aligned =
        alignForArch(program, AlignerKind::Cost, kArch);

    const EncodingModel &fixed = encodingModel(EncodingModelKind::FixedWord);
    const EncodingModel &variable =
        encodingModel(EncodingModelKind::Variable);

    SizeRow row;
    row.fixedBytes = relaxLayout(program, aligned, fixed).totalBytes;
    row.origBytes = relaxLayout(program, original, variable).totalBytes;
    const RelaxedLayout relaxed = relaxLayout(program, aligned, variable);
    if (!relaxed.converged)
        fatal("bench_emit: relaxation failed: %s",
              relaxed.diagnostic.c_str());
    row.alignedBytes = relaxed.totalBytes;
    row.shortBranches = relaxed.shortBranches;
    row.nearBranches = relaxed.nearBranches;
    row.sweeps = relaxed.iterations;

    // Decode-throughput phase: parse once, then re-decode .text until
    // the deterministic byte target is consumed.
    const ParsedElf parsed =
        parseElfObject(buildElfObject(program, relaxed, variable));
    if (!parsed.ok)
        fatal("bench_emit: emitted object does not parse: %s",
              parsed.error.c_str());
    const std::uint64_t iters =
        std::max<std::uint64_t>(8, decode_target / relaxed.totalBytes);
    std::uint64_t decoded_instrs = 0;
    const bench::WallClock clock;
    for (std::uint64_t i = 0; i < iters; ++i) {
        const Disassembly disasm = disassembleObject(parsed);
        for (const DecodedProc &proc : disasm.procs) {
            if (!proc.ok)
                fatal("bench_emit: decode failed: %s", proc.error.c_str());
            decoded_instrs += proc.instrs.size();
        }
    }
    row.decodeSeconds = clock.seconds();
    row.decodedBytes = iters * relaxed.totalBytes;
    if (decoded_instrs == 0)
        fatal("bench_emit: decoded no instructions");
    if (row.decodeSeconds > 0.0) {
        row.decodeMbps = static_cast<double>(row.decodedBytes) / 1e6 /
                         row.decodeSeconds;
    }
    return row;
}

}  // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    bool quick = false;
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--json") == 0)
            json = true;
        else
            fatal("bench_emit: unknown flag '%s'", argv[i]);
    }

    std::vector<ProgramSpec> suite = bench::tunedSuite(benchmarkSuite());
    if (quick && std::getenv("BALIGN_TRACE_INSTRS") == nullptr) {
        for (ProgramSpec &spec : suite)
            spec.traceInstrs = 50'000;
    }

    const bench::WallClock wall;
    PhaseTimes times;

    // ~2 MB of decode work per program in quick/CI runs, ~16 MB for a
    // stable local measurement.
    const std::uint64_t decode_target =
        quick ? 2u << 20 : 16u << 20;

    std::vector<SizeRow> rows;
    std::uint64_t total_fixed = 0;
    std::uint64_t total_variable = 0;
    std::uint64_t total_decoded = 0;
    double total_decode_seconds = 0.0;
    for (const ProgramSpec &spec : suite) {
        const PreparedProgram prepared = prepareProgram(spec);
        rows.push_back(measure(prepared.program, decode_target));
        total_fixed += rows.back().fixedBytes;
        total_variable += rows.back().alignedBytes;
        total_decoded += rows.back().decodedBytes;
        total_decode_seconds += rows.back().decodeSeconds;
    }
    const double total_mbps =
        total_decode_seconds > 0.0
            ? static_cast<double>(total_decoded) / 1e6 /
                  total_decode_seconds
            : 0.0;

    if (json) {
        std::ostream &os = std::cout;
        os << "{\"bench\":\"emit\",\"arch\":\"" << archName(kArch)
           << "\",\"programs\":[";
        for (std::size_t i = 0; i < suite.size(); ++i) {
            const SizeRow &row = rows[i];
            os << (i ? "," : "") << "{\"name\":\"" << suite[i].name
               << "\",\"fixed_bytes\":" << row.fixedBytes
               << ",\"variable_orig_bytes\":" << row.origBytes
               << ",\"variable_aligned_bytes\":" << row.alignedBytes
               << ",\"short_branches\":" << row.shortBranches
               << ",\"near_branches\":" << row.nearBranches
               << ",\"relax_sweeps\":" << row.sweeps
               << ",\"decode_mbps\":" << row.decodeMbps << "}";
        }
        os << "],\"total_fixed_bytes\":" << total_fixed
           << ",\"total_variable_bytes\":" << total_variable
           << ",\"decode_mbps\":" << total_mbps << "}\n";
    } else {
        Table table({"Program", "fixed B", "var orig B", "var cost B",
                     "short", "near", "sweeps", "vs fixed", "dec MB/s"});
        for (std::size_t i = 0; i < suite.size(); ++i) {
            const SizeRow &row = rows[i];
            table.row()
                .cell(suite[i].name)
                .cell(static_cast<double>(row.fixedBytes), 0)
                .cell(static_cast<double>(row.origBytes), 0)
                .cell(static_cast<double>(row.alignedBytes), 0)
                .cell(static_cast<double>(row.shortBranches), 0)
                .cell(static_cast<double>(row.nearBranches), 0)
                .cell(static_cast<double>(row.sweeps), 0)
                .cell(static_cast<double>(row.alignedBytes) /
                          static_cast<double>(row.fixedBytes),
                      3)
                .cell(row.decodeMbps, 1);
        }
        std::cout << "Encoded size: relaxed bytes per encoding model "
                     "(cost layout, "
                  << archName(kArch) << ")\n\n";
        table.print(std::cout);
        std::cout << "\nsuite total: fixed " << total_fixed
                  << " B, variable " << total_variable << " B ("
                  << (100.0 * (1.0 - static_cast<double>(total_variable) /
                                         static_cast<double>(total_fixed)))
                  << "% smaller); decode throughput " << total_mbps
                  << " MB/s\n";
    }

    std::cerr << bench::timingJson("emit", defaultThreads(), suite.size(),
                                   wall.seconds(), times)
              << "\n";
    return 0;
}
