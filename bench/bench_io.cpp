/**
 * @file
 * Chip I/O bench: text vs binary load time at 1k and 10k qubits.
 *
 * Writes the same grid chip in both formats, loads each back a fixed
 * number of times (equal repeat counts per size so the per-phase totals
 * are directly comparable), verifies the loaded chips are identical,
 * and prints the speedup table. The io.text_load_* / io.bin_load_*
 * phases land in BENCH_io.json (tools/perf_check tracks them against
 * bench/baselines/BENCH_io.json); repeat counts are chosen so every
 * phase clears perf_check's 0.01 s timing floor.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "chip/chip_bin.hpp"
#include "chip/chip_io.hpp"
#include "core/scalability.hpp"

namespace {

using namespace youtiao;

struct IoRow
{
    std::size_t qubits = 0;
    std::size_t repeats = 0;
    std::size_t textBytes = 0;
    std::size_t binaryBytes = 0;
    double textSeconds = 0.0;
    double binarySeconds = 0.0;
};

IoRow
measureSize(std::size_t qubits, std::size_t repeats,
            const std::string &label, const char *text_phase,
            const char *bin_phase)
{
    IoRow row;
    row.qubits = qubits;
    row.repeats = repeats;

    const ChipTopology chip = makeGridWithQubitCount(qubits);
    const std::string text_path = "bench_io_chip_" + label + ".txt";
    const std::string bin_path = "bench_io_chip_" + label + ".bin";
    {
        std::ofstream out(text_path);
        saveChip(out, chip);
    }
    saveChipBinary(bin_path, chip);
    row.textBytes = chipToString(chip).size();
    row.binaryBytes = chipToBinary(chip).size();

    // Both loaders run through loadChipAuto, so the magic sniff is part
    // of the measured cost on both sides.
    ChipTopology from_text, from_binary;
    {
        const metrics::ScopedTimer timer(text_phase);
        for (std::size_t r = 0; r < repeats; ++r) {
            from_text = loadChipAuto(text_path);
            benchmark::DoNotOptimize(from_text);
        }
    }
    {
        const metrics::ScopedTimer timer(bin_phase);
        for (std::size_t r = 0; r < repeats; ++r) {
            from_binary = loadChipAuto(bin_path);
            benchmark::DoNotOptimize(from_binary);
        }
    }
    row.textSeconds =
        metrics::Registry::global().phases()[text_phase].seconds;
    row.binarySeconds =
        metrics::Registry::global().phases()[bin_phase].seconds;

    // Round-trip audit: the binary chip must be the text chip, byte
    // for byte, once rendered back to canonical text.
    if (chipToString(from_text) != chipToString(from_binary)) {
        std::fprintf(stderr,
                     "FATAL: text and binary loads disagree at %zu "
                     "qubits\n",
                     qubits);
        std::exit(1);
    }
    std::remove(text_path.c_str());
    std::remove(bin_path.c_str());
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::PerfReport perf("io", argc, argv);

    std::printf("Chip I/O: text vs binary load\n");
    bench::rule();
    std::printf("%8s %8s %10s %10s %11s %11s %8s\n", "#qubits",
                "repeats", "text B", "binary B", "text s", "binary s",
                "speedup");
    // Equal repeat counts per size keep the phase totals comparable;
    // counts are sized so even the fast binary loads clear the 0.01 s
    // perf_check floor.
    const IoRow rows[] = {
        measureSize(1000, 100, "1k", "io.text_load_1k", "io.bin_load_1k"),
        measureSize(10000, 12, "10k", "io.text_load_10k",
                    "io.bin_load_10k"),
    };
    for (const IoRow &row : rows) {
        std::printf("%8zu %8zu %10zu %10zu %11.4f %11.4f %7.1fx\n",
                    row.qubits, row.repeats, row.textBytes,
                    row.binaryBytes, row.textSeconds, row.binarySeconds,
                    row.textSeconds / row.binarySeconds);
    }
    std::printf("(binary target: >= 5x faster chip load at 10k "
                "qubits)\n");

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
