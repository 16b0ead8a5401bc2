/**
 * @file
 * Seeded simulation of slow device drift.
 *
 * Real fridges do not hold the calibration snapshot the allocator saw:
 * TLS defects appear on individual qubits, park at a random frequency
 * for hours-to-days, then vanish; and pairwise crosstalk amplitudes
 * wander a few percent per hour. This module synthesizes a days-long
 * trace of both effects on top of the existing characterization and
 * defect models, deterministically from one seed, so static, hopping
 * and re-allocating wiring policies can be compared on identical
 * physics.
 *
 * Each qubit draws from its own taskSeed-derived stream, so traces are
 * bit-identical regardless of evaluation order or thread count.
 */

#ifndef YOUTIAO_NOISE_DRIFT_HPP
#define YOUTIAO_NOISE_DRIFT_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/matrix.hpp"

namespace youtiao {

/** Wall-clock per epoch (hours); 48 x 1h = two days. */
inline constexpr double kDriftHoursPerEpoch = 1.0;

/**
 * Drift-trace knobs; defaults give a busy but plausible two days. TLS
 * frequencies are drawn from the allocator's XY band.
 */
struct DriftConfig
{
    /** Trace length. */
    std::size_t epochs = 48;
    /** Root seed for the whole trace. */
    std::uint64_t seed = 0xD21F7;
};

/** One TLS defect with its lifetime. */
struct TlsDefect
{
    std::size_t qubit = 0;
    double frequencyGHz = 0.0;
    /** Excess drive error at zero detuning. */
    double strength = 0.0;
    double linewidthGHz = 0.0;
    /** Active over [bornEpoch, diesEpoch). */
    std::size_t bornEpoch = 0;
    std::size_t diesEpoch = 0;
    /** Strong TLS also make a band slice unusable for allocation. */
    bool masksBand = false;

    bool activeAt(std::size_t epoch) const
    {
        return epoch >= bornEpoch && epoch < diesEpoch;
    }
};

/** The full simulated trace. */
struct DriftTrace
{
    DriftConfig config;
    std::size_t qubitCount = 0;
    /** Every TLS born during the trace, qubit-major then birth order. */
    std::vector<TlsDefect> defects;
    /** Per-epoch, per-qubit crosstalk scale (epochs x qubitCount). */
    std::vector<double> qubitScale;

    double scale(std::size_t epoch, std::size_t qubit) const
    {
        return qubitScale[epoch * qubitCount + qubit];
    }

    /** Defects alive at @p epoch, in defects order. */
    std::vector<TlsDefect> activeDefects(std::size_t epoch) const;

    /** [lo, hi) GHz slices masked by strong TLS alive at @p epoch. */
    std::vector<std::pair<double, double>>
    maskedBands(std::size_t epoch) const;
};

/** Simulate @p config.epochs of drift for @p qubit_count qubits. */
DriftTrace simulateDrift(std::size_t qubit_count,
                         const DriftConfig &config = {});

/**
 * Crosstalk matrix at @p epoch: base(i,j) * sqrt(scale_i * scale_j),
 * the symmetric way two independently wandering qubits share a pair.
 */
SymmetricMatrix driftedCrosstalk(const SymmetricMatrix &base,
                                 const DriftTrace &trace,
                                 std::size_t epoch);

/** JSON document (schema youtiao-drift-1, docs/FILE_FORMATS.md). */
std::string driftTraceToJson(const DriftTrace &trace);

} // namespace youtiao

#endif // YOUTIAO_NOISE_DRIFT_HPP
