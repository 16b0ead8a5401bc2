/**
 * @file
 * Fabrication-defect model for degraded chips.
 *
 * Fabricated Xmon chips never match the ideal lattice: qubits come out
 * dead (no response, T1 collapse), couplers and their wire bonds break,
 * packaging blocks routing channels, and TWPA/filter dips mask slices of
 * the readout/control band. ChipDefects records those losses; applying
 * them to an ideal ChipTopology yields the chip the designer must
 * actually wire, plus the index maps needed to report results in the
 * original chip's coordinates.
 */

#ifndef YOUTIAO_CHIP_DEFECTS_HPP
#define YOUTIAO_CHIP_DEFECTS_HPP

#include <cstdint>
#include <vector>

#include "chip/topology.hpp"

namespace youtiao {

/** One masked slice of the frequency band (GHz, [lo, hi)). */
struct FrequencyMask
{
    double loGHz = 0.0;
    double hiGHz = 0.0;
};

/** Everything broken on one fabricated chip. */
struct ChipDefects
{
    /** Dead qubit indices (sorted, unique). */
    std::vector<std::size_t> deadQubits;
    /** Broken coupler indices (sorted, unique); couplers touching a
     *  dead qubit are implicitly broken and need not be listed. */
    std::vector<std::size_t> brokenCouplers;
    /** Unusable slices of the qubit frequency band. */
    std::vector<FrequencyMask> maskedBandsGHz;
    /** Chip-plane positions whose routing cells are blocked (mm);
     *  the router keeps a 0.2 mm square clear around each
     *  (ChipRoutingConfig::blockedCells). */
    std::vector<Point> blockedRoutingCells;

    bool
    empty() const
    {
        return deadQubits.empty() && brokenCouplers.empty() &&
               maskedBandsGHz.empty() && blockedRoutingCells.empty();
    }
};

/** Defect-rate knobs for random generation. */
struct DefectRates
{
    /** Probability each qubit is dead. */
    double deadQubitRate = 0.0;
    /** Probability each coupler is broken (beyond dead endpoints). */
    double brokenCouplerRate = 0.0;
    /** Probability a 50 MHz band slice is masked (per 500 MHz of band). */
    double maskedBandRate = 0.0;
    /** Probability each device position sprouts a blocked routing cell
     *  nearby (packaging flaws scale with device count). */
    double blockedCellRate = 0.0;
};

/**
 * Draw a random defect set for @p chip at the given rates, fully
 * determined by @p seed. The common single-rate campaigns set every
 * rate to one value via uniformDefectRates().
 */
ChipDefects randomDefects(const ChipTopology &chip,
                          const DefectRates &rates, std::uint64_t seed);

/** All four rates set to @p rate. */
DefectRates uniformDefectRates(double rate);

/** A degraded chip plus the maps back to the ideal chip's indices. */
struct DegradedChip
{
    ChipTopology chip;
    /** Ideal qubit index -> degraded index (ChipTopology::npos = dead). */
    std::vector<std::size_t> newIndexOfQubit;
    /** Degraded qubit index -> ideal index. */
    std::vector<std::size_t> oldIndexOfQubit;
    /** Ideal coupler indices that were dropped (broken or dead end). */
    std::vector<std::size_t> removedCouplers;
};

/**
 * Rebuild @p chip without the dead qubits and broken couplers (couplers
 * with a dead endpoint are dropped too). Positions, base frequencies
 * and T1 survive. Throws ConfigError when a defect index is out of
 * range or every qubit is dead (nothing left to design).
 */
DegradedChip applyDefects(const ChipTopology &chip,
                          const ChipDefects &defects);

} // namespace youtiao

#endif // YOUTIAO_CHIP_DEFECTS_HPP
