/**
 * @file
 * Deterministic seeded frequency-hopping (FHSS) schedules for FDM groups.
 *
 * Each FDM line's channel table is exactly the set of frequencies the
 * static allocator assigned to its members; a hop rotates the
 * member-to-channel bijection, so at every hop the group occupies
 * precisely the same spectrum as the static plan. That gives two
 * guarantees for free:
 *  - uniform occupancy: every member visits every channel of its group
 *    exactly once per block (a shuffled rotation sequence, ExpressLRS
 *    style, with a sync slot at each block head where the rotation is
 *    the identity and every qubit sits on its home frequency);
 *  - collision freedom: the global occupied-frequency multiset at any
 *    hop equals the static allocation's, so hopping can never introduce
 *    a spectral collision the static plan did not already have.
 *
 * Sequences are generated per group from SplitMix64-derived seeds
 * (taskSeed(seed, line)), so schedules are bit-identical across runs
 * and thread counts.
 */

#ifndef YOUTIAO_MULTIPLEX_FHSS_HPP
#define YOUTIAO_MULTIPLEX_FHSS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "multiplex/fdm.hpp"
#include "multiplex/frequency_allocation.hpp"

namespace youtiao {

/** Hop-schedule knobs. */
struct FhssConfig
{
    /** Root seed; each group hops on taskSeed(seed, line index). */
    std::uint64_t seed = 0xF4550;
};

/** Hop schedule of one FDM line. */
struct GroupHopSchedule
{
    /** Line id this schedule belongs to. */
    std::size_t line = 0;
    /** Member qubits in line order. */
    std::vector<std::size_t> members;
    /** The group's channel table: members' allocated frequencies,
     *  ascending. */
    std::vector<double> channelsGHz;
    /** Home channel index (rank in channelsGHz) per member. */
    std::vector<std::size_t> homeChannel;
    /**
     * Rotation offset per hop: four shuffled blocks of k hops each, so a
     * period covers every member-channel pairing four times. Member m at
     * hop t drives channelsGHz[(sequence[t % len] + homeChannel[m]) % k].
     * Every block starts with rotation 0 (the sync slot: the static
     * allocation itself) followed by a seeded shuffle of 1..k-1.
     */
    std::vector<std::size_t> sequence;

    std::size_t channelCount() const { return channelsGHz.size(); }
    std::size_t periodLength() const { return sequence.size(); }

    /** Frequency member @p member_index drives at hop @p hop. */
    double frequencyAtHop(std::size_t member_index, std::size_t hop) const;
};

/** Hop schedules for every line of an FDM plan. */
struct HopPlan
{
    FhssConfig config;
    std::vector<GroupHopSchedule> groups;
};

/**
 * Build per-group hop schedules for @p plan over the frequencies of
 * @p freq. Deterministic in (plan, freq, config) only.
 */
HopPlan buildHopPlan(const FdmPlan &plan, const FrequencyPlan &freq,
                     const FhssConfig &config = {});

/**
 * Per-qubit operating frequency at hop @p hop: hopping members rotate
 * through their group's channel table, everything else (dedicated lines,
 * single-member groups) keeps its static frequency from @p freq.
 */
std::vector<double> frequenciesAtHop(const HopPlan &hop_plan,
                                     const FrequencyPlan &freq,
                                     std::size_t hop);

/**
 * Distinct-qubit pairs sharing one operating frequency in @p
 * frequency_ghz (exact compare: cell centres are reproducible doubles).
 * The DRC the drift bench requires to stay at zero.
 */
std::size_t countSpectrumCollisions(const std::vector<double> &frequency_ghz);

/** Human-readable schedule block for youtiao_cli --hop. */
std::string hopPlanReport(const HopPlan &hop_plan);

/** JSON document (schema youtiao-hop-1, docs/FILE_FORMATS.md). */
std::string hopPlanToJson(const HopPlan &hop_plan);

} // namespace youtiao

#endif // YOUTIAO_MULTIPLEX_FHSS_HPP
