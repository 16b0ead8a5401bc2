// Seeded FHSS hop schedules: uniform occupancy with sync slots, the
// collision-freedom-by-construction guarantee (the hopping spectrum at
// every hop equals the static allocation's), and bit-exact determinism
// in the seed.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "chip/topology_builder.hpp"
#include "common/json.hpp"
#include "common/prng.hpp"
#include "core/youtiao.hpp"
#include "multiplex/fhss.hpp"
#include "oracles/checks.hpp"

namespace youtiao {
namespace {

struct Wired
{
    ChipTopology chip = makeSquareGrid(6, 6);
    ChipCharacterization data;
    YoutiaoDesign design;

    Wired()
    {
        Prng prng(0xF455);
        data = characterizeChip(chip, prng);
        design = YoutiaoDesigner().designFromMeasurements(chip, data);
    }
};

const Wired &
wired()
{
    static const Wired w;
    return w;
}

TEST(Fhss, ChannelTableIsTheGroupsAllocatedSpectrum)
{
    const HopPlan plan = buildHopPlan(wired().design.xyPlan,
                                      wired().design.frequencyPlan);
    ASSERT_EQ(plan.groups.size(), wired().design.xyPlan.lines.size());
    for (const GroupHopSchedule &g : plan.groups) {
        ASSERT_EQ(g.members.size(), g.channelCount());
        EXPECT_TRUE(std::is_sorted(g.channelsGHz.begin(),
                                   g.channelsGHz.end()));
        std::multiset<double> allocated;
        for (std::size_t q : g.members)
            allocated.insert(
                wired().design.frequencyPlan.frequencyGHz[q]);
        EXPECT_EQ(allocated,
                  std::multiset<double>(g.channelsGHz.begin(),
                                        g.channelsGHz.end()));
        // Hop 0 of every block is the sync slot: home frequencies.
        for (std::size_t m = 0; m < g.members.size(); ++m)
            EXPECT_EQ(g.frequencyAtHop(m, 0),
                      wired().design.frequencyPlan
                          .frequencyGHz[g.members[m]]);
    }
}

TEST(Fhss, EveryGroupHasUniformOccupancyWithSyncSlots)
{
    const HopPlan plan = buildHopPlan(wired().design.xyPlan,
                                      wired().design.frequencyPlan,
                                      FhssConfig{0xBEEF});
    for (const GroupHopSchedule &g : plan.groups) {
        EXPECT_TRUE(hasUniformOccupancy(g)) << "line " << g.line;
        if (g.channelCount() >= 2) {
            // Four shuffled blocks per period.
            EXPECT_EQ(g.periodLength(), 4 * g.channelCount());
            // Each member really does visit each channel once per block.
            for (std::size_t m = 0; m < g.members.size(); ++m) {
                std::set<double> visited;
                for (std::size_t t = 0; t < g.channelCount(); ++t)
                    visited.insert(g.frequencyAtHop(m, t));
                EXPECT_EQ(visited.size(), g.channelCount());
            }
        }
    }
}

TEST(Fhss, HoppingSpectrumEqualsStaticSpectrumAtEveryHop)
{
    const HopPlan plan = buildHopPlan(wired().design.xyPlan,
                                      wired().design.frequencyPlan);
    const std::vector<double> &static_freq =
        wired().design.frequencyPlan.frequencyGHz;
    const std::multiset<double> static_spectrum(static_freq.begin(),
                                                static_freq.end());
    const std::size_t static_collisions =
        countSpectrumCollisions(static_freq);
    for (std::size_t hop = 0; hop < 2 * maxPeriodLength(plan); ++hop) {
        const std::vector<double> hopped = frequenciesAtHop(
            plan, wired().design.frequencyPlan, hop);
        EXPECT_EQ(std::multiset<double>(hopped.begin(), hopped.end()),
                  static_spectrum)
            << "hop " << hop;
        EXPECT_EQ(countSpectrumCollisions(hopped), static_collisions);
    }
}

TEST(Fhss, ScheduleIsDeterministicInTheSeed)
{
    const HopPlan a = buildHopPlan(wired().design.xyPlan,
                                   wired().design.frequencyPlan,
                                   FhssConfig{7});
    const HopPlan b = buildHopPlan(wired().design.xyPlan,
                                   wired().design.frequencyPlan,
                                   FhssConfig{7});
    ASSERT_EQ(a.groups.size(), b.groups.size());
    bool any_multi = false;
    for (std::size_t i = 0; i < a.groups.size(); ++i) {
        EXPECT_EQ(a.groups[i].sequence, b.groups[i].sequence);
        EXPECT_EQ(a.groups[i].channelsGHz, b.groups[i].channelsGHz);
        any_multi |= a.groups[i].channelCount() >= 3;
    }
    ASSERT_TRUE(any_multi);
    // A different seed reshuffles at least one multi-channel group.
    const HopPlan c = buildHopPlan(wired().design.xyPlan,
                                   wired().design.frequencyPlan,
                                   FhssConfig{8});
    bool any_differs = false;
    for (std::size_t i = 0; i < a.groups.size(); ++i)
        any_differs |= a.groups[i].sequence != c.groups[i].sequence;
    EXPECT_TRUE(any_differs);
}

TEST(Fhss, CollisionCounterCountsPairs)
{
    EXPECT_EQ(countSpectrumCollisions({}), 0u);
    EXPECT_EQ(countSpectrumCollisions({4.0, 5.0, 6.0}), 0u);
    EXPECT_EQ(countSpectrumCollisions({4.0, 4.0, 6.0}), 1u);
    EXPECT_EQ(countSpectrumCollisions({4.0, 4.0, 4.0}), 3u);
}

TEST(Fhss, ReportAndJsonCarryTheSchedule)
{
    const HopPlan plan = buildHopPlan(wired().design.xyPlan,
                                      wired().design.frequencyPlan);
    const std::string report = hopPlanReport(plan);
    EXPECT_NE(report.find("frequency-hopping schedule"),
              std::string::npos);
    EXPECT_NE(report.find("rotations:"), std::string::npos);

    const json::Value doc =
        json::parse(hopPlanToJson(plan), "hop json");
    EXPECT_EQ(doc.field("schema").asString("schema"), "youtiao-hop-1");
    const auto &groups = doc.field("groups").asArray("groups");
    ASSERT_EQ(groups.size(), plan.groups.size());
    for (std::size_t i = 0; i < groups.size(); ++i) {
        EXPECT_EQ(groups[i].field("members").asArray("members").size(),
                  plan.groups[i].members.size());
        EXPECT_EQ(groups[i].field("sequence").asArray("sequence").size(),
                  plan.groups[i].sequence.size());
    }
}

} // namespace
} // namespace youtiao
