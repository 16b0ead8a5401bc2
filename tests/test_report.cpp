#include <gtest/gtest.h>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "core/report.hpp"

namespace youtiao {
namespace {

struct Reported
{
    ChipTopology chip = makeSquareGrid(3, 3);
    YoutiaoConfig config;
    YoutiaoDesign design;

    Reported()
    {
        Prng prng(5);
        const ChipCharacterization data = characterizeChip(chip, prng);
        config.fit.forest.treeCount = 10;
        design = YoutiaoDesigner(config).design(chip, data);
    }
};

const Reported &
reported()
{
    static const Reported r;
    return r;
}

TEST(Report, ChipMapShapesMatchGrid)
{
    const std::string map =
        chipMap(reported().chip, reported().design.xyPlan.lineOfQubit);
    // 3 rows of 6 characters (two columns per site) + newlines.
    EXPECT_EQ(map.size(), 3 * 7u);
    std::size_t letters = 0;
    for (char c : map)
        if (c >= 'A' && c <= 'Z')
            ++letters;
    EXPECT_EQ(letters, 9u);
}

TEST(Report, ChipMapLettersFollowAssignment)
{
    std::vector<std::size_t> assignment(9, 0);
    assignment[8] = 1; // top-right qubit on line B
    const std::string map = chipMap(reported().chip, assignment);
    // Rows print top-down; top-right qubit is the last letter of row 0.
    EXPECT_EQ(map[4], 'B');
    EXPECT_EQ(map[0], 'A');
}

TEST(Report, ChipMapRejectsWrongSize)
{
    EXPECT_THROW(chipMap(reported().chip, std::vector<std::size_t>(4)),
                 ConfigError);
}

TEST(Report, WiringReportMentionsEveryPlane)
{
    const std::string report = wiringReport(reported().chip,
                                            reported().design,
                                            reported().config);
    EXPECT_NE(report.find("XY plane"), std::string::npos);
    EXPECT_NE(report.find("Z plane"), std::string::npos);
    EXPECT_NE(report.find("cryostat bill"), std::string::npos);
    EXPECT_NE(report.find("GHz"), std::string::npos);
}

TEST(Report, CostComparisonFormatsRatio)
{
    const BaselineDesign google =
        designGoogleWiring(reported().chip, reported().config);
    const std::string line =
        costComparison(reported().design, google, "dedicated");
    EXPECT_NE(line.find("dedicated"), std::string::npos);
    EXPECT_NE(line.find("x cheaper"), std::string::npos);
}

} // namespace
} // namespace youtiao

// -- schedule rendering -----------------------------------------------------

#include "circuit/scheduler.hpp"
#include "oracles/retired.hpp"

namespace youtiao {
namespace {

TEST(RenderSchedule, MarksGateClasses)
{
    QuantumCircuit qc(3);
    qc.h(0);
    qc.cz(1, 2);
    qc.measure(0);
    const Schedule s = scheduleCircuit(qc);
    const std::string art = renderSchedule(qc, s);
    // Layer 0: H on q0, CZ on q1/q2. Layer 1: measure on q0.
    EXPECT_NE(art.find("q0   1M"), std::string::npos) << art;
    EXPECT_NE(art.find("q1   =."), std::string::npos) << art;
    EXPECT_NE(art.find("q2   =."), std::string::npos) << art;
}

TEST(RenderSchedule, TruncatesLongSchedules)
{
    QuantumCircuit qc(1);
    for (int i = 0; i < 100; ++i)
        qc.rx(0, 1.0);
    const Schedule s = scheduleCircuit(qc);
    const std::string art = renderSchedule(qc, s, 10);
    EXPECT_NE(art.find("(+90 more layers)"), std::string::npos);
}

TEST(RenderSchedule, EmptySchedule)
{
    QuantumCircuit qc(2);
    const std::string art = renderSchedule(qc, scheduleCircuit(qc));
    EXPECT_NE(art.find("q0"), std::string::npos);
}

} // namespace
} // namespace youtiao
