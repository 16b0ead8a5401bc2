#include <gtest/gtest.h>

#include "chip/topology.hpp"
#include "common/error.hpp"

namespace youtiao {
namespace {

ChipTopology
twoQubitChip()
{
    ChipTopology chip("pair");
    QubitInfo q;
    q.position = Point{0.0, 0.0};
    chip.addQubit(q);
    q.position = Point{1.0, 0.0};
    chip.addQubit(q);
    chip.addCoupler(0, 1);
    return chip;
}

TEST(ChipTopology, CountsAndName)
{
    const ChipTopology chip = twoQubitChip();
    EXPECT_EQ(chip.name(), "pair");
    EXPECT_EQ(chip.qubitCount(), 2u);
    EXPECT_EQ(chip.couplerCount(), 1u);
    EXPECT_EQ(chip.deviceCount(), 3u);
}

TEST(ChipTopology, CouplerPlacedAtMidpoint)
{
    const ChipTopology chip = twoQubitChip();
    EXPECT_DOUBLE_EQ(chip.coupler(0).position.x, 0.5);
    EXPECT_DOUBLE_EQ(chip.coupler(0).position.y, 0.0);
}

TEST(ChipTopology, DeviceIdConvention)
{
    const ChipTopology chip = twoQubitChip();
    EXPECT_EQ(chip.deviceKind(0), DeviceKind::Qubit);
    EXPECT_EQ(chip.deviceKind(1), DeviceKind::Qubit);
    EXPECT_EQ(chip.deviceKind(2), DeviceKind::Coupler);
    EXPECT_EQ(chip.couplerDeviceId(0), 2u);
    EXPECT_THROW(chip.deviceKind(3), ConfigError);
}

TEST(ChipTopology, DevicePositions)
{
    const ChipTopology chip = twoQubitChip();
    EXPECT_DOUBLE_EQ(chip.devicePosition(1).x, 1.0);
    EXPECT_DOUBLE_EQ(chip.devicePosition(2).x, 0.5);
}

TEST(ChipTopology, QubitGraphEdgeIsCouplerIndex)
{
    ChipTopology chip = twoQubitChip();
    QubitInfo q;
    q.position = Point{2.0, 0.0};
    chip.addQubit(q);
    const std::size_t c = chip.addCoupler(1, 2);
    EXPECT_EQ(c, 1u);
    EXPECT_EQ(chip.qubitGraph().edgeCount(), chip.couplerCount());
    EXPECT_EQ(chip.couplerBetween(1, 2), c);
    EXPECT_EQ(chip.couplerBetween(0, 2), ChipTopology::npos);
}

TEST(ChipTopology, PhysicalDistance)
{
    const ChipTopology chip = twoQubitChip();
    EXPECT_DOUBLE_EQ(chip.physicalDistance(0, 1), 1.0);
}

TEST(ChipTopology, DuplicateCouplerRejected)
{
    ChipTopology chip = twoQubitChip();
    EXPECT_THROW(chip.addCoupler(0, 1), ConfigError);
    EXPECT_THROW(chip.addCoupler(1, 0), ConfigError);
}

TEST(ChipTopology, CouplerToMissingQubitRejected)
{
    ChipTopology chip = twoQubitChip();
    EXPECT_THROW(chip.addCoupler(0, 5), ConfigError);
}

TEST(ChipTopology, BoundingBox)
{
    const ChipTopology chip = twoQubitChip();
    const Point bb = chip.boundingBox();
    EXPECT_DOUBLE_EQ(bb.x, 1.0);
    EXPECT_DOUBLE_EQ(bb.y, 0.0);
}

TEST(ChipTopology, PointDistanceHelper)
{
    EXPECT_DOUBLE_EQ(distance(Point{0, 0}, Point{3, 4}), 5.0);
}

} // namespace
} // namespace youtiao
