#include <gtest/gtest.h>

#include "circuit/surface_code_circuit.hpp"
#include "core/baselines.hpp"
#include "core/fault_tolerant.hpp"
#include "multiplex/tdm_scheduler.hpp"
#include "oracles/checks.hpp"

namespace youtiao {
namespace {

class FtDistances : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(FtDistances, WiringLegalAndComplete)
{
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(GetParam());
    const SurfaceCodeWiring w = designSurfaceCodeWiring(layout);
    EXPECT_TRUE(allGatesRealizable(layout.chip, w.zPlan));
    std::vector<int> seen(layout.chip.deviceCount(), 0);
    for (const TdmGroup &g : w.zPlan.groups)
        for (std::size_t d : g.devices)
            ++seen[d];
    for (int s : seen)
        EXPECT_EQ(s, 1);
}

TEST_P(FtDistances, XyLinesMatchPaperTable1)
{
    const std::size_t d = GetParam();
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(d);
    const SurfaceCodeWiring w = designSurfaceCodeWiring(layout);
    // Paper Table 1: ceil((2d^2-1)/5) = 4, 10, 20, 33, 49.
    EXPECT_EQ(w.counts.xyLines, (2 * d * d - 1 + 4) / 5);
}

TEST_P(FtDistances, DepthOverheadWithinBudget)
{
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(GetParam());
    const SurfaceCodeWiring w = designSurfaceCodeWiring(layout);
    const QuantumCircuit qc = makeSurfaceCodeCycles(layout, 5);
    const std::size_t ours =
        scheduleWithTdm(qc, layout.chip, w.zPlan).twoQubitDepth(qc);
    const std::size_t ideal =
        scheduleWithTdm(qc, layout.chip, dedicatedZPlan(layout.chip))
            .twoQubitDepth(qc);
    // One sacrificed step => at most +1 CZ layer per cycle (paper: the
    // 25-cycle depth grows by 1.04-1.18x; ours 1.25x).
    EXPECT_LE(ours, ideal + 5 * (w.sacrificedSteps + 1));
    EXPECT_GE(ours, ideal);
}

TEST_P(FtDistances, CheaperThanDedicated)
{
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(GetParam());
    const SurfaceCodeWiring w = designSurfaceCodeWiring(layout);
    const WiringCounts google = dedicatedWiringCounts(
        layout.chip.qubitCount(), layout.chip.couplerCount());
    EXPECT_LT(w.costUsd, 0.6 * wiringCostUsd(google));
    EXPECT_LT(w.counts.zLines, google.zLines);
}

INSTANTIATE_TEST_SUITE_P(PaperDistances, FtDistances,
                         ::testing::Values(3, 5, 7, 9, 11));

TEST(FaultTolerant, StabilizerCouplersShareOneDemux)
{
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(3);
    const SurfaceCodeWiring w = designSurfaceCodeWiring(layout);
    for (std::size_t m = 0; m < layout.chip.qubitCount(); ++m) {
        if (layout.roles[m] == SurfaceCodeRole::Data)
            continue;
        std::size_t group = TdmPlan{}.groups.size();
        bool first = true;
        for (const Incidence &inc :
             layout.chip.qubitGraph().incidences(m)) {
            const std::size_t g =
                w.zPlan.groupOfDevice[layout.chip.couplerDeviceId(
                    inc.edge)];
            if (first) {
                group = g;
                first = false;
            } else {
                EXPECT_EQ(g, group) << "stabilizer " << m;
            }
        }
    }
}

TEST(FaultTolerant, MeasureQubitsDedicated)
{
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(5);
    const SurfaceCodeWiring w = designSurfaceCodeWiring(layout);
    for (std::size_t q = 0; q < layout.chip.qubitCount(); ++q) {
        if (layout.roles[q] == SurfaceCodeRole::Data)
            continue;
        const TdmGroup &g = w.zPlan.groups[w.zPlan.groupOfDevice[q]];
        EXPECT_EQ(g.devices.size(), 1u);
    }
}

TEST(FaultTolerant, ZeroBudgetMeansNoOverlap)
{
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(5);
    const SurfaceCodeWiring w =
        designSurfaceCodeWiring(layout, {}, 0);
    EXPECT_EQ(w.sacrificedSteps, 0u);
    const QuantumCircuit qc = makeSurfaceCodeCycles(layout, 3);
    const std::size_t ours =
        scheduleWithTdm(qc, layout.chip, w.zPlan).twoQubitDepth(qc);
    EXPECT_EQ(ours, 3 * idealCzLayersPerCycle())
        << "zero sacrificed steps must add zero depth";
}

TEST(FaultTolerant, LargerBudgetNeverMoreLines)
{
    const SurfaceCodeLayout layout = makeSurfaceCodeLayout(7);
    const SurfaceCodeWiring tight = designSurfaceCodeWiring(layout, {}, 0);
    const SurfaceCodeWiring loose = designSurfaceCodeWiring(layout, {}, 2);
    EXPECT_LE(loose.counts.zLines, tight.counts.zLines);
}

} // namespace
} // namespace youtiao
