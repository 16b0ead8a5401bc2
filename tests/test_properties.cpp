/**
 * Cross-module property tests: invariants that must hold for *any* chip,
 * seed, and configuration, swept over randomized instances. These are the
 * guards that keep the greedy heuristics honest.
 */

#include <gtest/gtest.h>

#include <set>

#include "chip/topology_builder.hpp"
#include "circuit/benchmarks.hpp"
#include "circuit/transpiler.hpp"
#include "core/youtiao.hpp"
#include "multiplex/tdm_scheduler.hpp"
#include "noise/equivalent_distance.hpp"
#include "oracles/statevector.hpp"

namespace youtiao {
namespace {

/** Post-hoc check: no layer holds two Z-active devices of one DEMUX. */
bool
scheduleRespectsTdm(const QuantumCircuit &qc, const Schedule &schedule,
                    const ChipTopology &chip, const TdmPlan &plan)
{
    const TdmLayerConstraint constraint(chip, plan);
    for (const auto &layer : schedule.layers) {
        std::set<std::size_t> active_groups;
        for (std::size_t gi : layer) {
            for (std::size_t dev :
                 constraint.requiredDevices(qc.gates()[gi])) {
                if (!active_groups.insert(plan.groupOfDevice[dev])
                         .second)
                    return false;
            }
        }
    }
    return true;
}

/** Post-hoc check: no layer uses a qubit twice. */
bool
scheduleQubitsDisjoint(const QuantumCircuit &qc, const Schedule &schedule)
{
    for (const auto &layer : schedule.layers) {
        std::set<std::size_t> used;
        for (std::size_t gi : layer) {
            const Gate &g = qc.gates()[gi];
            if (!used.insert(g.qubit0).second)
                return false;
            if (isTwoQubit(g.kind) && !used.insert(g.qubit1).second)
                return false;
        }
    }
    return true;
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SeedSweep, FullPipelineInvariants)
{
    const std::uint64_t seed = GetParam();
    Prng chip_prng(seed);
    const std::size_t rows = 3 + chip_prng.uniformInt(std::size_t{3});
    const std::size_t cols = 3 + chip_prng.uniformInt(std::size_t{3});
    const ChipTopology chip = makeSquareGrid(rows, cols);
    Prng data_prng(seed ^ 0xDA7A);
    const ChipCharacterization data = characterizeChip(chip, data_prng);

    YoutiaoConfig config;
    config.seed = seed;
    config.fit.forest.treeCount = 8;
    config.fdm.lineCapacity = 2 + chip_prng.uniformInt(std::size_t{5});
    const YoutiaoDesigner designer(config);
    const YoutiaoDesign design = designer.design(chip, data);

    // FDM: exact cover, capacity respected.
    std::vector<int> seen(chip.qubitCount(), 0);
    for (const auto &line : design.xyPlan.lines) {
        ASSERT_LE(line.size(), config.fdm.lineCapacity);
        for (std::size_t q : line)
            ++seen[q];
    }
    for (int s : seen)
        ASSERT_EQ(s, 1);

    // Frequencies in band, in-line members in distinct zones.
    for (const auto &line : design.xyPlan.lines) {
        std::set<std::size_t> zones;
        for (std::size_t q : line) {
            ASSERT_GE(design.frequencyPlan.frequencyGHz[q], kXyBandLoGHz);
            ASSERT_LE(design.frequencyPlan.frequencyGHz[q], kXyBandHiGHz);
            zones.insert(design.frequencyPlan.zoneOfQubit[q]);
        }
        ASSERT_EQ(zones.size(), line.size());
    }

    // TDM: legality and exact cover.
    ASSERT_TRUE(allGatesRealizable(chip, design.zPlan));
    std::vector<int> dev_seen(chip.deviceCount(), 0);
    for (const TdmGroup &g : design.zPlan.groups) {
        ASSERT_LE(g.devices.size(), g.fanout);
        for (std::size_t d : g.devices)
            ++dev_seen[d];
    }
    for (int s : dev_seen)
        ASSERT_EQ(s, 1);

    // Multiplexing must never cost more than dedicated wiring.
    const WiringCounts dedicated = dedicatedWiringCounts(
        chip.qubitCount(), chip.couplerCount(), config.cost);
    ASSERT_LT(design.counts.coax(), dedicated.coax());
    ASSERT_LT(design.costUsd, wiringCostUsd(dedicated));
}

TEST_P(SeedSweep, TdmSchedulesHonorTheConstraint)
{
    const std::uint64_t seed = GetParam();
    const ChipTopology chip = makeSquareGrid(4, 4);
    Prng data_prng(seed);
    const SymmetricMatrix zz =
        characterizeChip(chip, data_prng).zzCrosstalkMHz;
    const TdmPlan plan = groupTdm(chip, zz);

    Prng circuit_prng(seed ^ 0xC1C);
    for (BenchmarkKind kind : allBenchmarks()) {
        const QuantumCircuit physical =
            transpile(makeBenchmark(kind, 10, circuit_prng), chip)
                .physical;
        const Schedule s = scheduleWithTdm(physical, chip, plan);
        EXPECT_TRUE(scheduleRespectsTdm(physical, s, chip, plan))
            << benchmarkName(kind);
        EXPECT_TRUE(scheduleQubitsDisjoint(physical, s))
            << benchmarkName(kind);
    }
}

TEST_P(SeedSweep, TranspilationPreservesMarginals)
{
    // Random small circuits: per-qubit measurement marginals survive
    // transpilation (up to the final layout permutation).
    const std::uint64_t seed = GetParam();
    const ChipTopology chip = makeSquareGrid(2, 3);
    Prng prng(seed ^ 0x7A5);
    QuantumCircuit logical(5, "random");
    for (int g = 0; g < 24; ++g) {
        switch (prng.uniformInt(std::size_t{5})) {
          case 0:
            logical.h(prng.uniformInt(std::size_t{5}));
            break;
          case 1:
            logical.rx(prng.uniformInt(std::size_t{5}),
                       prng.uniform(-3.0, 3.0));
            break;
          case 2:
            logical.ry(prng.uniformInt(std::size_t{5}),
                       prng.uniform(-3.0, 3.0));
            break;
          case 3: {
            const auto a = prng.uniformInt(std::size_t{5});
            const auto b = prng.uniformInt(std::size_t{5});
            if (a != b)
                logical.cz(a, b);
            break;
          }
          default: {
            const auto a = prng.uniformInt(std::size_t{5});
            const auto b = prng.uniformInt(std::size_t{5});
            if (a != b)
                logical.cnot(a, b);
            break;
          }
        }
    }
    const TranspileResult result = transpile(logical, chip);
    const StateVector routed = simulate(result.physical);
    const StateVector direct = simulate(logical);
    for (std::size_t l = 0; l < logical.qubitCount(); ++l) {
        EXPECT_NEAR(routed.probabilityOfOne(result.finalLayout[l]),
                    direct.probabilityOfOne(l), 1e-9)
            << "seed " << seed << " logical qubit " << l;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// -- failure injection ----------------------------------------------------

/** Grid with randomly deleted couplers (fabrication defects). */
ChipTopology
defectiveGrid(std::size_t rows, std::size_t cols, double drop_rate,
              Prng &prng)
{
    const ChipTopology pristine = makeSquareGrid(rows, cols);
    ChipTopology chip("defective grid");
    for (const QubitInfo &q : pristine.qubits())
        chip.addQubit(q);
    for (const CouplerInfo &c : pristine.couplers()) {
        if (!prng.bernoulli(drop_rate))
            chip.addCoupler(c.qubitA, c.qubitB);
    }
    return chip;
}

TEST(FailureInjection, DesignSurvivesDeadCouplers)
{
    for (std::uint64_t seed : {3u, 7u, 11u}) {
        Prng prng(seed);
        const ChipTopology chip = defectiveGrid(5, 5, 0.15, prng);
        Prng data_prng(seed ^ 0xDEAD);
        const ChipCharacterization data =
            characterizeChip(chip, data_prng);
        YoutiaoConfig config;
        config.fit.forest.treeCount = 8;
        const YoutiaoDesign design =
            YoutiaoDesigner(config).design(chip, data);
        EXPECT_TRUE(allGatesRealizable(chip, design.zPlan));
        EXPECT_EQ(design.xyPlan.lineOfQubit.size(), chip.qubitCount());
    }
}

TEST(FailureInjection, IsolatedQubitStillWired)
{
    // A qubit with no couplers at all (all its links dead) must still get
    // an XY line and a Z line.
    ChipTopology chip("isolated corner");
    for (int i = 0; i < 8; ++i) {
        QubitInfo q;
        q.position = Point{1.6 * i, 0.0};
        chip.addQubit(q);
    }
    for (int i = 0; i + 1 < 7; ++i)
        chip.addCoupler(i, i + 1); // qubit 7 isolated
    Prng prng(5);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 8;
    const YoutiaoDesign design = YoutiaoDesigner(config).design(chip, data);
    EXPECT_NE(design.xyPlan.lineOfQubit[7], static_cast<std::size_t>(-1));
    EXPECT_NE(design.zPlan.groupOfDevice[7], static_cast<std::size_t>(-1));
}

TEST(FailureInjection, SchedulerRejectsCzAcrossDeadCoupler)
{
    Prng prng(13);
    const ChipTopology chip = defectiveGrid(3, 3, 0.3, prng);
    // Find an uncoupled pair and try to CZ it directly.
    for (std::size_t a = 0; a < chip.qubitCount(); ++a) {
        for (std::size_t b = a + 1; b < chip.qubitCount(); ++b) {
            if (chip.qubitGraph().hasEdge(a, b))
                continue;
            QuantumCircuit qc(chip.qubitCount());
            qc.cz(a, b);
            EXPECT_THROW(scheduleWithTdm(qc, chip, dedicatedZPlan(chip)),
                         ConfigError);
            return;
        }
    }
}

} // namespace
} // namespace youtiao
