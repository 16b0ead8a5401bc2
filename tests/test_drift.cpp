// Drift simulation and online adaptation: seeded traces replay bit for
// bit (including across thread counts), the TLS fidelity term is inert
// when no defects are supplied, re-allocation never loses to the static
// policy on the shared evaluation circuits, and a fully masked zone
// falls back to the designRobust ladder with an honest
// DegradationReport.

#include <cmath>

#include <gtest/gtest.h>

#include "chip/topology_builder.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/prng.hpp"
#include "core/drift_adaptation.hpp"

namespace youtiao {
namespace {

bool
sameEpochs(const DriftAdaptationResult &a, const DriftAdaptationResult &b)
{
    if (a.epochs.size() != b.epochs.size())
        return false;
    for (std::size_t i = 0; i < a.epochs.size(); ++i) {
        const DriftEpochResult &x = a.epochs[i];
        const DriftEpochResult &y = b.epochs[i];
        if (x.fidelity != y.fidelity ||
            x.allocationCost != y.allocationCost ||
            x.dirtyGroups != y.dirtyGroups ||
            x.retunedQubits != y.retunedQubits ||
            x.spectrumViolations != y.spectrumViolations ||
            x.fullRedesign != y.fullRedesign)
            return false;
    }
    return a.finalFrequencyGHz == b.finalFrequencyGHz;
}

struct Rig
{
    ChipTopology chip = makeSquareGrid(5, 5);
    ChipCharacterization data;
    YoutiaoConfig config;
    YoutiaoDesign design;
    DriftTrace trace;

    Rig()
    {
        Prng prng(0xD21);
        data = characterizeChip(chip, prng);
        design = YoutiaoDesigner(config)
                     .designFromMeasurements(chip, data);
        DriftConfig drift;
        drift.epochs = 12;
        drift.seed = 0xABCDE;
        trace = simulateDrift(chip.qubitCount(), drift);
    }

    DriftAdaptationResult
    replay(DriftPolicy policy) const
    {
        DriftAdaptationConfig adapt;
        adapt.policy = policy;
        return DriftAdapter(config, adapt).run(chip, design, data,
                                               trace);
    }
};

const Rig &
rig()
{
    static const Rig r;
    return r;
}

TEST(Drift, TraceIsDeterministicInTheSeed)
{
    DriftConfig config;
    config.epochs = 8;
    const DriftTrace a = simulateDrift(16, config);
    const DriftTrace b = simulateDrift(16, config);
    ASSERT_EQ(a.defects.size(), b.defects.size());
    for (std::size_t i = 0; i < a.defects.size(); ++i) {
        EXPECT_EQ(a.defects[i].qubit, b.defects[i].qubit);
        EXPECT_EQ(a.defects[i].frequencyGHz, b.defects[i].frequencyGHz);
        EXPECT_EQ(a.defects[i].bornEpoch, b.defects[i].bornEpoch);
        EXPECT_EQ(a.defects[i].diesEpoch, b.defects[i].diesEpoch);
    }
    EXPECT_EQ(a.qubitScale, b.qubitScale);

    config.seed += 1;
    const DriftTrace c = simulateDrift(16, config);
    EXPECT_NE(a.qubitScale, c.qubitScale);
}

TEST(Drift, DefectsRespectLifetimesAndBand)
{
    DriftConfig config;
    const DriftTrace trace = simulateDrift(36, config);
    ASSERT_FALSE(trace.defects.empty());
    for (const TlsDefect &d : trace.defects) {
        EXPECT_LT(d.qubit, 36u);
        EXPECT_GE(d.frequencyGHz, kXyBandLoGHz);
        EXPECT_LT(d.frequencyGHz, kXyBandHiGHz);
        EXPECT_LT(d.bornEpoch, d.diesEpoch);
        EXPECT_GT(d.strength, 0.0);
        EXPECT_FALSE(d.activeAt(config.epochs + d.diesEpoch));
        if (d.bornEpoch < config.epochs) {
            EXPECT_TRUE(d.activeAt(d.bornEpoch));
        }
    }
    // Active sets and masks are consistent with the defect list.
    for (std::size_t e = 0; e < config.epochs; e += 6) {
        std::size_t masked = 0;
        for (const TlsDefect &d : trace.activeDefects(e)) {
            EXPECT_TRUE(d.activeAt(e));
            masked += d.masksBand ? 1 : 0;
        }
        EXPECT_EQ(trace.maskedBands(e).size(), masked);
    }
}

TEST(Drift, DriftedCrosstalkScalesSymmetrically)
{
    DriftConfig config;
    config.epochs = 6;
    const DriftTrace trace = simulateDrift(4, config);
    SymmetricMatrix base(4, 0.0);
    base(0, 1) = 0.5;
    base(2, 3) = 0.1;
    const SymmetricMatrix drifted = driftedCrosstalk(base, trace, 5);
    EXPECT_DOUBLE_EQ(drifted(0, 1),
                     0.5 * std::sqrt(trace.scale(5, 0) *
                                     trace.scale(5, 1)));
    EXPECT_DOUBLE_EQ(drifted(1, 0), drifted(0, 1));
    EXPECT_DOUBLE_EQ(drifted(0, 2), 0.0);
}

TEST(Drift, EmptyTlsListLeavesFidelityBitIdentical)
{
    const Rig &r = rig();
    const FidelityContext base =
        YoutiaoDesigner(r.config).makeFidelityContext(r.chip, r.design);
    QuantumCircuit qc(r.chip.qubitCount());
    Prng prng(0x71);
    for (std::size_t q = 0; q < r.chip.qubitCount(); ++q)
        qc.rx(q, prng.uniform(-1.0, 1.0));
    const double clean = estimateFidelity(qc, base).fidelity;

    FidelityContext with_empty = base;
    with_empty.tlsDefects.clear();
    EXPECT_EQ(estimateFidelity(qc, with_empty).fidelity, clean);

    // A defect parked on a driven qubit's frequency must bite...
    FidelityContext with_tls = base;
    with_tls.tlsDefects.push_back(
        TlsNoiseSource{0, base.frequencyGHz[0], 0.05, 0.03});
    EXPECT_LT(estimateFidelity(qc, with_tls).fidelity, clean);
    // ...and a far-detuned one barely so.
    FidelityContext far_tls = base;
    far_tls.tlsDefects.push_back(
        TlsNoiseSource{0, base.frequencyGHz[0] + 1.0, 0.05, 0.03});
    EXPECT_GT(estimateFidelity(qc, far_tls).fidelity,
              estimateFidelity(qc, with_tls).fidelity);
}

TEST(Drift, ReplayIsReproducibleForAFixedSeedAndTrace)
{
    for (DriftPolicy policy :
         {DriftPolicy::Static, DriftPolicy::Hopping,
          DriftPolicy::Reallocate}) {
        const DriftAdaptationResult a = rig().replay(policy);
        const DriftAdaptationResult b = rig().replay(policy);
        EXPECT_TRUE(sameEpochs(a, b)) << driftPolicyName(policy);
        EXPECT_EQ(a.degradation.summary(), b.degradation.summary());
    }
}

TEST(Drift, ReplayIsBitIdenticalAcrossThreadCounts)
{
    for (DriftPolicy policy :
         {DriftPolicy::Static, DriftPolicy::Hopping,
          DriftPolicy::Reallocate}) {
        std::vector<DriftAdaptationResult> runs;
        for (std::size_t threads : {1u, 4u}) {
            ThreadPool::setGlobalThreadCount(threads);
            runs.push_back(rig().replay(policy));
        }
        ThreadPool::setGlobalThreadCount(0);
        EXPECT_TRUE(sameEpochs(runs[0], runs[1]))
            << driftPolicyName(policy);
        EXPECT_EQ(runs[0].degradation.summary(),
                  runs[1].degradation.summary());
    }
}

TEST(Drift, ReallocationNeverLosesToStaticAndStaysDrcClean)
{
    const DriftAdaptationResult flat = rig().replay(DriftPolicy::Static);
    const DriftAdaptationResult adapted =
        rig().replay(DriftPolicy::Reallocate);
    ASSERT_EQ(flat.epochs.size(), adapted.epochs.size());
    EXPECT_GE(adapted.endFidelity(), flat.endFidelity());
    EXPECT_GE(adapted.meanFidelity(), flat.meanFidelity());
    EXPECT_EQ(adapted.totalViolations(), 0u);
    // The busy trace must actually have exercised the adapter.
    EXPECT_GT(adapted.totalRetunes(), 0u);
}

TEST(Drift, FullyMaskedZoneFallsBackToTheRobustLadder)
{
    // Mask the whole of zone 0 after the design shipped: incremental
    // repair finds no usable cell there and must hand over to
    // designRobust, whose ladder shrinks the line capacity until the
    // wider zones reach past the mask.
    const Rig &r = rig();
    const XyLattice lattice(r.design.frequencyPlan.zoneCount);
    ASSERT_GE(r.design.frequencyPlan.zoneCount, 2u);
    YoutiaoConfig masked = r.config;
    masked.frequency.maskedBandsGHz.emplace_back(
        kXyBandLoGHz, kXyBandLoGHz + lattice.zoneWidthGHz);

    DriftAdaptationConfig adapt;
    adapt.policy = DriftPolicy::Reallocate;
    const DriftAdaptationResult result =
        DriftAdapter(masked, adapt).run(r.chip, r.design, r.data, r.trace);
    EXPECT_TRUE(result.epochs.front().fullRedesign);
    EXPECT_GT(result.fullRedesigns(), 0u);
    EXPECT_FALSE(result.degradation.empty());
    EXPECT_FALSE(result.degradation.notes.empty());
}

TEST(Drift, JsonDocumentsCarryTraceAndSeries)
{
    const DriftAdaptationResult flat = rig().replay(DriftPolicy::Static);
    const json::Value trace_doc =
        json::parse(driftTraceToJson(rig().trace), "drift trace");
    EXPECT_EQ(trace_doc.field("schema").asString("schema"),
              "youtiao-drift-1");
    EXPECT_EQ(trace_doc.field("defects").asArray("defects").size(),
              rig().trace.defects.size());

    const json::Value doc = json::parse(
        driftResultsToJson(rig().trace, {flat}), "drift results");
    EXPECT_EQ(doc.field("schema").asString("schema"),
              "youtiao-drift-adaptation-1");
    const auto &policies = doc.field("policies").asArray("policies");
    ASSERT_EQ(policies.size(), 1u);
    EXPECT_EQ(policies[0].field("policy").asString("policy"), "static");
    EXPECT_EQ(policies[0].field("epochs").asArray("epochs").size(),
              flat.epochs.size());
}

} // namespace
} // namespace youtiao
