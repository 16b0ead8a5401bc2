#include <gtest/gtest.h>

#include "common/error.hpp"
#include "noise/noise_model.hpp"
#include "oracles/retired.hpp"
#include "sim/pulse.hpp"

namespace youtiao {
namespace {

TEST(Pulse, PiPulseFlipsOnResonance)
{
    EXPECT_NEAR(spectatorExcitation(0.0), 1.0, 1e-6);
}

TEST(Pulse, HalfPiPulseGivesHalfPopulation)
{
    PulseConfig cfg;
    cfg.angle = 3.14159265358979323846 / 2.0;
    EXPECT_NEAR(spectatorExcitation(0.0, cfg), 0.5, 1e-6);
}

TEST(Pulse, ExcitationDecaysWithDetuning)
{
    const double near = spectatorExcitation(0.02);
    const double mid = spectatorExcitation(0.10);
    const double far = spectatorExcitation(0.50);
    EXPECT_GT(near, mid);
    EXPECT_GT(mid, far);
    EXPECT_LT(far, 0.02);
}

TEST(Pulse, FarDetunedSpectatorBarelyExcited)
{
    // A qubit one frequency zone away (>= 600 MHz) must be safe.
    EXPECT_LT(spectatorExcitation(0.6), 1e-3);
}

TEST(Pulse, SymmetricInDetuningSign)
{
    EXPECT_NEAR(spectatorExcitation(0.08), spectatorExcitation(-0.08),
                1e-9);
}

TEST(Pulse, ProfileMatchesPointEvaluations)
{
    const auto profile = excitationProfile(0.0, 0.2, 5);
    ASSERT_EQ(profile.size(), 5u);
    EXPECT_NEAR(profile[0], spectatorExcitation(0.0), 1e-12);
    EXPECT_NEAR(profile[4], spectatorExcitation(0.2), 1e-12);
    EXPECT_THROW(excitationProfile(0.2, 0.1, 5), ConfigError);
    EXPECT_THROW(excitationProfile(0.0, 1.0, 1), ConfigError);
}

TEST(Pulse, EffectiveLinewidthNearConfiguredModel)
{
    // The NoiseModel abstracts the pulse response as a Lorentzian with
    // ~50 MHz linewidth; the time-domain integration should land within
    // a small factor of that for a 25 ns pi pulse.
    const double width = effectiveLinewidthGHz();
    EXPECT_GT(width, 0.005);
    EXPECT_LT(width, 0.12);
}

TEST(Pulse, LorentzianUpperBoundsFarTail)
{
    // Beyond a few linewidths, the Gaussian pulse's spectral tail falls
    // *faster* than the Lorentzian, so the NoiseModel is conservative.
    NoiseModelConfig cfg;
    const NoiseModel nm(cfg);
    for (double df : {0.3, 0.5, 0.8}) {
        EXPECT_LT(spectatorExcitation(df),
                  nm.spectralOverlap(df) * 3.0)
            << "detuning " << df;
    }
}

TEST(Pulse, LongerPulsesAreMoreSelective)
{
    PulseConfig fast;
    fast.durationNs = 12.5;
    PulseConfig slow;
    slow.durationNs = 50.0;
    EXPECT_GT(spectatorExcitation(0.08, fast),
              spectatorExcitation(0.08, slow));
}

TEST(Pulse, UnitarityPreserved)
{
    // Population never exceeds 1 anywhere on the profile.
    for (int i = 0; i <= 20; ++i) {
        const double p = spectatorExcitation(i / 20.0);
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0 + 1e-9);
    }
}

TEST(Pulse, BadConfigThrows)
{
    PulseConfig cfg;
    cfg.steps = 4;
    EXPECT_THROW(spectatorExcitation(0.0, cfg), ConfigError);
    PulseConfig bad;
    bad.durationNs = 0.0;
    EXPECT_THROW(spectatorExcitation(0.0, bad), ConfigError);
}

} // namespace
} // namespace youtiao
