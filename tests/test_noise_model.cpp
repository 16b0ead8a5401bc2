#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "noise/noise_model.hpp"

namespace youtiao {
namespace {

TEST(NoiseModel, SpectralOverlapUnityOnResonance)
{
    const NoiseModel nm;
    EXPECT_DOUBLE_EQ(nm.spectralOverlap(0.0), 1.0);
}

TEST(NoiseModel, SpectralOverlapHalfAtHalfLinewidth)
{
    NoiseModelConfig cfg;
    cfg.driveLinewidthGHz = 0.1;
    const NoiseModel nm(cfg);
    EXPECT_NEAR(nm.spectralOverlap(0.05), 0.5, 1e-12);
}

TEST(NoiseModel, SpectralOverlapDecaysMonotonically)
{
    const NoiseModel nm;
    double prev = 1.0;
    for (double df = 0.01; df < 2.0; df += 0.05) {
        const double o = nm.spectralOverlap(df);
        EXPECT_LT(o, prev);
        prev = o;
    }
}

TEST(NoiseModel, SimultaneousDriveErrorScalesWithCoupling)
{
    const NoiseModel nm;
    EXPECT_GT(nm.simultaneousDriveError(1e-2, 0.1),
              nm.simultaneousDriveError(1e-3, 0.1));
    EXPECT_GT(nm.simultaneousDriveError(1e-2, 0.1),
              nm.simultaneousDriveError(1e-2, 1.0));
}

TEST(NoiseModel, SimultaneousDriveErrorClamped)
{
    const NoiseModel nm;
    EXPECT_LE(nm.simultaneousDriveError(10.0, 0.0), 0.5);
}

TEST(NoiseModel, SharedLineLeakageSuppressedByDetuning)
{
    const NoiseModel nm;
    const double near = nm.sharedLineLeakage(0.05);
    const double far = nm.sharedLineLeakage(1.0);
    EXPECT_GT(near, far);
    EXPECT_LT(far, 1e-3);
}

TEST(NoiseModel, IdleErrorGrowsWithDuration)
{
    const NoiseModel nm;
    const double t1 = 90e3;
    EXPECT_DOUBLE_EQ(nm.idleError(0.0, t1), 0.0);
    EXPECT_LT(nm.idleError(100.0, t1), nm.idleError(1000.0, t1));
    EXPECT_NEAR(nm.idleError(90e3, t1), 1.0 - std::exp(-1.0), 1e-12);
}

TEST(NoiseModel, IdleErrorRequiresPositiveT1)
{
    const NoiseModel nm;
    EXPECT_THROW(nm.idleError(10.0, 0.0), ConfigError);
}

TEST(NoiseModel, ZzDephasingQuadraticInShift)
{
    const NoiseModel nm;
    const double e1 = nm.zzDephasingError(0.1, 60.0);
    const double e2 = nm.zzDephasingError(0.2, 60.0);
    EXPECT_NEAR(e2 / e1, 4.0, 1e-6);
}

TEST(NoiseModel, ZzDephasingClampedAtHalf)
{
    const NoiseModel nm;
    EXPECT_DOUBLE_EQ(nm.zzDephasingError(100.0, 1000.0), 0.5);
}

TEST(NoiseModel, CombineIndependentErrors)
{
    EXPECT_DOUBLE_EQ(NoiseModel::combine(0.0, 0.0), 0.0);
    EXPECT_NEAR(NoiseModel::combine(0.1, 0.2), 0.28, 1e-12);
    EXPECT_DOUBLE_EQ(NoiseModel::combine(1.0, 0.5), 1.0);
}

TEST(NoiseModel, BadLinewidthThrows)
{
    NoiseModelConfig cfg;
    cfg.driveLinewidthGHz = 0.0;
    EXPECT_THROW(NoiseModel{cfg}, ConfigError);
}

TEST(NoiseModel, PaperCalibratedDefaults)
{
    const NoiseModelConfig cfg;
    EXPECT_DOUBLE_EQ(cfg.oneQubitBaseError, 1e-4);   // 99.99% 1q fidelity
    EXPECT_DOUBLE_EQ(cfg.twoQubitBaseError, 2.7e-3); // 99.73% 2q fidelity
}

} // namespace
} // namespace youtiao
