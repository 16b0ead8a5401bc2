#include "noise/drift.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/prng.hpp"
#include "multiplex/frequency_allocation.hpp"

namespace youtiao {

namespace {

/** Expected TLS appearances per qubit per day. */
constexpr double kTlsBirthsPerQubitPerDay = 0.5;
/** Mean TLS lifetime (hours, exponential). */
constexpr double kTlsMeanLifetimeHours = 18.0;
/** Excess drive error at zero detuning for a mean-strength TLS. */
constexpr double kTlsStrength = 2e-2;
/** TLS Lorentzian linewidth (GHz). */
constexpr double kTlsLinewidthGHz = 0.03;
/** Probability a TLS is strong enough to mask a band slice. */
constexpr double kMaskProbability = 0.25;
/** Half-width of the masked slice around the TLS frequency (GHz). */
constexpr double kMaskHalfWidthGHz = 0.04;
/** Per-epoch sigma of each qubit's lognormal crosstalk random walk. */
constexpr double kCrosstalkDriftSigma = 0.03;
/** Walk clamp: per-qubit scale stays within [1/clamp, clamp]. */
constexpr double kCrosstalkScaleClamp = 4.0;

} // namespace

std::vector<TlsDefect>
DriftTrace::activeDefects(std::size_t epoch) const
{
    std::vector<TlsDefect> out;
    for (const TlsDefect &d : defects) {
        if (d.activeAt(epoch))
            out.push_back(d);
    }
    return out;
}

std::vector<std::pair<double, double>>
DriftTrace::maskedBands(std::size_t epoch) const
{
    std::vector<std::pair<double, double>> out;
    const double w = kMaskHalfWidthGHz;
    for (const TlsDefect &d : defects) {
        if (d.activeAt(epoch) && d.masksBand) {
            out.emplace_back(std::max(kXyBandLoGHz, d.frequencyGHz - w),
                             std::min(kXyBandHiGHz, d.frequencyGHz + w));
        }
    }
    return out;
}

DriftTrace
simulateDrift(std::size_t qubit_count, const DriftConfig &config)
{
    requireConfig(config.epochs >= 1, "drift: epochs must be >= 1");
    const metrics::ScopedTimer timer("drift.simulate");

    DriftTrace trace;
    trace.config = config;
    trace.qubitCount = qubit_count;
    trace.qubitScale.assign(config.epochs * qubit_count, 1.0);

    const double births_per_epoch =
        kTlsBirthsPerQubitPerDay * kDriftHoursPerEpoch / 24.0;
    const double mean_lifetime_epochs =
        std::max(1.0, kTlsMeanLifetimeHours / kDriftHoursPerEpoch);

    // One independent stream per qubit: the trace is a pure function of
    // (seed, qubit index, epoch), never of iteration order.
    for (std::size_t q = 0; q < qubit_count; ++q) {
        Prng prng(taskSeed(config.seed, q));
        double scale = 1.0;
        for (std::size_t e = 0; e < config.epochs; ++e) {
            // Lognormal random walk of this qubit's crosstalk amplitude.
            scale *= std::exp(prng.gaussian() * kCrosstalkDriftSigma);
            scale = std::clamp(scale, 1.0 / kCrosstalkScaleClamp,
                               kCrosstalkScaleClamp);
            trace.qubitScale[e * qubit_count + q] = scale;

            // TLS births: Bernoulli per epoch at the configured rate.
            if (!prng.bernoulli(std::min(1.0, births_per_epoch)))
                continue;
            TlsDefect d;
            d.qubit = q;
            d.frequencyGHz = prng.uniform(kXyBandLoGHz, kXyBandHiGHz);
            d.strength = kTlsStrength * (0.5 + prng.uniform());
            d.linewidthGHz = kTlsLinewidthGHz;
            d.bornEpoch = e;
            const double life = -std::log(1.0 - prng.uniform()) *
                                mean_lifetime_epochs;
            d.diesEpoch =
                e + std::max<std::size_t>(
                        1, static_cast<std::size_t>(std::lround(life)));
            d.masksBand = prng.bernoulli(kMaskProbability);
            trace.defects.push_back(d);
        }
    }
    return trace;
}

SymmetricMatrix
driftedCrosstalk(const SymmetricMatrix &base, const DriftTrace &trace,
                 std::size_t epoch)
{
    requireConfig(epoch < trace.config.epochs,
                  "drift: epoch beyond the trace");
    requireConfig(base.size() <= trace.qubitCount,
                  "drift: trace does not cover the matrix");
    SymmetricMatrix out(base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        for (std::size_t j = i; j < base.size(); ++j) {
            out(i, j) = base(i, j) * std::sqrt(trace.scale(epoch, i) *
                                               trace.scale(epoch, j));
        }
    }
    return out;
}

std::string
driftTraceToJson(const DriftTrace &trace)
{
    std::ostringstream out;
    out << "{\n  \"schema\": \"youtiao-drift-1\",\n  \"seed\": "
        << trace.config.seed << ",\n  \"epochs\": " << trace.config.epochs
        << ",\n  \"hours_per_epoch\": "
        << json::formatDouble(kDriftHoursPerEpoch)
        << ",\n  \"qubit_count\": " << trace.qubitCount
        << ",\n  \"defects\": [";
    for (std::size_t i = 0; i < trace.defects.size(); ++i) {
        const TlsDefect &d = trace.defects[i];
        out << (i == 0 ? "\n" : ",\n") << "    {\"qubit\": " << d.qubit
            << ", \"frequency_ghz\": " << json::formatDouble(d.frequencyGHz)
            << ", \"strength\": " << json::formatDouble(d.strength)
            << ", \"linewidth_ghz\": " << json::formatDouble(d.linewidthGHz)
            << ", \"born_epoch\": " << d.bornEpoch
            << ", \"dies_epoch\": " << d.diesEpoch << ", \"masks_band\": "
            << (d.masksBand ? "true" : "false") << "}";
    }
    out << "\n  ]\n}\n";
    return out.str();
}

} // namespace youtiao
