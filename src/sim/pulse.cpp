#include "sim/pulse.hpp"

#include <cmath>
#include <complex>
#include <numbers>

#include "common/error.hpp"

namespace youtiao {

namespace {

using Cplx = std::complex<double>;

/** State (c0, c1) of the two-level system. */
struct Amplitudes
{
    Cplx c0;
    Cplx c1;
};

/**
 * Gaussian envelope with the DC offset subtracted so it starts and ends
 * at zero, normalized so that its integral equals the target angle.
 */
class GaussianEnvelope
{
  public:
    explicit GaussianEnvelope(const PulseConfig &config)
        : duration_(config.durationNs),
          sigma_(config.sigmaFraction * config.durationNs)
    {
        requireConfig(config.durationNs > 0.0 &&
                          config.sigmaFraction > 0.0,
                      "pulse duration and sigma must be positive");
        // Integrate the raw offset-subtracted Gaussian to calibrate the
        // amplitude for the requested rotation angle.
        const std::size_t n = 4096;
        double integral = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double t =
                (static_cast<double>(i) + 0.5) * duration_ /
                static_cast<double>(n);
            integral += raw(t) * duration_ / static_cast<double>(n);
        }
        requireInternal(integral > 0.0, "degenerate pulse envelope");
        amplitude_ = config.angle / integral;
    }

    /** Rabi rate Omega(t) in rad/ns. */
    double
    omega(double t) const
    {
        if (t < 0.0 || t > duration_)
            return 0.0;
        return amplitude_ * raw(t);
    }

  private:
    double
    raw(double t) const
    {
        const double mid = 0.5 * duration_;
        const double g =
            std::exp(-0.5 * (t - mid) * (t - mid) / (sigma_ * sigma_));
        const double edge =
            std::exp(-0.5 * mid * mid / (sigma_ * sigma_));
        return std::max(0.0, g - edge);
    }

    double duration_;
    double sigma_;
    double amplitude_ = 1.0;
};

/** dpsi/dt = -i H psi with H = Omega/2 sx - Delta/2 sz. */
Amplitudes
derivative(const Amplitudes &psi, double omega, double delta_rad)
{
    const Cplx i(0.0, 1.0);
    // H psi:
    const Cplx h0 = -0.5 * delta_rad * psi.c0 + 0.5 * omega * psi.c1;
    const Cplx h1 = 0.5 * omega * psi.c0 + 0.5 * delta_rad * psi.c1;
    return Amplitudes{-i * h0, -i * h1};
}

} // namespace

double
spectatorExcitation(double detuning_ghz, const PulseConfig &config)
{
    requireConfig(config.steps >= 16, "too few integration steps");
    const GaussianEnvelope envelope(config);
    // Detuning enters the rotating-frame Hamiltonian as an angular rate.
    const double delta_rad =
        2.0 * std::numbers::pi * detuning_ghz; // rad/ns for GHz input

    Amplitudes psi{Cplx(1.0, 0.0), Cplx(0.0, 0.0)};
    const double h =
        config.durationNs / static_cast<double>(config.steps);
    double t = 0.0;
    for (std::size_t s = 0; s < config.steps; ++s) {
        // Classic RK4 with the envelope sampled mid-step.
        const double w1 = envelope.omega(t);
        const double w2 = envelope.omega(t + 0.5 * h);
        const double w4 = envelope.omega(t + h);
        const Amplitudes k1 = derivative(psi, w1, delta_rad);
        const Amplitudes p2{psi.c0 + 0.5 * h * k1.c0,
                            psi.c1 + 0.5 * h * k1.c1};
        const Amplitudes k2 = derivative(p2, w2, delta_rad);
        const Amplitudes p3{psi.c0 + 0.5 * h * k2.c0,
                            psi.c1 + 0.5 * h * k2.c1};
        const Amplitudes k3 = derivative(p3, w2, delta_rad);
        const Amplitudes p4{psi.c0 + h * k3.c0, psi.c1 + h * k3.c1};
        const Amplitudes k4 = derivative(p4, w4, delta_rad);
        psi.c0 += h / 6.0 * (k1.c0 + 2.0 * k2.c0 + 2.0 * k3.c0 + k4.c0);
        psi.c1 += h / 6.0 * (k1.c1 + 2.0 * k2.c1 + 2.0 * k3.c1 + k4.c1);
        t += h;
    }
    return std::norm(psi.c1);
}

double
effectiveLinewidthGHz(const PulseConfig &config)
{
    const double peak = spectatorExcitation(0.0, config);
    requireInternal(peak > 0.0, "calibrated pulse excites nothing");
    double lo = 0.0, hi = 1.0;
    for (int iter = 0; iter < 48; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (spectatorExcitation(mid, config) > 0.5 * peak)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

} // namespace youtiao
