/**
 * @file
 * Pulse-level two-level-system simulation (the Qutip substitute).
 *
 * The paper verifies its FDM fidelity results "through Qutip-based pulse
 * simulations ... incorporating realistic parameters". This module plays
 * that role: it integrates the time-dependent Schroedinger equation of a
 * driven two-level system in the rotating frame,
 *
 *     H(t) = (Omega(t)/2) sigma_x - (Delta/2) sigma_z,
 *
 * with a Gaussian drive envelope calibrated to a pi rotation on
 * resonance, and reports the excitation a spectator detuned by Delta
 * picks up. The NoiseModel's Lorentzian spectral-overlap approximation is
 * validated against this integration (see tests and the Fig 13 ablation).
 */

#ifndef YOUTIAO_SIM_PULSE_HPP
#define YOUTIAO_SIM_PULSE_HPP

#include <cstddef>
#include <vector>

namespace youtiao {

/** Gaussian pi-pulse parameters. */
struct PulseConfig
{
    /** Total pulse window (ns); the paper's 1q gates are ~25 ns. */
    double durationNs = 25.0;
    /** Gaussian sigma as a fraction of the window. */
    double sigmaFraction = 0.25;
    /** RK4 integration steps across the window. */
    std::size_t steps = 2000;
    /** Target rotation angle on resonance (radians). */
    double angle = 3.14159265358979323846;
};

/**
 * Excitation probability of a two-level system detuned @p detuning_ghz
 * from the drive, after one calibrated pulse, starting from |0>.
 * On resonance this returns sin^2(angle/2) (1.0 for a pi pulse).
 */
double spectatorExcitation(double detuning_ghz,
                           const PulseConfig &config = {});

/**
 * Detuning (GHz) at which the excitation falls to half its on-resonance
 * value — the effective drive linewidth the Lorentzian model abstracts.
 * Found by bisection over [0, 1] GHz.
 */
double effectiveLinewidthGHz(const PulseConfig &config = {});

} // namespace youtiao

#endif // YOUTIAO_SIM_PULSE_HPP
