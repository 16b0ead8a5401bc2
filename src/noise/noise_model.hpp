/**
 * @file
 * Physical error-rate model.
 *
 * Stands in for the paper's Qiskit/Qutip simulations: converts calibrated
 * device parameters (base gate errors, T1), spatial couplings (from the
 * crosstalk model) and spectral configuration (drive detunings, shared-line
 * filtering) into per-operation error probabilities. The fidelity
 * estimator multiplies these into circuit fidelities.
 *
 * Spectral selectivity follows a Lorentzian line shape: a drive detuned by
 * df from a spectator transition couples with weight 1 / (1 + (2 df/k)^2),
 * the first-order response of a two-level system with linewidth k.
 */

#ifndef YOUTIAO_NOISE_NOISE_MODEL_HPP
#define YOUTIAO_NOISE_NOISE_MODEL_HPP

#include <cstddef>

namespace youtiao {

/** Calibration constants; defaults match the paper's chips. */
struct NoiseModelConfig
{
    /** Calibrated isolated 1q-gate error (paper: fidelity 99.99%). */
    double oneQubitBaseError = 1e-4;
    /** Calibrated isolated 2q-gate error (paper: fidelity 99.73%). */
    double twoQubitBaseError = 2.7e-3;
    /** Single-shot readout error (paper baseline: 99.0%). */
    double readoutError = 1e-2;
    /** Effective drive linewidth for spectator excitation (GHz). */
    double driveLinewidthGHz = 0.05;
    /** Shared-FDM-line leakage amplitude before filtering. */
    double sharedLineLeakAmplitude = 5e-3;
    /** Bandpass-filter linewidth for in-line leakage (GHz). */
    double filterLinewidthGHz = 0.08;
};

/** Converts couplings, detunings and durations into error probabilities. */
class NoiseModel
{
  public:
    explicit NoiseModel(NoiseModelConfig config = {});

    const NoiseModelConfig &config() const { return config_; }

    /** Lorentzian spectral overlap of a drive detuned by @p df GHz. */
    double spectralOverlap(double detuning_ghz) const;

    /**
     * Error induced on a spectator with spatial coupling @p coupling
     * (from the crosstalk model; flip probability at zero detuning) when a
     * simultaneous drive sits @p detuning_ghz away.
     */
    double simultaneousDriveError(double coupling,
                                  double detuning_ghz) const;

    /**
     * In-line pulse-leakage error for two signals sharing one FDM line,
     * separated by @p detuning_ghz, after per-qubit bandpass filtering.
     */
    double sharedLineLeakage(double detuning_ghz) const;

    /** Amplitude-damping error of idling @p duration_ns with T1 @p t1_ns. */
    double idleError(double duration_ns, double t1_ns) const;

    /**
     * Coherent ZZ-dephasing error accumulated over @p duration_ns under a
     * residual shift of @p zz_mhz (small-angle phase-error approximation,
     * clamped to 0.5).
     */
    double zzDephasingError(double zz_mhz, double duration_ns) const;

    /** Combine independent error probabilities: 1 - prod(1 - e_i). */
    static double combine(double e1, double e2);

  private:
    NoiseModelConfig config_;
};

} // namespace youtiao

#endif // YOUTIAO_NOISE_NOISE_MODEL_HPP
