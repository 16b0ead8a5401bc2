/**
 * @file
 * Monte Carlo Pauli-error sampler (test oracle, serial).
 *
 * Samples discrete error events from the same per-operation error
 * probabilities the analytic fidelity estimator integrates (base gate
 * errors, crosstalk-induced spectator flips, shared-line leakage, ZZ
 * dephasing between simultaneous gates, idle decoherence) and reports the
 * fraction of error-free shots. By the product structure of independent
 * events, the shot success rate converges to the analytic fidelity --
 * giving the estimator an independent, sampling-based cross-check
 * (tests/test_noisy_sampler.cpp). No system binary runs the sampler.
 */

#ifndef YOUTIAO_TESTS_ORACLES_NOISY_SAMPLER_HPP
#define YOUTIAO_TESTS_ORACLES_NOISY_SAMPLER_HPP

#include "common/prng.hpp"
#include "sim/fidelity_estimator.hpp"

namespace youtiao {

/** Result of a sampling run. */
struct SamplingResult
{
    std::size_t shots = 0;
    std::size_t errorFreeShots = 0;
    /** Total error events drawn across all shots (diagnostic). */
    std::size_t totalErrorEvents = 0;

    double
    successRate() const
    {
        return shots == 0 ? 0.0
                          : static_cast<double>(errorFreeShots) /
                                static_cast<double>(shots);
    }
};

/**
 * Run @p shots noisy executions of @p qc under @p schedule and @p ctx.
 * Deterministic given @p prng, which advances by exactly one draw.
 */
SamplingResult sampleNoisyExecution(const QuantumCircuit &qc,
                                    const Schedule &schedule,
                                    const FidelityContext &ctx,
                                    std::size_t shots, Prng &prng);

} // namespace youtiao

#endif // YOUTIAO_TESTS_ORACLES_NOISY_SAMPLER_HPP
