#include "oracles/noisy_sampler.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace youtiao {

namespace {

/** Shots per batch; batch b draws from its own stream seeded with
 *  taskSeed(root, b). */
constexpr std::size_t kShotBatch = 512;

double
baseError(const Gate &g, const NoiseModelConfig &cfg)
{
    switch (g.kind) {
      case GateKind::Measure:
        return cfg.readoutError;
      case GateKind::RZ:
      case GateKind::Barrier:
        return 0.0;
      default:
        return isTwoQubit(g.kind) ? cfg.twoQubitBaseError
                                  : cfg.oneQubitBaseError;
    }
}

} // namespace

SamplingResult
sampleNoisyExecution(const QuantumCircuit &qc, const Schedule &schedule,
                     const FidelityContext &ctx, std::size_t shots,
                     Prng &prng)
{
    requireConfig(shots >= 1, "need at least one shot");

    // Flatten every independent error channel into one probability list;
    // each shot then draws Bernoulli events against it.
    std::vector<double> channels;
    const NoiseModelConfig &cfg = ctx.noise.config();
    std::vector<bool> used(qc.qubitCount(), false);
    std::vector<double> busy_ns(qc.qubitCount(), 0.0);

    for (const auto &layer : schedule.layers) {
        for (std::size_t gi : layer) {
            const Gate &g = qc.gates()[gi];
            const double e = baseError(g, cfg);
            if (e > 0.0)
                channels.push_back(e);
            used[g.qubit0] = true;
            busy_ns[g.qubit0] += gateDurationNs(g, ctx.durations);
            if (isTwoQubit(g.kind)) {
                used[g.qubit1] = true;
                busy_ns[g.qubit1] += gateDurationNs(g, ctx.durations);
            }
        }
        for (std::size_t gi : layer) {
            const Gate &g = qc.gates()[gi];
            if (!usesXyLine(g.kind))
                continue;
            const std::size_t drive = g.qubit0;
            for (std::size_t spect = 0; spect < qc.qubitCount();
                 ++spect) {
                if (spect == drive)
                    continue;
                const double detuning = std::abs(
                    ctx.frequencyGHz[drive] - ctx.frequencyGHz[spect]);
                double err = ctx.noise.simultaneousDriveError(
                    ctx.xyCoupling(drive, spect), detuning);
                const std::size_t line = ctx.fdmLineOfQubit[drive];
                if (line != FidelityContext::kDedicated &&
                    ctx.fdmLineOfQubit[spect] == line) {
                    err = NoiseModel::combine(
                        err, ctx.noise.sharedLineLeakage(detuning));
                }
                if (err > 0.0)
                    channels.push_back(err);
            }
        }
        for (std::size_t a = 0; a < layer.size(); ++a) {
            const Gate &ga = qc.gates()[layer[a]];
            if (!isTwoQubit(ga.kind))
                continue;
            for (std::size_t b = a + 1; b < layer.size(); ++b) {
                const Gate &gb = qc.gates()[layer[b]];
                if (!isTwoQubit(gb.kind))
                    continue;
                double worst_zz = 0.0;
                for (std::size_t qa : {ga.qubit0, ga.qubit1}) {
                    for (std::size_t qb : {gb.qubit0, gb.qubit1}) {
                        if (qa != qb)
                            worst_zz = std::max(worst_zz,
                                                ctx.zzMHz(qa, qb));
                    }
                }
                const double err = ctx.noise.zzDephasingError(
                    worst_zz, ctx.durations.twoQubitNs);
                if (err > 0.0)
                    channels.push_back(err);
            }
        }
    }
    const double duration = schedule.durationNs(qc, ctx.durations);
    for (std::size_t q = 0; q < qc.qubitCount(); ++q) {
        if (!used[q])
            continue;
        const double idle = std::max(0.0, duration - busy_ns[q]);
        const double e = ctx.noise.idleError(idle, ctx.t1Ns[q]);
        if (e > 0.0)
            channels.push_back(e);
    }

    SamplingResult result;
    result.shots = shots;

    // One draw advances the caller's generator deterministically; all
    // shot randomness comes from per-batch child streams derived from it.
    const std::uint64_t root = prng.next();
    for (std::size_t lo = 0; lo < shots; lo += kShotBatch) {
        Prng local(taskSeed(root, lo / kShotBatch));
        for (std::size_t shot = lo; shot < std::min(shots, lo + kShotBatch);
             ++shot) {
            std::size_t events = 0;
            for (double p : channels) {
                if (local.bernoulli(p))
                    ++events;
            }
            result.totalErrorEvents += events;
            if (events == 0)
                ++result.errorFreeShots;
        }
    }
    return result;
}

} // namespace youtiao
