#include "sim/fidelity_estimator.hpp"

#include <cmath>

#include "common/error.hpp"

namespace youtiao {

namespace {

void
checkContext(const QuantumCircuit &qc, const FidelityContext &ctx)
{
    const std::size_t n = qc.qubitCount();
    requireConfig(ctx.xyCoupling.size() >= n &&
                      ctx.zzMHz.size() >= n &&
                      ctx.frequencyGHz.size() >= n &&
                      ctx.fdmLineOfQubit.size() >= n &&
                      ctx.t1Ns.size() >= n,
                  "fidelity context does not cover the circuit's qubits");
}

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

FidelityBreakdown
estimateFidelity(const QuantumCircuit &qc, const Schedule &schedule,
                 const FidelityContext &ctx)
{
    checkContext(qc, ctx);
    FidelityBreakdown out;
    const NoiseModelConfig &cfg = ctx.noise.config();

    std::vector<bool> used(qc.qubitCount(), false);
    std::vector<double> busy_ns(qc.qubitCount(), 0.0);

    for (const auto &layer : schedule.layers) {
        // Base gate errors (they already include decay during the gate).
        for (std::size_t gi : layer) {
            const Gate &g = qc.gates()[gi];
            out.baseComponent *= 1.0 - baseError(g, cfg);
            used[g.qubit0] = true;
            busy_ns[g.qubit0] += gateDurationNs(g, ctx.durations);
            if (isTwoQubit(g.kind)) {
                used[g.qubit1] = true;
                busy_ns[g.qubit1] += gateDurationNs(g, ctx.durations);
            }
        }

        // XY drive crosstalk: every microwave drive in the layer leaks
        // onto every other qubit, through space (coupling x Lorentzian)
        // and, for line-mates, through the shared cable.
        for (std::size_t gi : layer) {
            const Gate &g = qc.gates()[gi];
            if (!usesXyLine(g.kind))
                continue;
            const std::size_t drive = g.qubit0;
            const double f_drive = ctx.frequencyGHz[drive];
            for (std::size_t spect = 0; spect < qc.qubitCount(); ++spect) {
                if (spect == drive)
                    continue;
                const double detuning =
                    std::abs(f_drive - ctx.frequencyGHz[spect]);
                double err = ctx.noise.simultaneousDriveError(
                    ctx.xyCoupling(drive, spect), detuning);
                const std::size_t line = ctx.fdmLineOfQubit[drive];
                if (line != FidelityContext::kDedicated &&
                    ctx.fdmLineOfQubit[spect] == line) {
                    err = NoiseModel::combine(
                        err, ctx.noise.sharedLineLeakage(detuning));
                }
                out.crosstalkComponent *= 1.0 - err;
            }
            // TLS defects parked near the drive frequency add a
            // frequency-localized excess error on the driven qubit. The
            // loop only runs when the caller supplied defects, so
            // defect-free contexts stay bit-identical to the old model.
            for (const TlsNoiseSource &tls : ctx.tlsDefects) {
                if (tls.qubit != drive)
                    continue;
                const double df = 2.0 *
                                  (f_drive - tls.frequencyGHz) /
                                  tls.linewidthGHz;
                const double overlap = 1.0 / (1.0 + df * df);
                out.crosstalkComponent *= 1.0 - tls.strength * overlap;
            }
        }

        // ZZ dephasing between simultaneously executing two-qubit gates:
        // take the worst qubit pair across each gate pair.
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
                out.crosstalkComponent *= 1.0 - err;
            }
        }
    }

    // T1 decoherence while waiting: each participating qubit decays over
    // the schedule's wall clock minus its own gate time (decay during
    // gates is part of the calibrated base errors). This is exactly the
    // exposure that TDM serialization inflates (paper Figure 4, Case 3).
    const double duration = schedule.durationNs(qc, ctx.durations);
    for (std::size_t q = 0; q < qc.qubitCount(); ++q) {
        if (!used[q])
            continue;
        const double idle = std::max(0.0, duration - busy_ns[q]);
        out.decoherenceComponent *=
            1.0 - ctx.noise.idleError(idle, ctx.t1Ns[q]);
    }

    out.fidelity = out.baseComponent * out.crosstalkComponent *
                   out.decoherenceComponent;
    return out;
}

FidelityBreakdown
estimateFidelity(const QuantumCircuit &qc, const FidelityContext &ctx)
{
    return estimateFidelity(qc, scheduleCircuit(qc), ctx);
}

} // namespace youtiao
