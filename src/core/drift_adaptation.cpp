#include "core/drift_adaptation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numbers>
#include <sstream>
#include <unordered_map>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/prng.hpp"

namespace youtiao {

namespace {

/** Hops averaged per epoch when hopping. */
constexpr std::size_t kHopsPerEpoch = 8;
/** A member within this of an active TLS dirties its group (GHz). */
constexpr double kTlsProximityGHz = 0.1;
/** A qubit whose crosstalk scale moved by more than this factor since
 *  its last retune dirties its group. */
constexpr double kScaleDirtyRatio = 1.25;
/** Random 1q-gate layers in the per-epoch evaluation circuit. */
constexpr std::size_t kFidelityLayers = 12;
/** Seed of the evaluation circuits (shared across policies). */
constexpr std::uint64_t kCircuitSeed = 0xC17C;

/** Excess drive error qubit @p q would pick up at @p f_ghz from the
 *  epoch's active TLS population. */
double
tlsPenalty(std::size_t q, double f_ghz,
           const std::vector<TlsDefect> &active)
{
    double penalty = 0.0;
    for (const TlsDefect &d : active) {
        if (d.qubit != q)
            continue;
        const double df =
            2.0 * (f_ghz - d.frequencyGHz) / d.linewidthGHz;
        penalty += d.strength / (1.0 + df * df);
    }
    return penalty;
}

/** In-line pulse leakage of qubit @p q at @p f_ghz towards its mates
 *  (IncrementalAllocationCost tracks only the spatial term). */
double
lineLeakage(std::size_t q, double f_ghz,
            const std::vector<double> &frequency_ghz,
            const CrosstalkNeighborhood &neighborhood,
            const NoiseModel &noise)
{
    double leak = 0.0;
    const auto ids = neighborhood.neighborIds(q);
    const auto mate = neighborhood.neighborSameLine(q);
    for (std::size_t k = 0; k < ids.size(); ++k) {
        if (mate[k] != 0.0)
            leak += noise.sharedLineLeakage(
                std::abs(f_ghz - frequency_ghz[ids[k]]));
    }
    return leak;
}

/** The shared evaluation circuit of one epoch: seeded random 1q-gate
 *  layers over the whole chip, identical for every policy. */
QuantumCircuit
epochCircuit(std::size_t qubit_count, std::size_t layers,
             std::uint64_t circuit_seed, std::size_t epoch)
{
    Prng prng(taskSeed(circuit_seed, epoch));
    QuantumCircuit qc(qubit_count);
    for (std::size_t l = 0; l < layers; ++l) {
        for (std::size_t q = 0; q < qubit_count; ++q) {
            const double angle =
                prng.uniform(-std::numbers::pi, std::numbers::pi);
            if (prng.bernoulli(0.5))
                qc.rx(q, angle);
            else
                qc.ry(q, angle);
        }
        qc.barrier();
    }
    return qc;
}

std::size_t
maskViolations(const std::vector<double> &frequency_ghz,
               const std::vector<std::pair<double, double>> &masks)
{
    std::size_t hits = 0;
    for (double f : frequency_ghz)
        hits += isMaskedGHz(f, masks) ? 1 : 0;
    return hits;
}

/** Fold one full-redesign's concessions into the running report. */
void
mergeDegradation(DegradationReport &into, const DegradationReport &from,
                 std::size_t epoch)
{
    into.allocationAttempts += from.allocationAttempts;
    if (from.fdmCapacityUsed != 0)
        into.fdmCapacityUsed = from.fdmCapacityUsed;
    into.demuxFallbackDevices += from.demuxFallbackDevices;
    into.dedicatedNetFallbacks += from.dedicatedNetFallbacks;
    into.costDeltaUsd += from.costDeltaUsd;
    for (const std::string &note : from.notes)
        into.notes.push_back("epoch " + std::to_string(epoch) + ": " +
                             note);
}

} // namespace

const char *
driftPolicyName(DriftPolicy policy)
{
    switch (policy) {
      case DriftPolicy::Static:
        return "static";
      case DriftPolicy::Hopping:
        return "hopping";
      case DriftPolicy::Reallocate:
        return "reallocate";
    }
    return "?";
}

double
DriftAdaptationResult::endFidelity() const
{
    return epochs.empty() ? 0.0 : epochs.back().fidelity;
}

double
DriftAdaptationResult::meanFidelity() const
{
    if (epochs.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &e : epochs)
        sum += e.fidelity;
    return sum / static_cast<double>(epochs.size());
}

std::size_t
DriftAdaptationResult::totalViolations() const
{
    std::size_t n = 0;
    for (const auto &e : epochs)
        n += e.spectrumViolations;
    return n;
}

std::size_t
DriftAdaptationResult::totalRetunes() const
{
    std::size_t n = 0;
    for (const auto &e : epochs)
        n += e.retunedQubits;
    return n;
}

std::size_t
DriftAdaptationResult::fullRedesigns() const
{
    std::size_t n = 0;
    for (const auto &e : epochs)
        n += e.fullRedesign ? 1 : 0;
    return n;
}

DriftAdapter::DriftAdapter(YoutiaoConfig config,
                           DriftAdaptationConfig adapt)
    : config_(std::move(config)), adapt_(adapt)
{}

DriftAdaptationResult
DriftAdapter::run(const ChipTopology &chip, const YoutiaoDesign &design,
                  const ChipCharacterization &data,
                  const DriftTrace &trace) const
{
    const std::size_t n = chip.qubitCount();
    requireConfig(trace.qubitCount >= n,
                  "drift adaptation: trace does not cover the chip");
    requireConfig(design.frequencyPlan.frequencyGHz.size() == n,
                  "drift adaptation: design does not cover the chip");
    const metrics::ScopedTimer timer("drift.adapt");

    DriftAdaptationResult out;
    out.policy = adapt_.policy;
    out.epochs.reserve(trace.config.epochs);

    // Mutable wiring state; Reallocate (and its full-redesign fallback)
    // are the only policies that ever change it.
    FdmPlan plan = design.xyPlan;
    FrequencyPlan freq = design.frequencyPlan;
    ChipCharacterization drifted = data;
    // Scale each qubit's crosstalk carried at its last retune; a walk
    // beyond kScaleDirtyRatio from here dirties the group.
    std::vector<double> retune_scale(n, 1.0);

    HopPlan hop_plan;
    if (adapt_.policy == DriftPolicy::Hopping)
        hop_plan = buildHopPlan(plan, freq, adapt_.hop);

    std::vector<double> t1_ns;
    t1_ns.reserve(n);
    for (std::size_t q = 0; q < n; ++q)
        t1_ns.push_back(chip.qubit(q).t1Ns);

    const NoiseModel noise(config_.noise);

    for (std::size_t epoch = 0; epoch < trace.config.epochs; ++epoch) {
        cancel::poll("drift.epoch");
        DriftEpochResult row;
        row.epoch = epoch;

        drifted.xyCrosstalk =
            driftedCrosstalk(data.xyCrosstalk, trace, epoch);
        const std::vector<TlsDefect> active = trace.activeDefects(epoch);
        std::vector<std::pair<double, double>> masks =
            config_.frequency.maskedBandsGHz;
        for (const auto &band : trace.maskedBands(epoch))
            masks.push_back(band);

        if (adapt_.policy == DriftPolicy::Reallocate) {
            const std::vector<double> before = freq.frequencyGHz;
            // Two passes at most: an incremental repair against the
            // current plan, and -- only when some zone has no usable
            // cell left -- one more against the full-redesign result,
            // which may itself carry reuse collisions to sweep.
            for (int pass = 0; pass < 2; ++pass) {
                const XyLattice lattice(freq.zoneCount);
                const CrosstalkNeighborhood neighborhood(
                    drifted.xyCrosstalk, plan.lineOfQubit);
                IncrementalAllocationCost running(neighborhood, noise);
                std::unordered_map<double, std::size_t> occupancy;
                for (std::size_t q = 0; q < n; ++q) {
                    running.place(q, freq.frequencyGHz[q]);
                    ++occupancy[freq.frequencyGHz[q]];
                }

                // Mark dirty groups: a member sitting in a masked
                // slice, exactly colliding with another qubit (the
                // static allocator reuses frequencies under crowding),
                // near an active TLS on its own qubit, or whose
                // crosstalk scale walked away since its last retune.
                std::vector<bool> dirty(plan.lines.size(), false);
                for (std::size_t line = 0; line < plan.lines.size();
                     ++line) {
                    for (std::size_t q : plan.lines[line]) {
                        const double f = freq.frequencyGHz[q];
                        bool near_tls = false;
                        for (const TlsDefect &d : active) {
                            if (d.qubit == q &&
                                std::abs(f - d.frequencyGHz) <=
                                    kTlsProximityGHz) {
                                near_tls = true;
                                break;
                            }
                        }
                        const double ratio =
                            trace.scale(epoch, q) / retune_scale[q];
                        if (near_tls || isMaskedGHz(f, masks) ||
                            occupancy.at(f) > 1 ||
                            ratio > kScaleDirtyRatio ||
                            ratio < 1.0 / kScaleDirtyRatio) {
                            dirty[line] = true;
                            break;
                        }
                    }
                }

                // Re-pick each dirty member's cell inside its zone with
                // the O(deg) incremental objective plus the epoch's TLS
                // and in-line leakage penalties. Masked and occupied
                // cells are skipped, so the repaired allocation is
                // DRC-clean by construction; zones keep the members
                // spectrally separated exactly as the static allocator
                // laid them out.
                bool infeasible = false;
                for (std::size_t line = 0;
                     line < plan.lines.size() && !infeasible; ++line) {
                    if (!dirty[line])
                        continue;
                    ++row.dirtyGroups;
                    for (std::size_t q : plan.lines[line]) {
                        const std::size_t zone = freq.zoneOfQubit[q];
                        const double old_f = freq.frequencyGHz[q];
                        if (--occupancy.at(old_f) == 0)
                            occupancy.erase(old_f);
                        double best_cost =
                            std::numeric_limits<double>::infinity();
                        std::size_t best_cell = 0;
                        bool have_cell = false;
                        for (std::size_t cell = 0;
                             cell < lattice.cellsPerZone; ++cell) {
                            const double f = lattice.centreGHz(zone, cell);
                            if (isMaskedGHz(f, masks) ||
                                occupancy.count(f) != 0)
                                continue;
                            running.move(q, f);
                            const double cost =
                                running.total() +
                                tlsPenalty(q, f, active) +
                                lineLeakage(q, f, freq.frequencyGHz,
                                            neighborhood, noise);
                            if (cost < best_cost) {
                                best_cost = cost;
                                best_cell = cell;
                                have_cell = true;
                            }
                        }
                        if (!have_cell) {
                            infeasible = true;
                            running.move(q, old_f);
                            ++occupancy[old_f];
                            break;
                        }
                        freq.cellOfQubit[q] = best_cell;
                        freq.frequencyGHz[q] =
                            lattice.centreGHz(zone, best_cell);
                        running.move(q, freq.frequencyGHz[q]);
                        ++occupancy[freq.frequencyGHz[q]];
                        retune_scale[q] = trace.scale(epoch, q);
                    }
                }
                row.allocationCost = running.total();
                if (!infeasible || pass == 1)
                    break;

                // A zone with no usable cell is beyond incremental
                // repair: rerun the full robust pipeline against the
                // drifted measurements with the epoch's masks, walking
                // the capacity/jitter retry ladder if it must, then
                // loop once more to sweep any reuse collisions the
                // fresh allocation brought along.
                row.fullRedesign = true;
                YoutiaoConfig fallback = config_;
                fallback.frequency.maskedBandsGHz = masks;
                const YoutiaoDesigner designer(fallback);
                auto redesign =
                    designer.designFromMeasurementsRobust(chip, drifted);
                if (!redesign.hasValue()) {
                    out.degradation.notes.push_back(
                        "epoch " + std::to_string(epoch) +
                        ": full redesign failed (" +
                        redesign.error().toString() +
                        "); keeping previous allocation");
                    break;
                }
                plan = redesign.value().xyPlan;
                freq = redesign.value().frequencyPlan;
                for (std::size_t q = 0; q < n; ++q)
                    retune_scale[q] = trace.scale(epoch, q);
                mergeDegradation(out.degradation,
                                 redesign.value().degradation, epoch);
                if (out.degradation.notes.empty() ||
                    redesign.value().degradation.empty()) {
                    out.degradation.notes.push_back(
                        "epoch " + std::to_string(epoch) +
                        ": full redesign under " +
                        std::to_string(masks.size()) + " masked bands");
                }
                row.allocationCost = freq.crosstalkCost;
            }
            for (std::size_t q = 0; q < n; ++q)
                row.retunedQubits += freq.frequencyGHz[q] != before[q];
        } else {
            row.allocationCost = allocationCrosstalkCost(
                freq.frequencyGHz, drifted.xyCrosstalk, noise);
        }

        // Shared physics for the epoch's evaluation circuit.
        FidelityContext ctx;
        ctx.noise = noise;
        ctx.xyCoupling = drifted.xyCrosstalk;
        ctx.zzMHz = data.zzCrosstalkMHz;
        ctx.fdmLineOfQubit = plan.lineOfQubit;
        ctx.t1Ns = t1_ns;
        for (const TlsDefect &d : active)
            ctx.tlsDefects.push_back(TlsNoiseSource{
                d.qubit, d.frequencyGHz, d.strength, d.linewidthGHz});
        const QuantumCircuit qc =
            epochCircuit(n, kFidelityLayers, kCircuitSeed, epoch);

        if (adapt_.policy == DriftPolicy::Hopping) {
            // Average the hop schedule's positions across the epoch;
            // each hop is independent, so fan out deterministically.
            std::vector<std::size_t> hops(kHopsPerEpoch);
            for (std::size_t j = 0; j < hops.size(); ++j)
                hops[j] = epoch * kHopsPerEpoch + j;
            const std::vector<std::pair<double, std::size_t>> samples =
                parallelMap(hops, [&](std::size_t hop) {
                    FidelityContext hop_ctx = ctx;
                    hop_ctx.frequencyGHz =
                        frequenciesAtHop(hop_plan, freq, hop);
                    const std::size_t violations =
                        countSpectrumCollisions(hop_ctx.frequencyGHz) +
                        maskViolations(hop_ctx.frequencyGHz, masks);
                    return std::make_pair(
                        estimateFidelity(qc, hop_ctx).fidelity,
                        violations);
                });
            double sum = 0.0;
            for (const auto &[fidelity, violations] : samples) {
                sum += fidelity;
                row.spectrumViolations =
                    std::max(row.spectrumViolations, violations);
            }
            row.fidelity = sum / static_cast<double>(samples.size());
        } else {
            ctx.frequencyGHz = freq.frequencyGHz;
            row.fidelity = estimateFidelity(qc, ctx).fidelity;
            row.spectrumViolations =
                countSpectrumCollisions(freq.frequencyGHz) +
                maskViolations(freq.frequencyGHz, masks);
        }

        out.epochs.push_back(row);
    }

    out.finalFrequencyGHz = freq.frequencyGHz;
    metrics::count("drift.epochs", out.epochs.size());
    metrics::count("drift.retunes", out.totalRetunes());
    return out;
}

std::string
driftAdaptationReport(const std::vector<DriftAdaptationResult> &results)
{
    std::ostringstream out;
    out << "-- drift adaptation --\n";
    char line[160];
    std::snprintf(line, sizeof line, "%-12s %10s %10s %8s %9s %10s\n",
                  "policy", "mean fid", "end fid", "retunes",
                  "redesigns", "violations");
    out << line;
    for (const auto &r : results) {
        std::snprintf(line, sizeof line,
                      "%-12s %9.2f%% %9.2f%% %8zu %9zu %10zu\n",
                      driftPolicyName(r.policy), 100.0 * r.meanFidelity(),
                      100.0 * r.endFidelity(), r.totalRetunes(),
                      r.fullRedesigns(), r.totalViolations());
        out << line;
    }
    for (const auto &r : results) {
        if (!r.degradation.empty())
            out << r.degradation.summary();
    }
    return out.str();
}

std::string
driftResultsToJson(const DriftTrace &trace,
                   const std::vector<DriftAdaptationResult> &results)
{
    std::ostringstream out;
    std::string trace_json = driftTraceToJson(trace);
    while (!trace_json.empty() && trace_json.back() == '\n')
        trace_json.pop_back();
    out << "{\n  \"schema\": \"youtiao-drift-adaptation-1\",\n"
        << "  \"trace\": " << trace_json << ",\n  \"policies\": [";
    char buf[128];
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        out << (i == 0 ? "\n" : ",\n") << "    {\"policy\": \""
            << driftPolicyName(r.policy) << "\", \"epochs\": [";
        for (std::size_t e = 0; e < r.epochs.size(); ++e) {
            const auto &row = r.epochs[e];
            std::snprintf(buf, sizeof buf,
                          "\"fidelity\": %.9f, \"allocation_cost\": %.9g",
                          row.fidelity, row.allocationCost);
            out << (e == 0 ? "\n" : ",\n") << "      {\"epoch\": "
                << row.epoch << ", " << buf
                << ", \"dirty_groups\": " << row.dirtyGroups
                << ", \"retuned_qubits\": " << row.retunedQubits
                << ", \"spectrum_violations\": " << row.spectrumViolations
                << ", \"full_redesign\": "
                << (row.fullRedesign ? "true" : "false") << "}";
        }
        out << "\n    ]}";
    }
    out << "\n  ]\n}\n";
    return out.str();
}

} // namespace youtiao
