#include "core/baselines.hpp"

#include "common/error.hpp"

namespace youtiao {

namespace {

std::vector<double>
fabricationFrequencies(const ChipTopology &chip)
{
    std::vector<double> f;
    f.reserve(chip.qubitCount());
    for (std::size_t q = 0; q < chip.qubitCount(); ++q)
        f.push_back(chip.qubit(q).baseFrequencyGHz);
    return f;
}

FdmPlan
readoutGroups(const ChipTopology &chip, const YoutiaoConfig &config)
{
    return groupFdmLocalCluster(chip, config.cost.readoutFeedCapacity);
}

void
finishCounts(const ChipTopology &chip, BaselineDesign &design,
             const YoutiaoConfig &config)
{
    design.counts = multiplexedWiringCounts(chip.qubitCount(),
                                            design.xyPlan, design.zPlan,
                                            config.cost);
    design.costUsd = wiringCostUsd(design.counts);
}

} // namespace

BaselineDesign
designGoogleWiring(const ChipTopology &chip, const YoutiaoConfig &config,
                   const SymmetricMatrix *measured_xy)
{
    BaselineDesign design;
    design.xyPlan = groupFdmLocalCluster(chip, 1); // dedicated XY lines
    if (measured_xy != nullptr) {
        // Dedicated lines leave full spectral freedom: model Google's
        // frequency-aware calibration by running the allocator with a
        // single zone (capacity-1 plan) over the measured crosstalk.
        design.frequencyPlan = allocateFrequencies(
            design.xyPlan, *measured_xy, NoiseModel(config.noise),
            config.frequency);
    } else {
        design.frequencyPlan = allocateFrequenciesFabrication(
            design.xyPlan, fabricationFrequencies(chip));
    }
    design.zPlan = dedicatedZPlan(chip);
    design.readoutPlan = readoutGroups(chip, config);
    finishCounts(chip, design, config);
    return design;
}

BaselineDesign
designGeorgeFdm(const ChipTopology &chip, const YoutiaoConfig &config)
{
    BaselineDesign design;
    design.xyPlan = groupFdmLocalCluster(chip, config.fdm.lineCapacity);
    design.frequencyPlan = allocateFrequenciesInLineOnly(design.xyPlan);
    design.zPlan = dedicatedZPlan(chip);
    design.readoutPlan = readoutGroups(chip, config);
    finishCounts(chip, design, config);
    return design;
}

BaselineDesign
designUnoptimizedFdm(const ChipTopology &chip, const YoutiaoConfig &config)
{
    BaselineDesign design;
    design.xyPlan = groupFdmLocalCluster(chip, config.fdm.lineCapacity);
    design.frequencyPlan = allocateFrequenciesFabrication(
        design.xyPlan, fabricationFrequencies(chip));
    design.zPlan = dedicatedZPlan(chip);
    design.readoutPlan = readoutGroups(chip, config);
    finishCounts(chip, design, config);
    return design;
}

BaselineDesign
designAcharyaTdm(const ChipTopology &chip, const YoutiaoConfig &config,
                 const SymmetricMatrix *measured_xy)
{
    BaselineDesign design;
    design.xyPlan = groupFdmLocalCluster(chip, 1); // dedicated XY lines
    if (measured_xy != nullptr) {
        design.frequencyPlan = allocateFrequencies(
            design.xyPlan, *measured_xy, NoiseModel(config.noise),
            config.frequency);
    } else {
        design.frequencyPlan = allocateFrequenciesFabrication(
            design.xyPlan, fabricationFrequencies(chip));
    }
    design.zPlan = groupTdmLocalCluster(chip, kLowParallelismFanout);
    design.readoutPlan = readoutGroups(chip, config);
    finishCounts(chip, design, config);
    return design;
}

FidelityContext
makeBaselineFidelityContext(const ChipTopology &chip,
                            const BaselineDesign &design,
                            const SymmetricMatrix &xy,
                            const SymmetricMatrix &zz,
                            const YoutiaoConfig &config)
{
    requireConfig(xy.size() == chip.qubitCount() &&
                      zz.size() == chip.qubitCount(),
                  "crosstalk matrices must cover the chip");
    FidelityContext ctx;
    ctx.noise = NoiseModel(config.noise);
    ctx.xyCoupling = xy;
    ctx.zzMHz = zz;
    ctx.frequencyGHz = design.frequencyPlan.frequencyGHz;
    // Dedicated XY lines (capacity-1 plans) disable shared-line leakage.
    if (design.xyPlan.maxGroupSize() <= 1) {
        ctx.fdmLineOfQubit.assign(chip.qubitCount(),
                                  FidelityContext::kDedicated);
    } else {
        ctx.fdmLineOfQubit = design.xyPlan.lineOfQubit;
    }
    ctx.t1Ns.reserve(chip.qubitCount());
    for (std::size_t q = 0; q < chip.qubitCount(); ++q)
        ctx.t1Ns.push_back(chip.qubit(q).t1Ns);
    return ctx;
}

} // namespace youtiao
