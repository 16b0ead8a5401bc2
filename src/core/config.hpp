/**
 * @file
 * Top-level configuration aggregating every subsystem's knobs.
 */

#ifndef YOUTIAO_CORE_CONFIG_HPP
#define YOUTIAO_CORE_CONFIG_HPP

#include <cstdint>

#include "cost/cost_model.hpp"
#include "multiplex/fdm.hpp"
#include "multiplex/frequency_allocation.hpp"
#include "multiplex/tdm.hpp"
#include "noise/crosstalk_model.hpp"
#include "noise/noise_model.hpp"
#include "partition/generative_partition.hpp"

namespace youtiao {

/** End-to-end designer configuration (paper defaults). */
struct YoutiaoConfig
{
    /** Crosstalk-model fitting (Section 4.1). */
    CrosstalkFitConfig fit;
    /** FDM XY grouping (Section 4.2); capacity 5 as in Tables 1-2. */
    FdmGroupingConfig fdm;
    /** Two-level frequency allocation (Section 4.2). */
    FrequencyAllocationConfig frequency;
    /** TDM Z grouping (Section 4.3). */
    TdmGroupingConfig tdm;
    /** Generative chip partition (Section 4.4). */
    PartitionConfig partition;
    /** Error-rate physics. */
    NoiseModelConfig noise;
    /** Readout feedline capacity. */
    CostModelConfig cost;
    /** Master seed for all stochastic stages. */
    std::uint64_t seed = 0x59544AF0;
};

} // namespace youtiao

#endif // YOUTIAO_CORE_CONFIG_HPP
