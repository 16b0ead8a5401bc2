/**
 * @file
 * Output checks of the end-to-end benchmark, written against the plans
 * and the routing grid alone so they do not share code with the designer
 * or the router they judge.
 */

#ifndef YOUTIAO_PERFBENCH_CHECKS_HPP
#define YOUTIAO_PERFBENCH_CHECKS_HPP

#include <string>
#include <vector>

#include "chip/topology.hpp"
#include "core/youtiao.hpp"
#include "routing/chip_router.hpp"

namespace perfbench {

/** Human-readable descriptions of every failed check. */
using Problems = std::vector<std::string>;

/**
 * Design invariants: every qubit on exactly one XY line and one readout
 * feedline, every qubit and coupler Z-controlled once, no line above its
 * capacity, and the design's cost equal to recomputeCostUsd().
 */
void checkDesign(const youtiao::ChipTopology &chip,
                 const youtiao::YoutiaoDesign &design,
                 std::size_t xy_capacity, std::size_t readout_capacity,
                 Problems &problems);

/**
 * Wiring cost from the plan's line counts at the paper's unit prices:
 * $3,000 per coax, $3,640 per RF DAC channel, $200 per DEMUX select line.
 */
double recomputeCostUsd(std::size_t qubits,
                        const youtiao::YoutiaoDesign &design);

/**
 * Every terminal of every routed net (after any dedicated-line fallback)
 * reaches the net's perimeter interface through cells the net owns or
 * bridges over on the final routing grid.
 */
void checkNetsConnected(const std::vector<youtiao::NetSpec> &nets,
                        const youtiao::RoutedWiring &routed,
                        const std::string &where, Problems &problems);

} // namespace perfbench

#endif // YOUTIAO_PERFBENCH_CHECKS_HPP
