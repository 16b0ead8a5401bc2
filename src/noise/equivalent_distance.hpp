/**
 * @file
 * Equivalent-distance matrices (paper Section 4.1).
 *
 * YOUTIAO characterizes crosstalk through a joint metric combining the
 * physical (Euclidean) distance between qubits and a multi-path
 * topological distance d_top = n * l over the coupling graph:
 *
 *     d_equiv(i, j) = w_phy * d_phy(i, j) + w_top * d_top(i, j)
 */

#ifndef YOUTIAO_NOISE_EQUIVALENT_DISTANCE_HPP
#define YOUTIAO_NOISE_EQUIVALENT_DISTANCE_HPP

#include "chip/topology.hpp"
#include "common/matrix.hpp"

namespace youtiao {

/** Pairwise Euclidean distances between qubits (mm). */
SymmetricMatrix qubitPhysicalDistanceMatrix(const ChipTopology &chip);

/**
 * Pairwise multi-path topological distances over the qubit graph
 * (d_top = n * l). Disconnected pairs receive a large finite penalty
 * (2x the maximum finite distance) so downstream weighting stays usable.
 */
SymmetricMatrix qubitTopologicalDistanceMatrix(const ChipTopology &chip);

/**
 * Combine physical and topological matrices into the equivalent distance
 * with the given weights. Sizes must match.
 */
SymmetricMatrix equivalentDistanceMatrix(const SymmetricMatrix &physical,
                                         const SymmetricMatrix &topological,
                                         double w_phy, double w_top);

} // namespace youtiao

#endif // YOUTIAO_NOISE_EQUIVALENT_DISTANCE_HPP
