#include "partition/generative_partition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

#include "common/error.hpp"

namespace youtiao {

namespace {

constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);
/** Maximum border-swap rounds before declaring convergence. */
constexpr std::size_t kMaxSwapRounds = 16;

/** Is the region still connected (in the coupling map) without @p drop? */
bool
regionConnectedWithout(const ChipTopology &chip,
                       const std::vector<std::size_t> &region,
                       std::size_t drop)
{
    std::vector<std::size_t> rest;
    rest.reserve(region.size());
    for (std::size_t q : region) {
        if (q != drop)
            rest.push_back(q);
    }
    if (rest.size() <= 1)
        return !rest.empty();
    std::vector<bool> inside(chip.qubitCount(), false);
    for (std::size_t q : rest)
        inside[q] = true;
    std::vector<bool> seen(chip.qubitCount(), false);
    std::queue<std::size_t> frontier;
    frontier.push(rest[0]);
    seen[rest[0]] = true;
    std::size_t reached = 1;
    while (!frontier.empty()) {
        const std::size_t v = frontier.front();
        frontier.pop();
        for (const Incidence &inc : chip.qubitGraph().incidences(v)) {
            if (inside[inc.vertex] && !seen[inc.vertex]) {
                seen[inc.vertex] = true;
                ++reached;
                frontier.push(inc.vertex);
            }
        }
    }
    return reached == rest.size();
}

} // namespace

ChipPartition
generativePartition(const ChipTopology &chip, const SymmetricMatrix &d_equiv,
                    const PartitionConfig &config, Prng &prng)
{
    const std::size_t n = chip.qubitCount();
    requireConfig(n > 0, "cannot partition an empty chip");
    requireConfig(d_equiv.size() == n,
                  "equivalent-distance matrix must cover every qubit");
    std::size_t k = config.regionCount;
    if (k == 0)
        k = std::max<std::size_t>(
            2, static_cast<std::size_t>(
                   std::lround(std::sqrt(static_cast<double>(n)) / 2.0)));
    requireConfig(k <= n, "more regions than qubits");

    ChipPartition part;
    part.regionOfQubit.assign(n, kUnassigned);
    part.regions.resize(k);

    // Stage 1a: random first seed, then farthest-point placement so seeds
    // spread across the layout.
    part.seeds.push_back(prng.uniformInt(n));
    while (part.seeds.size() < k) {
        double best = -1.0;
        std::size_t pick = 0;
        for (std::size_t q = 0; q < n; ++q) {
            double nearest = std::numeric_limits<double>::infinity();
            for (std::size_t s : part.seeds)
                nearest = std::min(nearest, d_equiv(s, q));
            if (nearest > best) {
                best = nearest;
                pick = q;
            }
        }
        part.seeds.push_back(pick);
    }
    for (std::size_t r = 0; r < k; ++r) {
        part.regions[r].push_back(part.seeds[r]);
        part.regionOfQubit[part.seeds[r]] = r;
    }

    // Stage 1b: balanced expansion; the smallest region absorbs the
    // unassigned qubit with the lowest equivalent distance to any of its
    // current members, preferring coupling-graph neighbours of the region
    // so regions stay contiguous and compact.
    std::size_t assigned = k;
    while (assigned < n) {
        std::size_t region = 0;
        for (std::size_t r = 1; r < k; ++r) {
            if (part.regions[r].size() < part.regions[region].size())
                region = r;
        }
        double best_adjacent = std::numeric_limits<double>::infinity();
        double best_any = std::numeric_limits<double>::infinity();
        std::size_t pick_adjacent = kUnassigned;
        std::size_t pick_any = kUnassigned;
        for (std::size_t q = 0; q < n; ++q) {
            if (part.regionOfQubit[q] != kUnassigned)
                continue;
            double d = std::numeric_limits<double>::infinity();
            for (std::size_t member : part.regions[region])
                d = std::min(d, d_equiv(member, q));
            if (d < best_any) {
                best_any = d;
                pick_any = q;
            }
            bool adjacent = false;
            for (const Incidence &inc : chip.qubitGraph().incidences(q)) {
                if (part.regionOfQubit[inc.vertex] == region) {
                    adjacent = true;
                    break;
                }
            }
            if (adjacent && d < best_adjacent) {
                best_adjacent = d;
                pick_adjacent = q;
            }
        }
        const std::size_t pick =
            pick_adjacent != kUnassigned ? pick_adjacent : pick_any;
        part.regions[region].push_back(pick);
        part.regionOfQubit[pick] = region;
        ++assigned;
    }

    // Stage 2: border swaps. A border qubit closer (in equivalent
    // distance) to a neighbouring region's seed migrates there, as long as
    // its old region stays connected and non-empty.
    for (std::size_t round = 0; round < kMaxSwapRounds; ++round) {
        bool swapped = false;
        for (std::size_t q = 0; q < n; ++q) {
            const std::size_t own = part.regionOfQubit[q];
            if (q == part.seeds[own] || part.regions[own].size() <= 1)
                continue;
            std::size_t target = own;
            double best = d_equiv(part.seeds[own], q);
            for (const Incidence &inc : chip.qubitGraph().incidences(q)) {
                const std::size_t r = part.regionOfQubit[inc.vertex];
                if (r == own)
                    continue;
                const double d = d_equiv(part.seeds[r], q);
                if (d < best) {
                    best = d;
                    target = r;
                }
            }
            if (target == own)
                continue;
            if (!regionConnectedWithout(chip, part.regions[own], q))
                continue;
            auto &old_list = part.regions[own];
            old_list.erase(std::find(old_list.begin(), old_list.end(), q));
            part.regions[target].push_back(q);
            part.regionOfQubit[q] = target;
            ++part.swapCount;
            swapped = true;
        }
        if (!swapped)
            break; // stage 4: no swaps left
    }
    return part;
}

ChipPartition
geometricPartition(const ChipTopology &chip, std::size_t region_count)
{
    const std::size_t n = chip.qubitCount();
    requireConfig(region_count >= 1 && region_count <= n,
                  "bad region count");
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&chip](std::size_t a, std::size_t b) {
                  const Point pa = chip.qubit(a).position;
                  const Point pb = chip.qubit(b).position;
                  if (pa.x != pb.x)
                      return pa.x < pb.x;
                  if (pa.y != pb.y)
                      return pa.y < pb.y;
                  return a < b;
              });
    ChipPartition part;
    part.regionOfQubit.assign(n, 0);
    part.regions.resize(region_count);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = i * region_count / n;
        part.regions[r].push_back(order[i]);
        part.regionOfQubit[order[i]] = r;
    }
    for (const auto &region : part.regions) {
        requireInternal(!region.empty(), "empty geometric region");
        part.seeds.push_back(region.front());
    }
    return part;
}

double
meanIntraRegionDistance(const ChipPartition &partition,
                        const SymmetricMatrix &d_equiv)
{
    double total = 0.0;
    std::size_t pairs = 0;
    for (const auto &region : partition.regions) {
        for (std::size_t i = 0; i < region.size(); ++i) {
            for (std::size_t j = i + 1; j < region.size(); ++j) {
                total += d_equiv(region[i], region[j]);
                ++pairs;
            }
        }
    }
    return pairs == 0 ? 0.0 : total / static_cast<double>(pairs);
}

FdmPlan
groupFdmPartitioned(const ChipPartition &partition,
                    const SymmetricMatrix &d_equiv,
                    const FdmGroupingConfig &config)
{
    FdmPlan full;
    full.lineOfQubit.assign(d_equiv.size(), static_cast<std::size_t>(-1));
    for (const auto &region : partition.regions) {
        // Reduce the distance matrix to the region, group locally, remap.
        SymmetricMatrix local(region.size());
        for (std::size_t i = 0; i < region.size(); ++i) {
            for (std::size_t j = i + 1; j < region.size(); ++j)
                local(i, j) = d_equiv(region[i], region[j]);
        }
        const FdmPlan local_plan = groupFdm(local, config);
        for (const auto &line : local_plan.lines) {
            std::vector<std::size_t> mapped;
            mapped.reserve(line.size());
            for (std::size_t q : line)
                mapped.push_back(region[q]);
            const std::size_t line_id = full.lines.size();
            for (std::size_t q : mapped)
                full.lineOfQubit[q] = line_id;
            full.lines.push_back(std::move(mapped));
        }
    }
    return full;
}

TdmPlan
groupTdmPartitioned(const ChipTopology &chip, const ChipPartition &partition,
                    const SymmetricMatrix &zz_qubit,
                    const TdmGroupingConfig &config)
{
    // Device pools per region: the region's qubits plus every coupler
    // whose first endpoint lives there.
    std::vector<std::vector<std::size_t>> pools(partition.regionCount());
    for (std::size_t r = 0; r < partition.regionCount(); ++r)
        pools[r] = partition.regions[r];
    for (std::size_t c = 0; c < chip.couplerCount(); ++c) {
        const std::size_t owner =
            partition.regionOfQubit[chip.coupler(c).qubitA];
        pools[owner].push_back(chip.couplerDeviceId(c));
    }
    return groupTdmPools(chip, zz_qubit, config, pools);
}

} // namespace youtiao
