#include "multiplex/tdm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "multiplex/parallelism_index.hpp"

namespace youtiao {

namespace {

constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);


/**
 * Fraction of gate pairs between two devices that are non-parallel
 * (topological conflict or noisy). 1.0 means co-grouping is free.
 */
double
nonParallelFraction(const ChipTopology &chip,
                    const SymmetricMatrix &zz_qubit,
                    const TdmGroupingConfig &cfg, std::size_t d1,
                    std::size_t d2)
{
    const auto g1 = gatesOfDevice(chip, d1);
    const auto g2 = gatesOfDevice(chip, d2);
    if (g1.empty() || g2.empty())
        return 1.0; // a gate-less device is never busy
    std::size_t non_parallel = 0, pairs = 0;
    for (std::size_t a : g1) {
        for (std::size_t b : g2) {
            if (a == b)
                continue; // same gate: legality handles this case
            ++pairs;
            if (gatesConflict(chip, a, b) ||
                gateZz(chip, zz_qubit, a, b) > cfg.noisyZzMHz)
                ++non_parallel;
        }
    }
    return pairs == 0 ? 1.0
                      : static_cast<double>(non_parallel) /
                            static_cast<double>(pairs);
}

void
finalizeGroup(TdmPlan &plan, std::vector<std::size_t> devices,
              std::size_t level_fanout)
{
    TdmGroup group;
    group.fanout = devices.size() > 1 ? level_fanout : 1;
    group.devices = std::move(devices);
    const std::size_t id = plan.groups.size();
    for (std::size_t d : group.devices)
        plan.groupOfDevice[d] = id;
    plan.groups.push_back(std::move(group));
}

} // namespace

std::size_t
TdmPlan::selectLineCount() const
{
    std::size_t total = 0;
    for (const TdmGroup &g : groups) {
        DemuxSpec spec;
        spec.fanout = g.fanout;
        total += spec.selectLineCount();
    }
    return total;
}

std::size_t
TdmPlan::groupCountWithFanout(std::size_t fanout) const
{
    return static_cast<std::size_t>(
        std::count_if(groups.begin(), groups.end(),
                      [fanout](const TdmGroup &g) {
                          return g.fanout == fanout;
                      }));
}

bool
devicesShareGate(const ChipTopology &chip, std::size_t d1, std::size_t d2)
{
    const bool q1 = chip.deviceKind(d1) == DeviceKind::Qubit;
    const bool q2 = chip.deviceKind(d2) == DeviceKind::Qubit;
    if (q1 && q2)
        return chip.qubitGraph().hasEdge(d1, d2);
    if (!q1 && !q2)
        return false; // each gate has exactly one coupler
    const std::size_t qubit = q1 ? d1 : d2;
    const std::size_t coupler = (q1 ? d2 : d1) - chip.qubitCount();
    const CouplerInfo &c = chip.coupler(coupler);
    return c.qubitA == qubit || c.qubitB == qubit;
}

double
gateZz(const ChipTopology &chip, const SymmetricMatrix &zz_qubit,
       std::size_t gate_a, std::size_t gate_b)
{
    const CouplerInfo &a = chip.coupler(gate_a);
    const CouplerInfo &b = chip.coupler(gate_b);
    double worst = 0.0;
    for (std::size_t qa : {a.qubitA, a.qubitB}) {
        for (std::size_t qb : {b.qubitA, b.qubitB}) {
            if (qa != qb)
                worst = std::max(worst, zz_qubit(qa, qb));
        }
    }
    return worst;
}

TdmPlan
groupTdm(const ChipTopology &chip, const SymmetricMatrix &zz_qubit,
         const TdmGroupingConfig &config)
{
    std::vector<std::vector<std::size_t>> pools(1);
    pools[0].resize(chip.deviceCount());
    std::iota(pools[0].begin(), pools[0].end(), 0);
    return groupTdmPools(chip, zz_qubit, config, pools);
}

TdmPlan
groupTdmPools(const ChipTopology &chip, const SymmetricMatrix &zz_qubit,
              const TdmGroupingConfig &config,
              const std::vector<std::vector<std::size_t>> &pools)
{
    requireConfig(zz_qubit.size() == chip.qubitCount(),
                  "ZZ matrix must cover every qubit");
    static_assert(kLowParallelismFanout >= 2 && kHighParallelismFanout >= 2,
                  "DEMUX fan-outs must be at least 2");
    {
        std::vector<std::size_t> seen(chip.deviceCount(), 0);
        for (const auto &p : pools)
            for (std::size_t d : p) {
                requireConfig(d < chip.deviceCount(),
                              "pool device out of range");
                ++seen[d];
            }
        for (std::size_t count : seen)
            requireConfig(count == 1,
                          "pools must cover every device exactly once");
    }

    const std::vector<double> index = parallelismIndices(chip);
    TdmPlan plan;
    plan.groupOfDevice.assign(chip.deviceCount(), kUnassigned);

    // Per pool, two passes: low-parallelism devices onto deep 1:4
    // DEMUXes, then high-parallelism devices onto shallow 1:2 ones.
    for (const auto &region_pool : pools)
    for (int level = 0; level < 2; ++level) {
        const bool low = level == 0;
        const std::size_t fanout =
            low ? kLowParallelismFanout : kHighParallelismFanout;
        std::vector<std::size_t> pool;
        for (std::size_t d : region_pool) {
            const bool is_low = index[d] < config.parallelismThreshold;
            if (is_low == low)
                pool.push_back(d);
        }
        // Step 1: grouping starts from the lowest parallelism index.
        std::sort(pool.begin(), pool.end(),
                  [&index](std::size_t a, std::size_t b) {
                      return index[a] != index[b] ? index[a] < index[b]
                                                  : a < b;
                  });
        std::vector<bool> taken(chip.deviceCount(), false);
        for (std::size_t seed_pos = 0; seed_pos < pool.size(); ++seed_pos) {
            const std::size_t seed = pool[seed_pos];
            if (taken[seed] || plan.groupOfDevice[seed] != kUnassigned)
                continue;
            std::vector<std::size_t> group{seed};
            taken[seed] = true;
            double group_index_sum = index[seed];

            while (group.size() < fanout) {
                // Steps 2+3: prefer candidates fully non-parallel with the
                // group (topologically or noisily); among equals, balance
                // by parallelism-index similarity.
                double best_score = -1.0;
                double best_balance =
                    std::numeric_limits<double>::infinity();
                std::size_t pick = kUnassigned;
                const double group_mean =
                    group_index_sum / static_cast<double>(group.size());
                for (std::size_t cand : pool) {
                    if (taken[cand])
                        continue;
                    bool legal = true;
                    double score = 0.0;
                    for (std::size_t member : group) {
                        if (devicesShareGate(chip, member, cand)) {
                            legal = false;
                            break;
                        }
                        score += nonParallelFraction(chip, zz_qubit,
                                                     config, member, cand);
                    }
                    if (!legal)
                        continue;
                    score /= static_cast<double>(group.size());
                    const double balance =
                        std::abs(index[cand] - group_mean);
                    if (score > best_score + 1e-12 ||
                        (std::abs(score - best_score) <= 1e-12 &&
                         balance < best_balance)) {
                        best_score = score;
                        best_balance = balance;
                        pick = cand;
                    }
                }
                if (pick == kUnassigned ||
                    best_score + 1e-12 < config.minGroupScore)
                    break; // nothing (good enough) left for this group
                group.push_back(pick);
                group_index_sum += index[pick];
                taken[pick] = true;
            }
            finalizeGroup(plan, std::move(group), fanout);
        }
    }
    requireInternal(allGatesRealizable(chip, plan),
                    "TDM grouping produced an unrealizable gate");
    return plan;
}

TdmPlan
groupTdmLocalCluster(const ChipTopology &chip, std::size_t fanout)
{
    requireConfig(fanout >= 2, "DEMUX fan-out must be at least 2");
    TdmPlan plan;
    plan.groupOfDevice.assign(chip.deviceCount(), kUnassigned);

    // Spatial (row-major) order: neighbours end up together, which is
    // exactly the local clustering the paper criticizes.
    std::vector<std::size_t> order(chip.deviceCount());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&chip](std::size_t a, std::size_t b) {
                  const Point pa = chip.devicePosition(a);
                  const Point pb = chip.devicePosition(b);
                  if (pa.y != pb.y)
                      return pa.y < pb.y;
                  if (pa.x != pb.x)
                      return pa.x < pb.x;
                  return a < b;
              });

    std::vector<std::vector<std::size_t>> open_groups;
    for (std::size_t d : order) {
        bool placed = false;
        for (auto &group : open_groups) {
            if (group.size() >= fanout)
                continue;
            const bool legal = std::none_of(
                group.begin(), group.end(), [&](std::size_t member) {
                    return devicesShareGate(chip, member, d);
                });
            if (legal) {
                group.push_back(d);
                placed = true;
                break;
            }
        }
        if (!placed)
            open_groups.push_back({d});
    }
    for (auto &group : open_groups)
        finalizeGroup(plan, std::move(group), fanout);
    requireInternal(allGatesRealizable(chip, plan),
                    "local clustering produced an unrealizable gate");
    return plan;
}

TdmPlan
dedicatedZPlan(const ChipTopology &chip)
{
    TdmPlan plan;
    plan.groupOfDevice.resize(chip.deviceCount());
    plan.groups.reserve(chip.deviceCount());
    for (std::size_t d = 0; d < chip.deviceCount(); ++d) {
        plan.groupOfDevice[d] = d;
        plan.groups.push_back(TdmGroup{{d}, 1});
    }
    return plan;
}

bool
allGatesRealizable(const ChipTopology &chip, const TdmPlan &plan)
{
    for (std::size_t c = 0; c < chip.couplerCount(); ++c) {
        const CouplerInfo &info = chip.coupler(c);
        const std::size_t ga = plan.groupOfDevice[info.qubitA];
        const std::size_t gb = plan.groupOfDevice[info.qubitB];
        const std::size_t gc = plan.groupOfDevice[chip.couplerDeviceId(c)];
        if (ga == gb || ga == gc || gb == gc)
            return false;
    }
    return true;
}

} // namespace youtiao
