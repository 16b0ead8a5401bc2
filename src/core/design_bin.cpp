#include "core/design_bin.hpp"

#include <limits>

#include "common/binfmt.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "core/serialization.hpp"

namespace youtiao {

namespace {

/** Flatten a group list CSR-style: offsets[g]..offsets[g+1] index the
 *  member array. */
struct FlatGroups
{
    std::vector<std::uint64_t> offsets;
    std::vector<std::uint64_t> members;
};

FlatGroups
flattenGroups(const std::vector<std::vector<std::size_t>> &groups)
{
    FlatGroups out;
    out.offsets.reserve(groups.size() + 1);
    out.offsets.push_back(0);
    std::size_t total = 0;
    for (const auto &g : groups)
        total += g.size();
    out.members.reserve(total);
    for (const auto &g : groups) {
        for (std::size_t v : g)
            out.members.push_back(v);
        out.offsets.push_back(out.members.size());
    }
    return out;
}

std::vector<std::vector<std::size_t>>
unflattenGroups(std::span<const std::uint64_t> offsets,
                std::span<const std::uint64_t> members,
                const std::string &what)
{
    requireConfig(!offsets.empty(),
                  what + ": group offsets section is empty");
    requireConfig(offsets.front() == 0 &&
                      offsets.back() == members.size(),
                  what + ": group offsets do not span the member "
                         "array");
    std::vector<std::vector<std::size_t>> groups(offsets.size() - 1);
    for (std::size_t g = 0; g + 1 < offsets.size(); ++g) {
        // Both bounds checked per group: a garbled non-monotonic table
        // must never index outside the member array.
        requireConfig(offsets[g] <= offsets[g + 1] &&
                          offsets[g + 1] <= members.size(),
                      what + ": group offsets are not monotonic");
        const std::size_t begin =
            static_cast<std::size_t>(offsets[g]);
        const std::size_t end =
            static_cast<std::size_t>(offsets[g + 1]);
        groups[g].assign(members.begin() + begin,
                         members.begin() + end);
    }
    return groups;
}

std::vector<std::uint64_t>
toU64(const std::vector<std::size_t> &v)
{
    return std::vector<std::uint64_t>(v.begin(), v.end());
}

std::vector<std::size_t>
toSize(std::span<const std::uint64_t> v)
{
    return std::vector<std::size_t>(v.begin(), v.end());
}

/** Pack the upper triangle (row-major, diagonal included). */
std::vector<double>
packTriangle(const SymmetricMatrix &m)
{
    std::vector<double> out;
    out.reserve(m.size() * (m.size() + 1) / 2);
    for (std::size_t i = 0; i < m.size(); ++i)
        for (std::size_t j = i; j < m.size(); ++j)
            out.push_back(m(i, j));
    return out;
}

SymmetricMatrix
unpackTriangle(std::span<const double> packed, std::size_t n,
               const std::string &what)
{
    requireConfig(packed.size() == n * (n + 1) / 2,
                  what + ": packed matrix size does not match the "
                         "qubit count");
    SymmetricMatrix m(n);
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i; j < n; ++j)
            m(i, j) = packed[k++];
    return m;
}

YoutiaoDesign
designFromReader(const binfmt::Reader &reader)
{
    // youtiao-designbin-1 is the only payload layout so far; migrate
    // older sections forward here once a version 2 exists.
    switch (reader.schemaVersion()) {
      case 1:
        break;
      default:
        throw InternalError("design binary: unhandled schema version " +
                            std::to_string(reader.schemaVersion()));
    }

    YoutiaoDesign design;
    design.xyPlan.lines = unflattenGroups(
        reader.u64("xy_off"), reader.u64("xy_mem"), "design binary xy");
    design.xyPlan.lineOfQubit = toSize(reader.u64("xy_line_of"));

    const std::span<const double> freq = reader.f64("freq_ghz");
    design.frequencyPlan.frequencyGHz.assign(freq.begin(), freq.end());
    design.frequencyPlan.zoneOfQubit = toSize(reader.u64("freq_zone"));
    design.frequencyPlan.cellOfQubit = toSize(reader.u64("freq_cell"));
    const std::span<const std::uint64_t> zones =
        reader.u64("freq_zones");
    requireConfig(zones.size() == 1,
                  "design binary: freq_zones must hold one value");
    design.frequencyPlan.zoneCount =
        static_cast<std::size_t>(zones[0]);

    const std::span<const std::uint64_t> fanout =
        reader.u64("z_fanout");
    const std::vector<std::vector<std::size_t>> z_groups =
        unflattenGroups(reader.u64("z_off"), reader.u64("z_mem"),
                        "design binary z");
    requireConfig(fanout.size() == z_groups.size(),
                  "design binary: z_fanout disagrees with the TDM "
                  "group count");
    design.zPlan.groups.resize(z_groups.size());
    for (std::size_t g = 0; g < z_groups.size(); ++g) {
        design.zPlan.groups[g].devices = z_groups[g];
        design.zPlan.groups[g].fanout =
            static_cast<std::size_t>(fanout[g]);
    }
    design.zPlan.groupOfDevice = toSize(reader.u64("z_group_of"));

    design.readoutPlan.lines = unflattenGroups(
        reader.u64("ro_off"), reader.u64("ro_mem"),
        "design binary readout");
    design.readoutPlan.lineOfQubit = toSize(reader.u64("ro_line_of"));
    const std::span<const double> res = reader.f64("ro_res_ghz");
    design.readout.resonatorGHz.assign(res.begin(), res.end());

    const std::size_t qubits =
        design.frequencyPlan.frequencyGHz.size();
    design.predictedXy = unpackTriangle(reader.f64("pred_xy"), qubits,
                                        "design binary pred_xy");
    design.predictedZzMHz = unpackTriangle(
        reader.f64("pred_zz"), qubits, "design binary pred_zz");

    const std::span<const std::uint64_t> counts =
        reader.u64("counts");
    requireConfig(counts.size() == 7,
                  "design binary: counts must hold seven values");
    design.counts.xyLines = static_cast<std::size_t>(counts[0]);
    design.counts.zLines = static_cast<std::size_t>(counts[1]);
    design.counts.readoutFeeds = static_cast<std::size_t>(counts[2]);
    design.counts.readoutDacs = static_cast<std::size_t>(counts[3]);
    design.counts.demuxSelectLines =
        static_cast<std::size_t>(counts[4]);
    design.counts.demux12 = static_cast<std::size_t>(counts[5]);
    design.counts.demux14 = static_cast<std::size_t>(counts[6]);

    const std::span<const double> cost = reader.f64("cost_usd");
    requireConfig(cost.size() == 1,
                  "design binary: cost_usd must hold one value");
    design.costUsd = cost[0];

    validateDesign(design);
    return design;
}

} // namespace

std::vector<unsigned char>
designToBinary(const YoutiaoDesign &design)
{
    validateDesign(design);
    binfmt::Writer writer(kDesignBinMagic, kDesignBinVersion);

    const FlatGroups xy = flattenGroups(design.xyPlan.lines);
    writer.addU64("xy_off", xy.offsets);
    writer.addU64("xy_mem", xy.members);
    writer.addU64("xy_line_of", toU64(design.xyPlan.lineOfQubit));

    writer.addF64("freq_ghz", design.frequencyPlan.frequencyGHz);
    writer.addU64("freq_zone", toU64(design.frequencyPlan.zoneOfQubit));
    writer.addU64("freq_cell", toU64(design.frequencyPlan.cellOfQubit));
    const std::vector<std::uint64_t> zones{
        design.frequencyPlan.zoneCount};
    writer.addU64("freq_zones", zones);

    std::vector<std::uint64_t> fanout;
    std::vector<std::vector<std::size_t>> z_groups;
    fanout.reserve(design.zPlan.groups.size());
    z_groups.reserve(design.zPlan.groups.size());
    for (const TdmGroup &g : design.zPlan.groups) {
        fanout.push_back(g.fanout);
        z_groups.push_back(g.devices);
    }
    const FlatGroups z = flattenGroups(z_groups);
    writer.addU64("z_fanout", fanout);
    writer.addU64("z_off", z.offsets);
    writer.addU64("z_mem", z.members);
    writer.addU64("z_group_of", toU64(design.zPlan.groupOfDevice));

    const FlatGroups ro = flattenGroups(design.readoutPlan.lines);
    writer.addU64("ro_off", ro.offsets);
    writer.addU64("ro_mem", ro.members);
    writer.addU64("ro_line_of", toU64(design.readoutPlan.lineOfQubit));
    writer.addF64("ro_res_ghz", design.readout.resonatorGHz);

    writer.addF64("pred_xy", packTriangle(design.predictedXy));
    writer.addF64("pred_zz", packTriangle(design.predictedZzMHz));

    const std::vector<std::uint64_t> counts{
        design.counts.xyLines,
        design.counts.zLines,
        design.counts.readoutFeeds,
        design.counts.readoutDacs,
        design.counts.demuxSelectLines,
        design.counts.demux12,
        design.counts.demux14,
    };
    writer.addU64("counts", counts);
    const std::vector<double> cost{design.costUsd};
    writer.addF64("cost_usd", cost);

    return writer.toBytes();
}

YoutiaoDesign
designFromBinary(const unsigned char *data, std::size_t size)
{
    const binfmt::Reader reader({data, size}, kDesignBinMagic,
                                kDesignBinVersion, "design binary");
    return designFromReader(reader);
}

YoutiaoDesign
loadDesignBinary(const std::string &path)
{
    const metrics::ScopedTimer timer("io.design_load_binary");
    const binfmt::MappedFile file(path);
    try {
        return designFromBinary(file.data(), file.size());
    } catch (const ConfigError &e) {
        throw ConfigError(path + ": " + e.what());
    }
}

} // namespace youtiao
