#include "core/serialization.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace youtiao {

namespace {

void
writeSizeVector(std::ostream &out, const char *key,
                const std::vector<std::size_t> &values)
{
    out << key;
    for (std::size_t v : values)
        out << ' ' << v;
    out << '\n';
}

void
writeDoubleVector(std::ostream &out, const char *key,
                  const std::vector<double> &values)
{
    out << key;
    out.precision(17);
    for (double v : values)
        out << ' ' << v;
    out << '\n';
}

void
writeSymmetric(std::ostream &out, const char *key,
               const SymmetricMatrix &m)
{
    out << key << ' ' << m.size();
    out.precision(17);
    for (std::size_t i = 0; i < m.size(); ++i)
        for (std::size_t j = i; j < m.size(); ++j)
            out << ' ' << m(i, j);
    out << '\n';
}

/** Tokenized line reader expecting specific keys in order. */
class LineReader
{
  public:
    explicit LineReader(std::istream &in)
        : in_(in)
    {}

    std::istringstream
    expect(const std::string &key)
    {
        std::string line;
        // Skip blank lines and comments. A failed getline used to fall
        // through with an empty line and produce a misleading
        // "expected key 'X', found ''" -- report truncation as such.
        bool have_line = false;
        while (std::getline(in_, line)) {
            if (!line.empty() && line[0] != '#') {
                have_line = true;
                break;
            }
        }
        requireConfig(have_line,
                      "unexpected end of design file while looking for '" +
                          key + "'");
        std::istringstream stream(line);
        std::string found;
        stream >> found;
        requireConfig(found == key, "expected key '" + key +
                                        "', found '" + found + "'");
        return stream;
    }

  private:
    std::istream &in_;
};

/**
 * Upper bound on how many whitespace-separated values @p stream's line
 * can still hold (every value costs at least one character plus a
 * separator). Counts parsed from garbled files are checked against it
 * before sizing containers, so corruption yields ConfigError instead of
 * a multi-gigabyte allocation.
 */
std::size_t
tokenBudget(const std::istringstream &stream)
{
    return stream.str().size() / 2 + 1;
}

std::vector<std::size_t>
readSizeVector(std::istringstream stream)
{
    std::vector<std::size_t> values;
    std::size_t v;
    while (stream >> v)
        values.push_back(v);
    return values;
}

std::vector<double>
readDoubleVector(std::istringstream stream)
{
    std::vector<double> values;
    double v;
    while (stream >> v)
        values.push_back(v);
    return values;
}

SymmetricMatrix
readSymmetric(std::istringstream stream)
{
    std::size_t n = 0;
    requireConfig(static_cast<bool>(stream >> n),
                  "symmetric matrix missing size");
    requireConfig(n <= 65536 && n * (n + 1) / 2 <= tokenBudget(stream),
                  "symmetric matrix size implausible for its line");
    SymmetricMatrix m(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
            double v;
            requireConfig(static_cast<bool>(stream >> v),
                          "symmetric matrix truncated");
            m(i, j) = v;
        }
    }
    return m;
}

/** Group lists are encoded as: count, then per group: size, members... */
void
writeGroups(std::ostream &out, const char *key,
            const std::vector<std::vector<std::size_t>> &groups)
{
    out << key << ' ' << groups.size();
    for (const auto &g : groups) {
        out << ' ' << g.size();
        for (std::size_t v : g)
            out << ' ' << v;
    }
    out << '\n';
}

std::vector<std::vector<std::size_t>>
readGroups(std::istringstream stream)
{
    std::size_t count = 0;
    requireConfig(static_cast<bool>(stream >> count),
                  "group list missing count");
    requireConfig(count <= tokenBudget(stream),
                  "group count implausible for its line");
    std::vector<std::vector<std::size_t>> groups(count);
    for (auto &g : groups) {
        std::size_t size = 0;
        requireConfig(static_cast<bool>(stream >> size),
                      "group missing size");
        requireConfig(size <= tokenBudget(stream),
                      "group size implausible for its line");
        g.resize(size);
        for (std::size_t &v : g)
            requireConfig(static_cast<bool>(stream >> v),
                          "group truncated");
    }
    return groups;
}

} // namespace

void
saveDesign(std::ostream &out, const YoutiaoDesign &design)
{
    validateDesign(design);
    out << "youtiao-design " << kDesignFormatVersion << '\n';

    writeGroups(out, "xy.lines", design.xyPlan.lines);
    writeSizeVector(out, "xy.line_of_qubit", design.xyPlan.lineOfQubit);

    writeDoubleVector(out, "freq.ghz", design.frequencyPlan.frequencyGHz);
    writeSizeVector(out, "freq.zone", design.frequencyPlan.zoneOfQubit);
    writeSizeVector(out, "freq.cell", design.frequencyPlan.cellOfQubit);
    out << "freq.zones " << design.frequencyPlan.zoneCount << '\n';

    out << "z.groups " << design.zPlan.groups.size();
    for (const TdmGroup &g : design.zPlan.groups) {
        out << ' ' << g.fanout << ' ' << g.devices.size();
        for (std::size_t d : g.devices)
            out << ' ' << d;
    }
    out << '\n';
    writeSizeVector(out, "z.group_of_device", design.zPlan.groupOfDevice);

    writeGroups(out, "readout.feedlines", design.readoutPlan.lines);
    writeSizeVector(out, "readout.feedline_of_qubit",
                    design.readoutPlan.lineOfQubit);
    writeDoubleVector(out, "readout.resonator_ghz",
                      design.readout.resonatorGHz);

    writeSymmetric(out, "predicted.xy", design.predictedXy);
    writeSymmetric(out, "predicted.zz_mhz", design.predictedZzMHz);

    out << "counts " << design.counts.xyLines << ' '
        << design.counts.zLines << ' ' << design.counts.readoutFeeds
        << ' ' << design.counts.readoutDacs << ' '
        << design.counts.demuxSelectLines << ' ' << design.counts.demux12
        << ' ' << design.counts.demux14 << '\n';
    out.precision(17);
    out << "cost.usd " << design.costUsd << '\n';
}

std::string
designToString(const YoutiaoDesign &design)
{
    std::ostringstream out;
    saveDesign(out, design);
    return out.str();
}

YoutiaoDesign
loadDesign(std::istream &in)
{
    LineReader reader(in);
    {
        auto header = reader.expect("youtiao-design");
        int version = -1;
        requireConfig(static_cast<bool>(header >> version),
                      "missing format version");
        requireConfig(version == kDesignFormatVersion,
                      "unsupported design format version " +
                          std::to_string(version));
    }

    YoutiaoDesign design;
    design.xyPlan.lines = readGroups(reader.expect("xy.lines"));
    design.xyPlan.lineOfQubit =
        readSizeVector(reader.expect("xy.line_of_qubit"));

    design.frequencyPlan.frequencyGHz =
        readDoubleVector(reader.expect("freq.ghz"));
    design.frequencyPlan.zoneOfQubit =
        readSizeVector(reader.expect("freq.zone"));
    design.frequencyPlan.cellOfQubit =
        readSizeVector(reader.expect("freq.cell"));
    {
        auto stream = reader.expect("freq.zones");
        requireConfig(
            static_cast<bool>(stream >> design.frequencyPlan.zoneCount),
            "missing zone count");
    }

    {
        auto stream = reader.expect("z.groups");
        std::size_t count = 0;
        requireConfig(static_cast<bool>(stream >> count),
                      "missing TDM group count");
        requireConfig(count <= tokenBudget(stream),
                      "TDM group count implausible for its line");
        design.zPlan.groups.resize(count);
        for (TdmGroup &g : design.zPlan.groups) {
            std::size_t size = 0;
            requireConfig(static_cast<bool>(stream >> g.fanout >> size),
                          "TDM group truncated");
            requireConfig(size <= tokenBudget(stream),
                          "TDM group size implausible for its line");
            g.devices.resize(size);
            for (std::size_t &d : g.devices)
                requireConfig(static_cast<bool>(stream >> d),
                              "TDM group member list truncated");
        }
    }
    design.zPlan.groupOfDevice =
        readSizeVector(reader.expect("z.group_of_device"));

    design.readoutPlan.lines =
        readGroups(reader.expect("readout.feedlines"));
    design.readoutPlan.lineOfQubit =
        readSizeVector(reader.expect("readout.feedline_of_qubit"));
    design.readout.resonatorGHz =
        readDoubleVector(reader.expect("readout.resonator_ghz"));

    design.predictedXy = readSymmetric(reader.expect("predicted.xy"));
    design.predictedZzMHz =
        readSymmetric(reader.expect("predicted.zz_mhz"));

    {
        auto stream = reader.expect("counts");
        requireConfig(
            static_cast<bool>(
                stream >> design.counts.xyLines >> design.counts.zLines >>
                design.counts.readoutFeeds >> design.counts.readoutDacs >>
                design.counts.demuxSelectLines >> design.counts.demux12 >>
                design.counts.demux14),
            "counts line truncated");
    }
    {
        auto stream = reader.expect("cost.usd");
        requireConfig(static_cast<bool>(stream >> design.costUsd),
                      "missing cost");
    }

    validateDesign(design);
    return design;
}

void
validateDesign(const YoutiaoDesign &design)
{
    const std::size_t qubits = design.xyPlan.lineOfQubit.size();
    requireConfig(design.frequencyPlan.frequencyGHz.size() == qubits &&
                      design.frequencyPlan.zoneOfQubit.size() == qubits &&
                      design.frequencyPlan.cellOfQubit.size() == qubits &&
                      design.readoutPlan.lineOfQubit.size() == qubits &&
                      design.readout.resonatorGHz.size() == qubits &&
                      design.predictedXy.size() == qubits &&
                      design.predictedZzMHz.size() == qubits,
                  "design sections disagree on qubit count");
    for (std::size_t l = 0; l < design.xyPlan.lines.size(); ++l) {
        for (std::size_t q : design.xyPlan.lines[l]) {
            requireConfig(q < qubits &&
                              design.xyPlan.lineOfQubit[q] == l,
                          "xy plan map/group mismatch");
        }
    }
    for (std::size_t g = 0; g < design.zPlan.groups.size(); ++g) {
        for (std::size_t d : design.zPlan.groups[g].devices) {
            requireConfig(d < design.zPlan.groupOfDevice.size() &&
                              design.zPlan.groupOfDevice[d] == g,
                          "z plan map/group mismatch");
        }
    }
    for (std::size_t f = 0; f < design.readoutPlan.lines.size(); ++f) {
        for (std::size_t q : design.readoutPlan.lines[f]) {
            requireConfig(q < qubits &&
                              design.readoutPlan.lineOfQubit[q] == f,
                          "readout plan map/group mismatch");
        }
    }
}

YoutiaoDesign
designFromString(const std::string &text)
{
    std::istringstream in(text);
    return loadDesign(in);
}

} // namespace youtiao
