#include "chip/chip_io.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"

namespace youtiao {

void
saveChip(std::ostream &out, const ChipTopology &chip)
{
    out << "youtiao-chip " << kChipFormatVersion << '\n';
    out << "name " << chip.name() << '\n';
    out.precision(17);
    for (const QubitInfo &q : chip.qubits()) {
        out << "qubit " << q.position.x << ' ' << q.position.y << ' '
            << q.baseFrequencyGHz << ' ' << q.t1Ns << '\n';
    }
    for (const CouplerInfo &c : chip.couplers())
        out << "coupler " << c.qubitA << ' ' << c.qubitB << '\n';
}

std::string
chipToString(const ChipTopology &chip)
{
    std::ostringstream out;
    saveChip(out, chip);
    return out.str();
}

ChipTopology
loadChip(std::istream &in)
{
    std::string line;
    // Header.
    int version = -1;
    {
        while (std::getline(in, line)) {
            if (!line.empty() && line[0] != '#')
                break;
        }
        std::istringstream header(line);
        std::string magic;
        header >> magic >> version;
        requireConfig(magic == "youtiao-chip",
                      "not a youtiao chip file (missing header)");
        requireConfig(version == kChipFormatVersion,
                      "unsupported chip format version " +
                          std::to_string(version));
    }

    ChipTopology chip;
    bool named = false;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream stream(line);
        std::string key;
        stream >> key;
        if (key == "name") {
            std::string name;
            std::getline(stream, name);
            if (!name.empty() && name.front() == ' ')
                name.erase(name.begin());
            chip = ChipTopology(name);
            named = true;
        } else if (key == "qubit") {
            requireConfig(named, "'name' must precede qubits");
            QubitInfo q;
            requireConfig(static_cast<bool>(stream >> q.position.x >>
                                            q.position.y),
                          "qubit line needs x and y");
            // Optional frequency and T1.
            if (!(stream >> q.baseFrequencyGHz))
                q.baseFrequencyGHz = 5.0;
            else if (!(stream >> q.t1Ns))
                q.t1Ns = 90e3;
            requireConfig(q.baseFrequencyGHz > 0.0 && q.t1Ns > 0.0,
                          "qubit frequency and T1 must be positive");
            chip.addQubit(q);
        } else if (key == "coupler") {
            std::size_t a = 0, b = 0;
            requireConfig(static_cast<bool>(stream >> a >> b),
                          "coupler line needs two qubit indices");
            if (fault::site("chip.load_coupler")) {
                // Injected wire-bond failure: the coupler exists on the
                // chip but cannot be driven, so it never enters the
                // topology the designer wires.
                log::warn("fault injected: coupler dropped at load",
                          {{"qubit_a", a}, {"qubit_b", b}});
                continue;
            }
            chip.addCoupler(a, b); // validates indices / duplicates
        } else {
            throw ConfigError("unknown chip file key '" + key + "'");
        }
    }
    requireConfig(chip.qubitCount() > 0, "chip file declares no qubits");
    return chip;
}

} // namespace youtiao
