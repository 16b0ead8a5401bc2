#include "chip/chip_bin.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <utility>

#include "chip/chip_io.hpp"
#include "common/atomic_io.hpp"
#include "common/binfmt.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"

namespace youtiao {

namespace {

ChipTopology
chipFromReader(const binfmt::Reader &reader)
{
    // youtiao-chipbin-1 is the only payload layout so far; when a
    // version 2 changes a section, migrate the old sections forward
    // here (ExpressLRS-style: one shim per version, applied in order)
    // instead of branching readers all over the function.
    switch (reader.schemaVersion()) {
      case 1:
        break;
      default:
        throw InternalError("chip binary: unhandled schema version " +
                            std::to_string(reader.schemaVersion()));
    }

    const std::span<const char> name = reader.bytes("name");
    const std::span<const double> qx = reader.f64("qubit_x");
    const std::span<const double> qy = reader.f64("qubit_y");
    const std::span<const double> qf = reader.f64("qubit_freq");
    const std::span<const double> qt1 = reader.f64("qubit_t1");
    const std::span<const std::uint32_t> ca = reader.u32("coupler_a");
    const std::span<const std::uint32_t> cb = reader.u32("coupler_b");
    const std::span<const double> cx = reader.f64("coupler_x");
    const std::span<const double> cy = reader.f64("coupler_y");

    // NaN and infinite values would poison every distance downstream (a
    // zero-weight term becomes 0 * inf = NaN), so refuse them here, as
    // the text loader refuses "nan" and "inf".
    using Section = std::pair<const char *, std::span<const double>>;
    for (const auto &[section, values] :
         {Section{"qubit_x", qx}, Section{"qubit_y", qy},
          Section{"qubit_freq", qf}, Section{"qubit_t1", qt1},
          Section{"coupler_x", cx}, Section{"coupler_y", cy}}) {
        for (const double v : values) {
            if (!std::isfinite(v))
                throw ConfigError(std::string("chip binary: section '") +
                                  section + "' holds a non-finite value");
        }
    }

    const std::size_t qubits = qx.size();
    requireConfig(qy.size() == qubits && qf.size() == qubits &&
                      qt1.size() == qubits,
                  "chip binary: qubit sections disagree on the qubit "
                  "count");
    requireConfig(qubits > 0, "chip binary: chip declares no qubits");
    const std::size_t couplers = ca.size();
    requireConfig(cb.size() == couplers && cx.size() == couplers &&
                      cy.size() == couplers,
                  "chip binary: coupler sections disagree on the "
                  "coupler count");

    ChipTopology chip(std::string(name.data(), name.size()));
    for (std::size_t q = 0; q < qubits; ++q) {
        QubitInfo info;
        info.position.x = qx[q];
        info.position.y = qy[q];
        info.baseFrequencyGHz = qf[q];
        info.t1Ns = qt1[q];
        requireConfig(info.baseFrequencyGHz > 0.0 && info.t1Ns > 0.0,
                      "chip binary: qubit frequency and T1 must be "
                      "positive");
        chip.addQubit(info);
    }
    for (std::size_t c = 0; c < couplers; ++c) {
        requireConfig(ca[c] < qubits && cb[c] < qubits,
                      "chip binary: coupler endpoint out of range");
        chip.addCoupler(ca[c], cb[c], Point{cx[c], cy[c]});
    }
    return chip;
}

} // namespace

std::vector<unsigned char>
chipToBinary(const ChipTopology &chip)
{
    const std::size_t qubits = chip.qubitCount();
    const std::size_t couplers = chip.couplerCount();
    requireConfig(qubits <= std::numeric_limits<std::uint32_t>::max(),
                  "chip binary: too many qubits for u32 coupler "
                  "endpoints");

    std::vector<double> qx(qubits), qy(qubits), qf(qubits), qt1(qubits);
    for (std::size_t q = 0; q < qubits; ++q) {
        const QubitInfo &info = chip.qubit(q);
        qx[q] = info.position.x;
        qy[q] = info.position.y;
        qf[q] = info.baseFrequencyGHz;
        qt1[q] = info.t1Ns;
    }
    std::vector<std::uint32_t> ca(couplers), cb(couplers);
    std::vector<double> cx(couplers), cy(couplers);
    for (std::size_t c = 0; c < couplers; ++c) {
        const CouplerInfo &info = chip.coupler(c);
        ca[c] = static_cast<std::uint32_t>(info.qubitA);
        cb[c] = static_cast<std::uint32_t>(info.qubitB);
        cx[c] = info.position.x;
        cy[c] = info.position.y;
    }

    binfmt::Writer writer(kChipBinMagic, kChipBinVersion);
    writer.addBytes("name", {chip.name().data(), chip.name().size()});
    writer.addF64("qubit_x", qx);
    writer.addF64("qubit_y", qy);
    writer.addF64("qubit_freq", qf);
    writer.addF64("qubit_t1", qt1);
    writer.addU32("coupler_a", ca);
    writer.addU32("coupler_b", cb);
    writer.addF64("coupler_x", cx);
    writer.addF64("coupler_y", cy);
    return writer.toBytes();
}

void
saveChipBinary(const std::string &path, const ChipTopology &chip)
{
    const std::vector<unsigned char> image = chipToBinary(chip);
    io::atomicWriteFile(path, image.data(), image.size());
}

ChipTopology
chipFromBinary(const unsigned char *data, std::size_t size)
{
    const binfmt::Reader reader({data, size}, kChipBinMagic,
                                kChipBinVersion, "chip binary");
    return chipFromReader(reader);
}

ChipTopology
loadChipBinary(const std::string &path)
{
    const metrics::ScopedTimer timer("io.chip_load_binary");
    const binfmt::MappedFile file(path);
    try {
        return chipFromBinary(file.data(), file.size());
    } catch (const ConfigError &e) {
        throw ConfigError(path + ": " + e.what());
    }
}

ChipTopology
loadChipAuto(const std::string &path)
{
    // Sniff the magic: binary chips always start with "YTCHPBIN",
    // which no text chip can (text files open with "youtiao-chip" or
    // a '#' comment).
    std::ifstream probe(path, std::ios::binary);
    requireConfig(static_cast<bool>(probe),
                  "cannot open '" + path + "' for reading");
    char magic[8] = {};
    probe.read(magic, sizeof magic);
    const bool is_binary =
        probe.gcount() == sizeof magic &&
        std::memcmp(magic, kChipBinMagic, sizeof magic) == 0;
    probe.close();
    if (is_binary)
        return loadChipBinary(path);
    const metrics::ScopedTimer timer("io.chip_load_text");
    std::ifstream in(path);
    requireConfig(static_cast<bool>(in),
                  "cannot open '" + path + "' for reading");
    try {
        return loadChip(in);
    } catch (const ConfigError &e) {
        throw ConfigError(path + ": " + e.what());
    }
}

} // namespace youtiao
