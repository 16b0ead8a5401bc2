#include "chip/topology_builder.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numbers>
#include <utility>

#include "common/error.hpp"
#include "graph/coloring.hpp"

namespace youtiao {

namespace {

QubitInfo
placedQubit(double x, double y)
{
    QubitInfo q;
    q.position = Point{x, y};
    q.t1Ns = kQubitT1Ns;
    return q;
}

} // namespace

const char *
topologyFamilyName(TopologyFamily family)
{
    switch (family) {
      case TopologyFamily::Square:
        return "square";
      case TopologyFamily::Hexagon:
        return "hexagon";
      case TopologyFamily::HeavySquare:
        return "heavy square";
      case TopologyFamily::HeavyHexagon:
        return "heavy hexagon";
      case TopologyFamily::LowDensity:
        return "low-density";
      case TopologyFamily::SquareGrid:
        return "square grid";
    }
    return "unknown";
}

ChipTopology
makeSquareGrid(std::size_t rows, std::size_t cols)
{
    requireConfig(rows >= 1 && cols >= 1, "grid needs positive dimensions");
    ChipTopology chip("square grid " + std::to_string(rows) + "x" +
                      std::to_string(cols));
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            chip.addQubit(placedQubit(static_cast<double>(c) * kQubitPitchMm,
                                      static_cast<double>(r) * kQubitPitchMm));
        }
    }
    auto at = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            if (c + 1 < cols)
                chip.addCoupler(at(r, c), at(r, c + 1));
            if (r + 1 < rows)
                chip.addCoupler(at(r, c), at(r + 1, c));
        }
    }
    Prng prng(kBaseFrequencySeed);
    assignPatternFrequencies(chip, prng);
    return chip;
}

ChipTopology
makeSquare()
{
    ChipTopology chip = makeSquareGrid(3, 3);
    return chip;
}

ChipTopology
makeHexagon(std::size_t cell_rows, std::size_t cell_cols)
{
    requireConfig(cell_rows >= 1 && cell_cols >= 1,
                  "honeycomb needs positive cell dimensions");
    ChipTopology chip("hexagon " + std::to_string(cell_rows) + "x" +
                      std::to_string(cell_cols));

    // Build hexagon corners cell by cell and deduplicate shared vertices by
    // quantized coordinates. Pointy-top hexagons with side length = pitch.
    const double r = kQubitPitchMm;
    const double sqrt3 = std::sqrt(3.0);
    std::map<std::pair<long, long>, std::size_t> vertex_of;
    auto key = [](double x, double y) {
        return std::make_pair(std::lround(x * 1e6), std::lround(y * 1e6));
    };
    auto vertex = [&](double x, double y) {
        const auto k = key(x, y);
        auto it = vertex_of.find(k);
        if (it != vertex_of.end())
            return it->second;
        const std::size_t q = chip.addQubit(placedQubit(x, y));
        vertex_of.emplace(k, q);
        return q;
    };

    for (std::size_t i = 0; i < cell_rows; ++i) {
        for (std::size_t j = 0; j < cell_cols; ++j) {
            const double cx =
                (static_cast<double>(j) + 0.5 * static_cast<double>(i % 2)) *
                sqrt3 * r;
            const double cy = static_cast<double>(i) * 1.5 * r;
            std::size_t corner[6];
            for (int k6 = 0; k6 < 6; ++k6) {
                // Pointy-top: corners at 30, 90, ..., 330 degrees.
                const double ang =
                    (60.0 * k6 + 30.0) * std::numbers::pi / 180.0;
                corner[k6] =
                    vertex(cx + r * std::cos(ang), cy + r * std::sin(ang));
            }
            for (int k6 = 0; k6 < 6; ++k6) {
                const std::size_t a = corner[k6];
                const std::size_t b = corner[(k6 + 1) % 6];
                if (!chip.qubitGraph().hasEdge(a, b))
                    chip.addCoupler(a, b);
            }
        }
    }
    Prng prng(kBaseFrequencySeed);
    assignPatternFrequencies(chip, prng);
    return chip;
}

ChipTopology
makeHeavy(const ChipTopology &base)
{
    // Doubling the base coordinates keeps the inserted midpoint qubits at
    // the same physical pitch as the originals (IBM heavy lattices space
    // all transmons uniformly).
    ChipTopology chip("heavy " + base.name());
    for (const QubitInfo &q : base.qubits()) {
        QubitInfo scaled = q;
        scaled.position.x *= 2.0;
        scaled.position.y *= 2.0;
        chip.addQubit(scaled);
    }
    for (const CouplerInfo &c : base.couplers()) {
        const std::size_t mid = chip.addQubit(
            placedQubit(2.0 * c.position.x, 2.0 * c.position.y));
        chip.addCoupler(c.qubitA, mid);
        chip.addCoupler(mid, c.qubitB);
    }
    Prng prng(kBaseFrequencySeed);
    assignPatternFrequencies(chip, prng);
    return chip;
}

ChipTopology
makeHeavySquare()
{
    return makeHeavy(makeSquareGrid(3, 3));
}

ChipTopology
makeHeavyHexagon()
{
    return makeHeavy(makeHexagon(1, 2));
}

ChipTopology
makeLowDensity()
{
    // Six 3-qubit columns; columns joined along the top row; one extra link
    // along the bottom row closes a single cycle. 18 qubits, 18 couplers.
    constexpr std::size_t rows = 3, cols = 6;
    ChipTopology chip("low-density");
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            chip.addQubit(placedQubit(static_cast<double>(c) * kQubitPitchMm,
                                      static_cast<double>(r) * kQubitPitchMm));
        }
    }
    auto at = [](std::size_t r, std::size_t c) { return r * cols + c; };
    for (std::size_t c = 0; c < cols; ++c) {
        chip.addCoupler(at(0, c), at(1, c));
        chip.addCoupler(at(1, c), at(2, c));
    }
    for (std::size_t c = 0; c + 1 < cols; ++c)
        chip.addCoupler(at(0, c), at(0, c + 1));
    chip.addCoupler(at(2, 0), at(2, 1));
    Prng prng(kBaseFrequencySeed);
    assignPatternFrequencies(chip, prng);
    return chip;
}

ChipTopology
makeTopology(TopologyFamily family, std::size_t rows, std::size_t cols)
{
    switch (family) {
      case TopologyFamily::Square:
        return makeSquare();
      case TopologyFamily::Hexagon:
        return makeHexagon(2, 2);
      case TopologyFamily::HeavySquare:
        return makeHeavySquare();
      case TopologyFamily::HeavyHexagon:
        return makeHeavyHexagon();
      case TopologyFamily::LowDensity:
        return makeLowDensity();
      case TopologyFamily::SquareGrid:
        return makeSquareGrid(rows, cols);
    }
    throw ConfigError("unknown topology family");
}

void
assignPatternFrequencies(ChipTopology &chip, Prng &prng)
{
    if (chip.qubitCount() == 0)
        return;
    const auto colors = greedyColoring(chip.qubitGraph(),
                                       degreeDescendingOrder(
                                           chip.qubitGraph()));
    const std::size_t bands = std::max<std::size_t>(
        2, *std::max_element(colors.begin(), colors.end()) + 1);
    // Spread bands across the 4.2-6.8 GHz window; +/-30 MHz jitter models
    // fabrication spread while keeping neighbours detuned.
    const double lo = 4.2, hi = 6.8;
    const double step = (hi - lo) / static_cast<double>(bands);
    for (std::size_t q = 0; q < chip.qubitCount(); ++q) {
        const double center =
            lo + (static_cast<double>(colors[q]) + 0.5) * step;
        chip.qubit(q).baseFrequencyGHz = center + prng.uniform(-0.03, 0.03);
    }
}

} // namespace youtiao
