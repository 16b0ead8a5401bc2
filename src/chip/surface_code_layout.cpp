#include "chip/surface_code_layout.hpp"

#include <string>

#include "common/error.hpp"

namespace youtiao {

SurfaceCodeLayout
makeSurfaceCodeLayout(std::size_t distance, double pitch_mm)
{
    requireConfig(distance >= 3 && distance % 2 == 1,
                  "surface code distance must be odd and >= 3");
    SurfaceCodeLayout layout;
    layout.distance = distance;
    layout.chip = ChipTopology("surface code d=" + std::to_string(distance));
    ChipTopology &chip = layout.chip;
    const auto d = static_cast<long>(distance);

    // Data qubits at even-even lattice coordinates (2i, 2j), row-major.
    auto data_index = [d](long i, long j) {
        return static_cast<std::size_t>(i * d + j);
    };
    auto place = [pitch_mm](long gx, long gy) {
        QubitInfo q;
        q.position = Point{0.5 * pitch_mm * static_cast<double>(gx),
                           0.5 * pitch_mm * static_cast<double>(gy)};
        return q;
    };
    for (long i = 0; i < d; ++i) {
        for (long j = 0; j < d; ++j) {
            chip.addQubit(place(2 * j, 2 * i));
            layout.roles.push_back(SurfaceCodeRole::Data);
        }
    }

    auto add_measure = [&](long gi, long gj, SurfaceCodeRole role,
                           std::initializer_list<std::pair<long, long>>
                               data_cells) {
        const std::size_t m = chip.addQubit(place(2 * gj + 1, 2 * gi + 1));
        layout.roles.push_back(role);
        for (const auto &[di, dj] : data_cells) {
            if (di >= 0 && di < d && dj >= 0 && dj < d)
                chip.addCoupler(m, data_index(di, dj));
        }
        return m;
    };

    // Interior plaquettes: centres (2i+1, 2j+1), i,j in [0, d-1), touching
    // the four surrounding data qubits. X/Z checkerboard by (i + j) parity.
    for (long i = 0; i + 1 < d; ++i) {
        for (long j = 0; j + 1 < d; ++j) {
            const SurfaceCodeRole role = (i + j) % 2 == 0
                                             ? SurfaceCodeRole::MeasureX
                                             : SurfaceCodeRole::MeasureZ;
            add_measure(i, j, role,
                        {{i, j}, {i, j + 1}, {i + 1, j}, {i + 1, j + 1}});
        }
    }

    // Boundary half-plaquettes, (d-1)/2 per edge. Top/bottom host X checks
    // (on alternating columns), left/right host Z checks, continuing the
    // interior checkerboard.
    for (long j = 0; j + 1 < d; ++j) {
        if (j % 2 == 1) // top edge, virtual row i = -1
            add_measure(-1, j, SurfaceCodeRole::MeasureX,
                        {{0, j}, {0, j + 1}});
        if (j % 2 == 0) // bottom edge, virtual row i = d-1
            add_measure(d - 1, j, SurfaceCodeRole::MeasureX,
                        {{d - 1, j}, {d - 1, j + 1}});
    }
    for (long i = 0; i + 1 < d; ++i) {
        if (i % 2 == 0) // left edge, virtual column j = -1
            add_measure(i, -1, SurfaceCodeRole::MeasureZ,
                        {{i, 0}, {i + 1, 0}});
        if (i % 2 == 1) // right edge, virtual column j = d-1
            add_measure(i, d - 1, SurfaceCodeRole::MeasureZ,
                        {{i, d - 1}, {i + 1, d - 1}});
    }

    requireInternal(chip.qubitCount() == 2 * distance * distance - 1,
                    "surface code qubit count mismatch");
    requireInternal(chip.couplerCount() == 4 * distance * (distance - 1),
                    "surface code coupler count mismatch");
    return layout;
}

} // namespace youtiao
