/**
 * @file
 * Cryogenic demultiplexer (cryo-DEMUX) specifications.
 *
 * A 1:N cryo-DEMUX sits at the ~20 mK stage and routes one incoming Z line
 * to N devices, one at a time, switching in ~2.6 ns (Acharya et al.). Its
 * select inputs are digital signals arriving over cheap twisted-pair
 * wiring: log2(N) select lines per DEMUX.
 */

#ifndef YOUTIAO_MULTIPLEX_DEMUX_HPP
#define YOUTIAO_MULTIPLEX_DEMUX_HPP

#include <cstddef>

#include "common/error.hpp"

namespace youtiao {

/** One cryo-DEMUX model. */
struct DemuxSpec
{
    /** Output fan-out N of the 1:N switch (power of two). */
    std::size_t fanout = 4;

    /** Digital select lines required: log2(fanout). */
    std::size_t
    selectLineCount() const
    {
        requireConfig(fanout >= 1 && (fanout & (fanout - 1)) == 0,
                      "DEMUX fan-out must be a power of two");
        std::size_t bits = 0;
        for (std::size_t f = fanout; f > 1; f >>= 1)
            ++bits;
        return bits;
    }
};

} // namespace youtiao

#endif // YOUTIAO_MULTIPLEX_DEMUX_HPP
