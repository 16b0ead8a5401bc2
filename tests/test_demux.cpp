#include <gtest/gtest.h>

#include "common/error.hpp"
#include "multiplex/demux.hpp"

namespace youtiao {
namespace {

TEST(Demux, SelectLinesAreLogTwoOfFanout)
{
    DemuxSpec spec;
    spec.fanout = 1;
    EXPECT_EQ(spec.selectLineCount(), 0u);
    spec.fanout = 2;
    EXPECT_EQ(spec.selectLineCount(), 1u);
    spec.fanout = 4;
    EXPECT_EQ(spec.selectLineCount(), 2u);
    spec.fanout = 8;
    EXPECT_EQ(spec.selectLineCount(), 3u);
    spec.fanout = 16;
    EXPECT_EQ(spec.selectLineCount(), 4u);
}

TEST(Demux, NonPowerOfTwoRejected)
{
    DemuxSpec spec;
    spec.fanout = 3;
    EXPECT_THROW(spec.selectLineCount(), ConfigError);
    spec.fanout = 0;
    EXPECT_THROW(spec.selectLineCount(), ConfigError);
}

TEST(Demux, DefaultsMatchAcharya)
{
    const DemuxSpec spec;
    EXPECT_EQ(spec.fanout, 4u);
}

} // namespace
} // namespace youtiao
