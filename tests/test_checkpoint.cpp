/**
 * @file
 * Checkpoint journal tests (common/checkpoint.hpp): store/fetch
 * round-trips, resume across sessions, newest-sequence-wins, manifest
 * input-hash guarding, checksum rejection of corrupted snapshots, and
 * the ByteWriter/ByteReader payload codec's hostile-input hardening.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "test_support.hpp"

namespace youtiao {
namespace {

namespace fs = std::filesystem;

/** A journal directory of the test's own; the session is always
 *  closed. */
struct CheckpointTest : ::testing::Test
{
    const TestDir scratch;
    const std::string dir = scratch.file("journal");

    void SetUp() override { checkpoint::close(); }
    void TearDown() override { checkpoint::close(); }

    static std::map<std::string, std::string>
    hashes()
    {
        return {{"chip", "abc123"}, {"seed", "7"}};
    }
};

std::vector<std::uint8_t>
payload(const std::string &text, double value)
{
    checkpoint::ByteWriter w;
    w.str(text);
    w.f64(value);
    return w.bytes();
}

TEST_F(CheckpointTest, InactiveSessionIsInert)
{
    EXPECT_FALSE(checkpoint::active());
    std::vector<std::uint8_t> bytes;
    EXPECT_FALSE(checkpoint::fetch("key", bytes));
    EXPECT_NO_THROW(checkpoint::store("key", payload("x", 1.0)));
    EXPECT_NO_THROW(checkpoint::close());
}

TEST_F(CheckpointTest, ResumeReplaysStoredSnapshots)
{
    checkpoint::open(dir, "test", hashes(), false);
    EXPECT_TRUE(checkpoint::active());
    // A fresh session starts empty: fetch misses, work runs live.
    std::vector<std::uint8_t> bytes;
    EXPECT_FALSE(checkpoint::fetch("unit-0", bytes));
    checkpoint::store("unit-0", payload("alpha", 1.25));
    checkpoint::store("unit-1", payload("beta", -2.5));
    checkpoint::close();
    EXPECT_FALSE(checkpoint::active());

    checkpoint::open(dir, "test", hashes(), true);
    const checkpoint::Stats st = checkpoint::stats();
    EXPECT_EQ(st.snapshotsLoaded, 2u);
    EXPECT_EQ(st.snapshotsRejected, 0u);
    ASSERT_TRUE(checkpoint::fetch("unit-1", bytes));
    checkpoint::ByteReader r(bytes);
    EXPECT_EQ(r.str(), "beta");
    EXPECT_EQ(r.f64(), -2.5);
    EXPECT_TRUE(r.exhausted());
    EXPECT_FALSE(checkpoint::fetch("unit-2", bytes));
}

TEST_F(CheckpointTest, NewestSequenceWinsPerKey)
{
    checkpoint::open(dir, "test", hashes(), false);
    checkpoint::store("epoch", payload("old", 1.0));
    checkpoint::store("epoch", payload("new", 2.0));
    checkpoint::close();

    checkpoint::open(dir, "test", hashes(), true);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(checkpoint::fetch("epoch", bytes));
    checkpoint::ByteReader r(bytes);
    EXPECT_EQ(r.str(), "new");
    EXPECT_EQ(r.f64(), 2.0);
}

TEST_F(CheckpointTest, FreshOpenDiscardsStaleJournal)
{
    checkpoint::open(dir, "test", hashes(), false);
    checkpoint::store("unit-0", payload("stale", 0.0));
    checkpoint::close();

    // resume=false: the journal belongs to a new run now.
    checkpoint::open(dir, "test", hashes(), false);
    std::vector<std::uint8_t> bytes;
    EXPECT_FALSE(checkpoint::fetch("unit-0", bytes));
    EXPECT_EQ(checkpoint::stats().snapshotsLoaded, 0u);
}

TEST_F(CheckpointTest, ManifestGuardsInputHashes)
{
    checkpoint::open(dir, "test", hashes(), false);
    checkpoint::store("unit-0", payload("x", 1.0));
    checkpoint::close();

    // Same tool, different input hash: resuming would splice snapshots
    // computed from different inputs -- refused up front.
    std::map<std::string, std::string> other = hashes();
    other["chip"] = "fff999";
    EXPECT_THROW(checkpoint::open(dir, "test", other, true),
                 ConfigError);
    EXPECT_FALSE(checkpoint::active());
    // Different tool name is refused too.
    EXPECT_THROW(checkpoint::open(dir, "other_tool", hashes(), true),
                 ConfigError);
}

TEST_F(CheckpointTest, CorruptedSnapshotIsRejectedNotTrusted)
{
    checkpoint::open(dir, "test", hashes(), false);
    checkpoint::store("unit-0", payload("precious", 3.75));
    checkpoint::close();

    // Flip one payload byte in the snapshot file; the checksum trailer
    // must catch it and the journal must fall back to recompute.
    std::string victim;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir))
        if (entry.path().filename().string().rfind("ckpt-", 0) == 0)
            victim = entry.path().string();
    ASSERT_FALSE(victim.empty());
    {
        std::fstream file(victim,
                          std::ios::in | std::ios::out |
                              std::ios::binary);
        file.seekg(0, std::ios::end);
        const std::streamoff size = file.tellg();
        file.seekp(size / 2);
        char byte = 0;
        file.seekg(size / 2);
        file.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5A);
        file.seekp(size / 2);
        file.write(&byte, 1);
    }

    checkpoint::open(dir, "test", hashes(), true);
    const checkpoint::Stats st = checkpoint::stats();
    EXPECT_EQ(st.snapshotsLoaded, 0u);
    EXPECT_EQ(st.snapshotsRejected, 1u);
    std::vector<std::uint8_t> bytes;
    EXPECT_FALSE(checkpoint::fetch("unit-0", bytes));
}

TEST_F(CheckpointTest, ByteCodecRoundTripsEveryType)
{
    checkpoint::ByteWriter w;
    w.u64(42);
    w.f64(-0.0); // sign of zero must survive: bits, not formatting
    w.boolean(true);
    w.str(std::string("text with \0 byte inside", 23));
    w.vecU64({1, 2, 3});
    w.vecF64({1.5, -2.25});
    w.vecVecU64({{7}, {}, {8, 9}});
    w.vecStr({"a", "", "bc"});
    const std::vector<std::uint8_t> bytes = w.bytes();

    checkpoint::ByteReader r(bytes);
    EXPECT_EQ(r.u64(), 42u);
    const double zero = r.f64();
    EXPECT_EQ(zero, 0.0);
    EXPECT_TRUE(std::signbit(zero));
    EXPECT_TRUE(r.boolean());
    EXPECT_EQ(r.str(), std::string("text with \0 byte inside", 23));
    EXPECT_EQ(r.vecU64(), (std::vector<std::size_t>{1, 2, 3}));
    EXPECT_EQ(r.vecF64(), (std::vector<double>{1.5, -2.25}));
    EXPECT_EQ(r.vecVecU64(),
              (std::vector<std::vector<std::size_t>>{{7}, {}, {8, 9}}));
    EXPECT_EQ(r.vecStr(), (std::vector<std::string>{"a", "", "bc"}));
    EXPECT_TRUE(r.exhausted());
}

TEST_F(CheckpointTest, ByteReaderRejectsTruncation)
{
    checkpoint::ByteWriter w;
    w.vecU64({1, 2, 3, 4});
    w.str("tail");
    const std::vector<std::uint8_t> bytes = w.bytes();
    // Every strict prefix must throw, never over-read.
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
        const std::vector<std::uint8_t> cut(bytes.begin(),
                                            bytes.begin() + keep);
        checkpoint::ByteReader r(cut);
        EXPECT_THROW(
            {
                (void)r.vecU64();
                (void)r.str();
            },
            ConfigError)
            << "prefix of " << keep << " bytes";
    }
}

} // namespace
} // namespace youtiao
