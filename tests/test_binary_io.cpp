/**
 * @file
 * Binary chip/design format tests: round-trips, text/binary design
 * identity, and hostile-input hardening (truncation, garbling, wrong
 * magic, future schema versions) for the binfmt section-file framework
 * and both formats built on it. Every malformed image must raise
 * ConfigError -- never crash, never allocate from a corrupt count.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "chip/chip_bin.hpp"
#include "chip/chip_io.hpp"
#include "chip/topology_builder.hpp"
#include "common/atomic_io.hpp"
#include "common/binfmt.hpp"
#include "common/error.hpp"
#include "core/design_bin.hpp"
#include "core/serialization.hpp"
#include "core/youtiao.hpp"
#include "test_support.hpp"

namespace youtiao {
namespace {

ChipTopology
sampleChip()
{
    return makeSquareGrid(4, 4);
}

YoutiaoDesign
sampleDesign(const ChipTopology &chip)
{
    Prng prng(7);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 8;
    return YoutiaoDesigner(config).design(chip, data);
}

/** Write @p image to a file of the test's own and run @p fn on its
 *  path. */
template <typename Fn>
void
withTempFile(const std::vector<unsigned char> &image, Fn &&fn)
{
    const TestDir scratch;
    const std::string path = scratch.file("image.bin");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(image.data()),
                  static_cast<std::streamsize>(image.size()));
    }
    fn(path);
}

TEST(BinFmt, WriterReaderRoundTrip)
{
    const std::vector<double> doubles{1.5, -2.25, 3.125};
    const std::vector<std::uint32_t> ints{7, 11};
    binfmt::Writer writer("YTTESTBN", 1);
    writer.addF64("doubles", doubles);
    writer.addU32("ints", ints);
    const std::vector<unsigned char> image = writer.toBytes();

    const binfmt::Reader reader(image, "YTTESTBN", 1, "test");
    EXPECT_EQ(reader.schemaVersion(), 1u);
    EXPECT_EQ(reader.sectionCount(), 2u);
    const auto d = reader.f64("doubles");
    ASSERT_EQ(d.size(), 3u);
    EXPECT_EQ(d[1], -2.25);
    const auto u = reader.u32("ints");
    ASSERT_EQ(u.size(), 2u);
    EXPECT_EQ(u[0], 7u);
    EXPECT_THROW((void)reader.f64("ints"), ConfigError);
    EXPECT_THROW((void)reader.u64("missing"), ConfigError);
}

TEST(BinFmt, PayloadsAreAligned)
{
    binfmt::Writer writer("YTTESTBN", 1);
    const std::vector<char> one{'x'};
    writer.addBytes("pad", one);
    const std::vector<double> doubles{4.0};
    writer.addF64("doubles", doubles);
    const std::vector<unsigned char> image = writer.toBytes();
    const binfmt::Reader reader(image, "YTTESTBN", 1, "test");
    const auto d = reader.f64("doubles");
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) %
                  sizeof(double),
              0u);
}

TEST(BinFmt, RejectsTruncation)
{
    binfmt::Writer writer("YTTESTBN", 1);
    const std::vector<double> doubles{1.0, 2.0};
    writer.addF64("doubles", doubles);
    const std::vector<unsigned char> image = writer.toBytes();
    // Every strict prefix must fail cleanly.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{4}, std::size_t{63},
          binfmt::kHeaderBytes, image.size() - 1}) {
        const std::vector<unsigned char> cut(image.begin(),
                                             image.begin() + keep);
        EXPECT_THROW(binfmt::Reader(cut, "YTTESTBN", 1, "test"),
                     ConfigError)
            << "prefix of " << keep << " bytes";
    }
}

TEST(BinFmt, RejectsWrongMagicAndFutureVersion)
{
    binfmt::Writer writer("YTTESTBN", 1);
    const std::vector<unsigned char> image = writer.toBytes();
    EXPECT_THROW(binfmt::Reader(image, "YTOTHERB", 1, "test"),
                 ConfigError);
    std::vector<unsigned char> future = image;
    const std::uint32_t v2 = 2;
    std::memcpy(future.data() + 8, &v2, sizeof v2);
    EXPECT_THROW(binfmt::Reader(future, "YTTESTBN", 1, "test"),
                 ConfigError);
    // A reader that accepts up to version 2 takes it (migration path).
    EXPECT_NO_THROW(binfmt::Reader(future, "YTTESTBN", 2, "test"));
}

TEST(BinFmt, RejectsGarbledSectionTable)
{
    binfmt::Writer writer("YTTESTBN", 1);
    const std::vector<double> doubles{1.0, 2.0, 3.0};
    writer.addF64("doubles", doubles);
    const std::vector<unsigned char> base = writer.toBytes();

    // Section count inflated far past the table.
    {
        std::vector<unsigned char> bad = base;
        const std::uint32_t n = 1000;
        std::memcpy(bad.data() + 12, &n, sizeof n);
        EXPECT_THROW(binfmt::Reader(bad, "YTTESTBN", 1, "test"),
                     ConfigError);
    }
    // Declared file size disagrees with reality.
    {
        std::vector<unsigned char> bad = base;
        const std::uint64_t size = base.size() + 64;
        std::memcpy(bad.data() + 16, &size, sizeof size);
        EXPECT_THROW(binfmt::Reader(bad, "YTTESTBN", 1, "test"),
                     ConfigError);
    }
    // Element count overflowing the payload bounds (would multiply to
    // a huge allocation if unchecked).
    {
        std::vector<unsigned char> bad = base;
        const std::uint64_t count = ~std::uint64_t{0} / 2;
        std::memcpy(bad.data() + binfmt::kHeaderBytes +
                        binfmt::kSectionNameBytes + 12,
                    &count, sizeof count);
        EXPECT_THROW(binfmt::Reader(bad, "YTTESTBN", 1, "test"),
                     ConfigError);
    }
    // Misaligned payload offset.
    {
        std::vector<unsigned char> bad = base;
        const std::uint64_t offset = 65;
        std::memcpy(bad.data() + binfmt::kHeaderBytes +
                        binfmt::kSectionNameBytes + 4,
                    &offset, sizeof offset);
        EXPECT_THROW(binfmt::Reader(bad, "YTTESTBN", 1, "test"),
                     ConfigError);
    }
}

TEST(ChipBinary, RoundTripsExactly)
{
    const ChipTopology chip = sampleChip();
    const std::vector<unsigned char> image = chipToBinary(chip);
    const ChipTopology loaded =
        chipFromBinary(image.data(), image.size());
    // Canonical text render is the chip's identity: positions,
    // frequencies, T1s and couplers must survive bit-exactly.
    EXPECT_EQ(chipToString(loaded), chipToString(chip));
    EXPECT_EQ(loaded.name(), chip.name());
    EXPECT_EQ(loaded.couplerCount(), chip.couplerCount());
    for (std::size_t c = 0; c < chip.couplerCount(); ++c) {
        EXPECT_EQ(loaded.coupler(c).position.x,
                  chip.coupler(c).position.x);
        EXPECT_EQ(loaded.coupler(c).position.y,
                  chip.coupler(c).position.y);
    }
}

TEST(ChipBinary, LoadAutoSniffsBothFormats)
{
    const ChipTopology chip = sampleChip();
    withTempFile(chipToBinary(chip), [&](const std::string &path) {
        const ChipTopology loaded = loadChipAuto(path);
        EXPECT_EQ(chipToString(loaded), chipToString(chip));
    });
    const std::string text = chipToString(chip);
    withTempFile({text.begin(), text.end()},
                 [&](const std::string &path) {
                     const ChipTopology loaded = loadChipAuto(path);
                     EXPECT_EQ(chipToString(loaded), chipToString(chip));
                 });
}

TEST(ChipBinary, RejectsHostileImages)
{
    const ChipTopology chip = sampleChip();
    const std::vector<unsigned char> image = chipToBinary(chip);

    // Truncations at several depths.
    for (const std::size_t keep :
         {std::size_t{7}, binfmt::kHeaderBytes, image.size() / 2}) {
        EXPECT_THROW((void)chipFromBinary(image.data(), keep),
                     ConfigError);
    }
    // Wrong magic.
    {
        std::vector<unsigned char> bad = image;
        bad[0] = 'X';
        EXPECT_THROW((void)chipFromBinary(bad.data(), bad.size()),
                     ConfigError);
    }
    // Future schema version.
    {
        std::vector<unsigned char> bad = image;
        const std::uint32_t v = kChipBinVersion + 1;
        std::memcpy(bad.data() + 8, &v, sizeof v);
        EXPECT_THROW((void)chipFromBinary(bad.data(), bad.size()),
                     ConfigError);
    }
    // Garbled coupler endpoint: point a coupler at a qubit index past
    // the end.
    {
        binfmt::Writer writer(kChipBinMagic, kChipBinVersion);
        const std::string name = "bad";
        writer.addBytes("name", {name.data(), name.size()});
        const std::vector<double> pos{0.0, 1.0};
        const std::vector<double> freq{5.0, 5.1};
        const std::vector<double> t1{9e4, 9e4};
        writer.addF64("qubit_x", pos);
        writer.addF64("qubit_y", pos);
        writer.addF64("qubit_freq", freq);
        writer.addF64("qubit_t1", t1);
        const std::vector<std::uint32_t> a{0};
        const std::vector<std::uint32_t> b{9};
        const std::vector<double> cpos{0.5};
        writer.addU32("coupler_a", a);
        writer.addU32("coupler_b", b);
        writer.addF64("coupler_x", cpos);
        writer.addF64("coupler_y", cpos);
        const std::vector<unsigned char> bad = writer.toBytes();
        EXPECT_THROW((void)chipFromBinary(bad.data(), bad.size()),
                     ConfigError);
    }
}

TEST(ChipBinary, RejectsNonFiniteValues)
{
    // A NaN or infinite position poisons every distance (0 * inf is
    // NaN), and an infinite frequency or T1 passes a "> 0" check. Every
    // double section must refuse all three values and name itself.
    const std::vector<unsigned char> image = chipToBinary(sampleChip());
    const binfmt::Reader reader(image, kChipBinMagic, kChipBinVersion,
                                "chip binary");
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (const char *section : {"qubit_x", "qubit_y", "qubit_freq",
                                "qubit_t1", "coupler_x", "coupler_y"}) {
        // Overwrite the section's second value in place.
        const std::size_t at =
            static_cast<std::size_t>(
                reinterpret_cast<const unsigned char *>(
                    reader.f64(section).data()) -
                image.data()) +
            sizeof(double);
        for (const double value :
             {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
            std::vector<unsigned char> bad = image;
            std::memcpy(bad.data() + at, &value, sizeof value);
            try {
                (void)chipFromBinary(bad.data(), bad.size());
                ADD_FAILURE() << section << " accepted " << value;
            } catch (const ConfigError &e) {
                EXPECT_NE(std::string(e.what()).find(section),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(ChipBinary, SaveReplacesTheFileAtomically)
{
    // A reader holding the old file mapped keeps a valid mapping: the
    // save renames a new file over the path instead of truncating and
    // rewriting the mapped one in place.
    const TestDir dir;
    const std::string path = dir.file("chip.bin");
    const ChipTopology chip_a = sampleChip();
    const ChipTopology chip_b = makeHexagon();
    saveChipBinary(path, chip_a);
    const binfmt::MappedFile old_file(path);
    struct stat before{};
    ASSERT_EQ(::stat(path.c_str(), &before), 0);

    saveChipBinary(path, chip_b);
    struct stat after{};
    ASSERT_EQ(::stat(path.c_str(), &after), 0);
    ASSERT_NE(before.st_ino, after.st_ino);
    for (const auto &entry : std::filesystem::directory_iterator(dir.path()))
        EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                  std::string::npos)
            << entry.path();
    EXPECT_EQ(chipToString(chipFromBinary(old_file.data(),
                                          old_file.size())),
              chipToString(chip_a));
    EXPECT_EQ(chipToString(loadChipBinary(path)), chipToString(chip_b));
}

TEST(DesignBinary, RoundTripsAndMatchesText)
{
    const ChipTopology chip = sampleChip();
    const YoutiaoDesign design = sampleDesign(chip);
    const std::vector<unsigned char> image = designToBinary(design);
    const YoutiaoDesign loaded =
        designFromBinary(image.data(), image.size());
    // The binary round-trip must agree with the text format's view of
    // the design, byte for byte -- both loaders reconstruct the same
    // object.
    EXPECT_EQ(designToString(loaded), designToString(design));
}

TEST(DesignBinary, SaveLoadFile)
{
    const ChipTopology chip = sampleChip();
    const YoutiaoDesign design = sampleDesign(chip);
    const TestDir scratch;
    const std::string path = scratch.file("design.bin");
    const std::vector<unsigned char> image = designToBinary(design);
    io::atomicWriteFile(path, image.data(), image.size());
    const YoutiaoDesign loaded = loadDesignBinary(path);
    EXPECT_EQ(designToString(loaded), designToString(design));
}

TEST(DesignBinary, RejectsHostileImages)
{
    const ChipTopology chip = sampleChip();
    const YoutiaoDesign design = sampleDesign(chip);
    const std::vector<unsigned char> image = designToBinary(design);

    for (const std::size_t keep :
         {std::size_t{3}, binfmt::kHeaderBytes, image.size() - 7}) {
        EXPECT_THROW((void)designFromBinary(image.data(), keep),
                     ConfigError);
    }
    {
        std::vector<unsigned char> bad = image;
        bad[2] = '?';
        EXPECT_THROW((void)designFromBinary(bad.data(), bad.size()),
                     ConfigError);
    }
    {
        std::vector<unsigned char> bad = image;
        const std::uint32_t v = kDesignBinVersion + 3;
        std::memcpy(bad.data() + 8, &v, sizeof v);
        EXPECT_THROW((void)designFromBinary(bad.data(), bad.size()),
                     ConfigError);
    }
    // Flip every byte of the payload region one at a time on a stride:
    // loads either succeed (the flipped byte was a don't-care double
    // bit) or raise ConfigError; they must never crash. validateDesign
    // catches structural lies.
    for (std::size_t at = binfmt::kHeaderBytes; at < image.size();
         at += 97) {
        std::vector<unsigned char> bad = image;
        bad[at] ^= 0xFF;
        try {
            (void)designFromBinary(bad.data(), bad.size());
        } catch (const ConfigError &) {
            // expected for structural bytes
        }
    }
}

TEST(BinFmt, ChecksumTrailerRoundTrips)
{
    binfmt::Writer writer("YTTESTBN", 1);
    const std::vector<double> doubles{1.5, -2.25};
    writer.addF64("doubles", doubles);
    writer.enableChecksum();
    const std::vector<unsigned char> image = writer.toBytes();

    const binfmt::Reader reader(image, "YTTESTBN", 1, "test");
    EXPECT_TRUE(reader.checksummed());
    const auto d = reader.f64("doubles");
    ASSERT_EQ(d.size(), 2u);
    EXPECT_EQ(d[0], 1.5);
    // An image without the trailer still loads, just unchecked.
    binfmt::Writer plain("YTTESTBN", 1);
    plain.addF64("doubles", doubles);
    const std::vector<unsigned char> plain_image = plain.toBytes();
    EXPECT_LT(plain_image.size(), image.size());
    EXPECT_FALSE(
        binfmt::Reader(plain_image, "YTTESTBN", 1, "test")
            .checksummed());
}

TEST(BinFmt, ChecksumTrailerCatchesEveryFlippedByte)
{
    binfmt::Writer writer("YTTESTBN", 1);
    const std::vector<double> doubles{3.0, 4.0, 5.0};
    writer.addF64("doubles", doubles);
    writer.enableChecksum();
    const std::vector<unsigned char> image = writer.toBytes();
    // Unlike the unchecksummed hostile-input sweep above, a flip
    // anywhere in a checksummed image -- header, section table,
    // payload, trailer magic or hash -- must raise ConfigError: the
    // only don't-care bytes left are the trailer's 48 zero-padding
    // bytes at the very end.
    const std::size_t checked =
        image.size() - (binfmt::kTrailerBytes - 16);
    for (std::size_t at = 0; at < checked; ++at) {
        std::vector<unsigned char> bad = image;
        bad[at] ^= 0x40;
        EXPECT_THROW(binfmt::Reader(bad, "YTTESTBN", 1, "test"),
                     ConfigError)
            << "flipped byte " << at;
    }
}

TEST(BinFmt, ChecksumTrailerRejectsTruncation)
{
    binfmt::Writer writer("YTTESTBN", 1);
    const std::vector<std::uint32_t> ints{9, 10, 11};
    writer.addU32("ints", ints);
    writer.enableChecksum();
    const std::vector<unsigned char> image = writer.toBytes();
    for (std::size_t drop = 1; drop <= binfmt::kTrailerBytes + 1;
         ++drop) {
        const std::vector<unsigned char> cut(
            image.begin(), image.end() - static_cast<long>(drop));
        EXPECT_THROW(binfmt::Reader(cut, "YTTESTBN", 1, "test"),
                     ConfigError)
            << "dropped " << drop << " bytes";
    }
}

} // namespace
} // namespace youtiao
