// Fuzz-style robustness of the text-format loaders: truncated and
// garbled chip/design files must produce structured ConfigErrors (or
// parse as a smaller-but-valid file), never crash, hang, or throw
// anything unstructured. Run under ASan/UBSan in CI.

#include <algorithm>
#include <sstream>
#include <string>
#include <typeinfo>

#include <gtest/gtest.h>

#include "chip/chip_io.hpp"
#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"
#include "core/serialization.hpp"
#include "core/youtiao.hpp"
#include "noise/crosstalk_data.hpp"

namespace youtiao {
namespace {

/** Parse a chip from text, the way loadChip reads a file. */
ChipTopology
chipFromString(const std::string &text)
{
    std::istringstream in(text);
    return loadChip(in);
}

ChipTopology
exampleChip()
{
    return makeTopology(TopologyFamily::SquareGrid, 4, 4);
}

std::string
exampleDesignText()
{
    const ChipTopology chip = exampleChip();
    Prng prng(3);
    const ChipCharacterization data = characterizeChip(chip, prng);
    const YoutiaoDesigner designer;
    return designToString(designer.designFromMeasurements(chip, data));
}

/** Loader under test: parse @p text, discard the result. */
template <typename Loader>
void
expectStructuredOutcome(const Loader &load, const std::string &text,
                        const char *what)
{
    try {
        load(text);
    } catch (const ConfigError &) {
        // Structured parse error: exactly what corruption should yield.
    } catch (const std::exception &e) {
        FAIL() << what << ": unstructured exception "
               << typeid(e).name() << ": " << e.what();
    }
}

TEST(RobustnessIo, TruncatedChipFilesNeverCrash)
{
    const std::string text = chipToString(exampleChip());
    for (std::size_t cut = 0; cut <= text.size(); ++cut) {
        expectStructuredOutcome(
            [](const std::string &t) { (void)chipFromString(t); },
            text.substr(0, cut), "truncated chip");
    }
}

TEST(RobustnessIo, TruncatedDesignFilesNeverCrash)
{
    const std::string text = exampleDesignText();
    // Designs are long; cut at every position in the head (where the
    // header and section keys live) and then at a stride through the
    // numeric bulk.
    for (std::size_t cut = 0; cut <= std::min<std::size_t>(400,
                                                           text.size());
         ++cut) {
        expectStructuredOutcome(
            [](const std::string &t) { (void)designFromString(t); },
            text.substr(0, cut), "truncated design");
    }
    for (std::size_t cut = 400; cut < text.size(); cut += 97) {
        expectStructuredOutcome(
            [](const std::string &t) { (void)designFromString(t); },
            text.substr(0, cut), "truncated design");
    }
}

/** Replace @p count characters at seeded random positions. */
std::string
garble(const std::string &text, std::uint64_t seed, std::size_t count)
{
    static const char pool[] =
        "0123456789abcdefghijklmnopqrstuvwxyz .-:#\n";
    Prng prng(seed);
    std::string out = text;
    for (std::size_t i = 0; i < count && !out.empty(); ++i) {
        const std::size_t at = prng.uniformInt(out.size());
        out[at] = pool[prng.uniformInt(sizeof(pool) - 1)];
    }
    return out;
}

TEST(RobustnessIo, GarbledChipFilesNeverCrash)
{
    const std::string text = chipToString(exampleChip());
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        expectStructuredOutcome(
            [](const std::string &t) { (void)chipFromString(t); },
            garble(text, seed, 1 + seed % 8), "garbled chip");
    }
}

TEST(RobustnessIo, GarbledDesignFilesNeverCrash)
{
    const std::string text = exampleDesignText();
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        expectStructuredOutcome(
            [](const std::string &t) { (void)designFromString(t); },
            garble(text, seed, 1 + seed % 16), "garbled design");
    }
}

TEST(RobustnessIo, ImplausibleCountsAreRejectedNotAllocated)
{
    // A garbled group count must not size a container from it.
    EXPECT_THROW(designFromString("youtiao-design 1\n"
                                  "xy.lines 99999999999999 1 0\n"),
                 ConfigError);
    EXPECT_THROW(
        designFromString("youtiao-design 1\n"
                         "xy.lines 1 1 0\n"
                         "xy.line_of_qubit 0\n"
                         "freq.ghz 5.0\n"
                         "freq.zone 0\n"
                         "freq.cell 0\n"
                         "freq.zones 1\n"
                         "z.groups 88888888888888888 1 1 0\n"),
        ConfigError);
    EXPECT_THROW(designFromString("youtiao-design 1\n"
                                  "xy.lines 1 77777777777777 0\n"),
                 ConfigError);
}

TEST(RobustnessIo, ValidFilesStillRoundTrip)
{
    // The hardening must not reject the real format.
    const ChipTopology chip = exampleChip();
    const ChipTopology reloaded = chipFromString(chipToString(chip));
    EXPECT_EQ(reloaded.qubitCount(), chip.qubitCount());
    EXPECT_EQ(reloaded.couplerCount(), chip.couplerCount());

    const std::string design_text = exampleDesignText();
    const YoutiaoDesign reloaded_design = designFromString(design_text);
    EXPECT_EQ(designToString(reloaded_design), design_text);
}

} // namespace
} // namespace youtiao
