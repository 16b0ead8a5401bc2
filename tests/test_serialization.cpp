#include <gtest/gtest.h>

#include <sstream>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "core/serialization.hpp"

namespace youtiao {
namespace {

struct Designed
{
    ChipTopology chip = makeSquareGrid(4, 4);
    YoutiaoConfig config;
    YoutiaoDesign design;

    Designed()
    {
        Prng prng(99);
        const ChipCharacterization data = characterizeChip(chip, prng);
        config.fit.forest.treeCount = 10;
        design = YoutiaoDesigner(config).design(chip, data);
    }
};

const Designed &
designed()
{
    static const Designed d;
    return d;
}

TEST(Serialization, RoundTripPlans)
{
    const YoutiaoDesign loaded =
        designFromString(designToString(designed().design));
    EXPECT_EQ(loaded.xyPlan.lines, designed().design.xyPlan.lines);
    EXPECT_EQ(loaded.xyPlan.lineOfQubit,
              designed().design.xyPlan.lineOfQubit);
    EXPECT_EQ(loaded.zPlan.groupOfDevice,
              designed().design.zPlan.groupOfDevice);
    ASSERT_EQ(loaded.zPlan.groups.size(),
              designed().design.zPlan.groups.size());
    for (std::size_t g = 0; g < loaded.zPlan.groups.size(); ++g) {
        EXPECT_EQ(loaded.zPlan.groups[g].devices,
                  designed().design.zPlan.groups[g].devices);
        EXPECT_EQ(loaded.zPlan.groups[g].fanout,
                  designed().design.zPlan.groups[g].fanout);
    }
    EXPECT_EQ(loaded.readoutPlan.lines,
              designed().design.readoutPlan.lines);
}

TEST(Serialization, RoundTripNumericExact)
{
    const YoutiaoDesign loaded =
        designFromString(designToString(designed().design));
    ASSERT_EQ(loaded.frequencyPlan.frequencyGHz.size(),
              designed().design.frequencyPlan.frequencyGHz.size());
    for (std::size_t q = 0;
         q < loaded.frequencyPlan.frequencyGHz.size(); ++q) {
        EXPECT_DOUBLE_EQ(loaded.frequencyPlan.frequencyGHz[q],
                         designed().design.frequencyPlan.frequencyGHz[q]);
    }
    for (std::size_t i = 0; i < loaded.predictedXy.size(); ++i)
        for (std::size_t j = i; j < loaded.predictedXy.size(); ++j)
            EXPECT_DOUBLE_EQ(loaded.predictedXy(i, j),
                             designed().design.predictedXy(i, j));
    EXPECT_DOUBLE_EQ(loaded.costUsd, designed().design.costUsd);
    EXPECT_EQ(loaded.counts.coax(), designed().design.counts.coax());
    EXPECT_EQ(loaded.counts.dacs(), designed().design.counts.dacs());
}

TEST(Serialization, LoadedPlanStillLegal)
{
    const YoutiaoDesign loaded =
        designFromString(designToString(designed().design));
    EXPECT_TRUE(allGatesRealizable(designed().chip, loaded.zPlan));
}

TEST(Serialization, RejectsWrongVersion)
{
    std::string text = designToString(designed().design);
    text.replace(text.find(" 1\n"), 3, " 9\n");
    EXPECT_THROW(designFromString(text), ConfigError);
}

TEST(Serialization, RejectsGarbage)
{
    EXPECT_THROW(designFromString("not a design"), ConfigError);
    EXPECT_THROW(designFromString(""), ConfigError);
}

TEST(Serialization, RejectsTruncation)
{
    const std::string text = designToString(designed().design);
    const std::string truncated = text.substr(0, text.size() / 2);
    EXPECT_THROW(designFromString(truncated), ConfigError);
}

TEST(Serialization, RejectsInconsistentMaps)
{
    std::string text = designToString(designed().design);
    // Corrupt the xy map: point qubit 0 at a bogus line id.
    const auto pos = text.find("xy.line_of_qubit ");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos + 17, 1, "7");
    EXPECT_THROW(designFromString(text), ConfigError);
}

TEST(Serialization, CommentsAndBlankLinesTolerated)
{
    std::string text = designToString(designed().design);
    text.insert(0, "# saved by youtiao_cli\n\n");
    const YoutiaoDesign loaded = designFromString(text);
    EXPECT_EQ(loaded.xyPlan.lines, designed().design.xyPlan.lines);
}

/** First @p lines lines of @p text (trailing newline included). */
std::string
firstLines(const std::string &text, std::size_t lines)
{
    std::size_t pos = 0;
    for (std::size_t i = 0; i < lines; ++i) {
        pos = text.find('\n', pos);
        if (pos == std::string::npos)
            return text;
        ++pos;
    }
    return text.substr(0, pos);
}

/** Apply @p edit to the (whole) line starting with "@p key ". */
template <typename Edit>
std::string
editLine(const std::string &text, const std::string &key, Edit &&edit)
{
    std::istringstream in(text);
    std::ostringstream out;
    std::string line;
    bool found = false;
    while (std::getline(in, line)) {
        if (!found && line.rfind(key + ' ', 0) == 0) {
            line = edit(line);
            found = true;
        }
        out << line << '\n';
    }
    EXPECT_TRUE(found) << "no line with key " << key;
    return out.str();
}

TEST(Serialization, TruncationAtLineBoundaryReportsEndOfFile)
{
    // Cut after the xy sections: the next expected key is "freq.ghz",
    // and the failure must say the file ended, not that an empty key
    // was found (the old misleading "expected key 'X', found ''").
    const std::string text =
        firstLines(designToString(designed().design), 3);
    try {
        designFromString(text);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unexpected end of design file"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("freq.ghz"), std::string::npos) << what;
    }
}

TEST(Serialization, TruncationToCommentsOnlyReportsEndOfFile)
{
    try {
        designFromString("# a comment\n\n");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("unexpected end of design file"),
                  std::string::npos);
    }
}

TEST(Serialization, RejectsInconsistentReadoutMap)
{
    // Point qubit 0 at the wrong feedline; the group lists no longer
    // agree with the per-qubit map.
    const std::string text = editLine(
        designToString(designed().design), "readout.feedline_of_qubit",
        [](const std::string &line) {
            std::istringstream in(line);
            std::string key;
            std::size_t first = 0;
            in >> key >> first;
            std::ostringstream out;
            out << key << ' ' << first + 1;
            std::size_t v;
            while (in >> v)
                out << ' ' << v;
            return out.str();
        });
    EXPECT_THROW(designFromString(text), ConfigError);
}

/** Drop the last whitespace-separated token of @p line. */
std::string
dropLastToken(const std::string &line)
{
    const std::size_t pos = line.find_last_of(' ');
    return pos == std::string::npos ? line : line.substr(0, pos);
}

TEST(Serialization, RejectsShortZoneMap)
{
    const std::string text =
        editLine(designToString(designed().design), "freq.zone",
                 dropLastToken);
    EXPECT_THROW(designFromString(text), ConfigError);
}

TEST(Serialization, RejectsShortCellMap)
{
    const std::string text =
        editLine(designToString(designed().design), "freq.cell",
                 dropLastToken);
    EXPECT_THROW(designFromString(text), ConfigError);
}

TEST(Serialization, RejectsShortResonatorList)
{
    const std::string text =
        editLine(designToString(designed().design),
                 "readout.resonator_ghz", dropLastToken);
    EXPECT_THROW(designFromString(text), ConfigError);
}

} // namespace
} // namespace youtiao
