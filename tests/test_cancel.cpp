/**
 * @file
 * Cooperative-cancellation tests (common/cancel.hpp): token semantics,
 * the structured DesignError surface of the robust entry points and its
 * mapping back onto the throwing ones, a cancellation the hierarchical
 * designer must observe after its tile fan-out, and the clean-run
 * identity -- an armed-but-untripped deadline must not change a single
 * output byte.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chip/topology_builder.hpp"
#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "common/expected.hpp"
#include "core/hierarchical.hpp"
#include "core/serialization.hpp"
#include "core/youtiao.hpp"
#include "test_support.hpp"

namespace youtiao {
namespace {

/** Every test leaves the ambient token disarmed and the checkpoint
 *  journal closed. */
struct CancelTest : ::testing::Test
{
    void SetUp() override { cancel::disarm(); }

    void
    TearDown() override
    {
        cancel::disarm();
        checkpoint::close();
    }
};

TEST_F(CancelTest, PollIsNoOpWhenDisarmed)
{
    EXPECT_FALSE(cancel::armed());
    EXPECT_FALSE(cancel::tripped());
    EXPECT_NO_THROW(cancel::poll("test"));
}

TEST_F(CancelTest, RequestCancelTripsEveryLaterPoll)
{
    cancel::requestCancel("test");
    EXPECT_TRUE(cancel::armed());
    EXPECT_TRUE(cancel::tripped());
    try {
        cancel::poll("test.site");
        FAIL() << "poll() must throw after requestCancel()";
    } catch (const cancel::Cancelled &e) {
        EXPECT_EQ(e.reason(), cancel::Reason::Cancelled);
        EXPECT_EQ(e.where(), "test.site");
        EXPECT_NE(std::string(e.what()).find("test.site"),
                  std::string::npos);
    }
    // The trip latches: the next poll throws too.
    EXPECT_THROW(cancel::poll("again"), cancel::Cancelled);
    cancel::disarm();
    EXPECT_NO_THROW(cancel::poll("after.disarm"));
}

TEST_F(CancelTest, DeadlineTripsAfterExpiry)
{
    cancel::armDeadline(0.01);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    // An armed poll reads the clock directly, so the first poll after
    // expiry must trip; the loop just keeps the assertion robust.
    bool threw = false;
    for (int i = 0; i < 256 && !threw; ++i) {
        try {
            cancel::poll("deadline.test");
        } catch (const cancel::Cancelled &e) {
            EXPECT_EQ(e.reason(), cancel::Reason::DeadlineExceeded);
            threw = true;
        }
    }
    EXPECT_TRUE(threw);
}

TEST_F(CancelTest, GenerousDeadlineNeverTrips)
{
    cancel::ScopedDeadline deadline(3600.0);
    for (int i = 0; i < 1024; ++i)
        EXPECT_NO_THROW(cancel::poll("generous"));
}

TEST_F(CancelTest, RobustDesignSurfacesStructuredCancellation)
{
    const ChipTopology chip = makeSquareGrid(4, 4);
    Prng prng(7);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 8;
    const YoutiaoDesigner designer(config);

    // A pre-tripped token must come back as a DesignError with a
    // cancellation code -- not be swallowed by the degradation ladder
    // into a Failed retry.
    cancel::requestCancel("test");
    const Expected<YoutiaoDesign, DesignError> result =
        designer.designRobust(chip, data);
    ASSERT_FALSE(result.hasValue());
    EXPECT_TRUE(result.error().isCancellation());
    EXPECT_EQ(result.error().code, DesignErrorCode::Cancelled);
    // The characterization fit (two models, each 11 weights x 5 folds
    // plus a final forest) runs before the designer's first stage, and
    // every forest fit polls: the fit itself observes the token.
    EXPECT_EQ(result.error().context,
              std::vector<std::string>{"where=noise.forest_fit"});
}

TEST_F(CancelTest, ThrowingDesignRethrowsTheCancellationReason)
{
    const ChipTopology chip = makeSquareGrid(4, 4);
    Prng prng(7);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 8;
    const YoutiaoDesigner designer(config);

    // The throwing wrappers turn the structured cancellation back into
    // the cancel::Cancelled the throwing API raises, reason intact.
    cancel::requestCancel("test");
    try {
        (void)designer.design(chip, data);
        FAIL() << "a tripped token must abort design()";
    } catch (const cancel::Cancelled &e) {
        EXPECT_EQ(e.reason(), cancel::Reason::Cancelled);
    }

    cancel::armDeadline(1e-6);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    try {
        (void)designer.designFromMeasurements(chip, data);
        FAIL() << "an expired deadline must abort designFromMeasurements()";
    } catch (const cancel::Cancelled &e) {
        EXPECT_EQ(e.reason(), cancel::Reason::DeadlineExceeded);
    }
}

TEST_F(CancelTest, HierarchicalCancellationAfterTileFanOutIsObserved)
{
    // Deterministic trigger for the tail after the per-tile polls:
    // journal a 4-tile run, then resume it with the token already
    // tripped. Every tile replays its snapshot without polling, so only
    // the merge barrier and the seam stitch can observe the
    // cancellation -- and one of them must.
    const ChipTopology chip = makeSquareGrid(8, 8);
    YoutiaoConfig config;
    config.seed = 7;
    HierarchicalConfig hier;
    hier.tileSizeQubits = 16;
    const HierarchicalDesigner designer(config, hier);
    const TestDir journal;
    const std::map<std::string, std::string> hashes{{"chip", "8x8"}};

    checkpoint::open(journal.path(), "test_cancel", hashes, false);
    const Expected<HierarchicalDesign, DesignError> journaled =
        designer.designSynthesizedRobust(chip);
    checkpoint::close();
    ASSERT_TRUE(journaled.hasValue());
    ASSERT_EQ(journaled.value().tiles.size(), 4u);

    checkpoint::open(journal.path(), "test_cancel", hashes, true);
    cancel::requestCancel("test");
    DegradationReport partial;
    const Expected<HierarchicalDesign, DesignError> resumed =
        designer.designSynthesizedRobust(chip, 0.6, &partial);
    checkpoint::close();

    ASSERT_FALSE(resumed.hasValue());
    EXPECT_EQ(resumed.error().code, DesignErrorCode::Cancelled);
    ASSERT_EQ(partial.notes.size(), 1u);
    EXPECT_EQ(partial.notes[0], "cancelled after 4 of 4 tiles designed");
}

TEST_F(CancelTest, ArmedCleanRunIsByteIdentical)
{
    // Arming a deadline that never trips must not perturb the output:
    // the poll fast path is a load + branch, nothing else.
    const ChipTopology chip = makeSquareGrid(5, 5);
    Prng prng(11);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 8;
    const YoutiaoDesigner designer(config);

    const YoutiaoDesign plain = designer.design(chip, data);
    std::ostringstream plain_text;
    saveDesign(plain_text, plain);

    std::ostringstream armed_text;
    {
        cancel::ScopedDeadline deadline(3600.0);
        const YoutiaoDesign armed = designer.design(chip, data);
        saveDesign(armed_text, armed);
    }
    EXPECT_EQ(plain_text.str(), armed_text.str());
}

} // namespace
} // namespace youtiao
