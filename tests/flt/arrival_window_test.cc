/**
 * @file
 * SE_L2 arrival window: randomized differential test of the bitset
 * frontier against the unsorted-list algorithm it replaced (kept here
 * as the reference), plus directed cases for duplicates, arrivals
 * below the frontier, gaps wider than a word and runs that cross word
 * boundaries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "flt/arrival_window.hh"
#include "sim/rng.hh"

using namespace sf;
using sf::flt::ArrivalWindow;

namespace {

/** The original algorithm: frontier plus an unsorted list of the
 *  elements received beyond it, rescanned on every in-order arrival. */
struct ListWindow
{
    uint64_t next = 0;
    std::vector<uint64_t> outOfOrder;

    void
    arrive(uint64_t first, uint16_t count)
    {
        for (uint16_t i = 0; i < count; ++i) {
            uint64_t idx = first + i;
            if (idx < next)
                continue;
            if (idx == next) {
                ++next;
                bool advanced = true;
                while (advanced) {
                    advanced = false;
                    for (size_t k = 0; k < outOfOrder.size(); ++k) {
                        if (outOfOrder[k] == next) {
                            ++next;
                            outOfOrder[k] = outOfOrder.back();
                            outOfOrder.pop_back();
                            advanced = true;
                            break;
                        }
                    }
                }
            } else if (std::find(outOfOrder.begin(), outOfOrder.end(),
                                 idx) == outOfOrder.end()) {
                outOfOrder.push_back(idx);
            }
        }
    }
};

void
expectSame(const ArrivalWindow &w, const ListWindow &ref)
{
    ASSERT_EQ(w.next(), ref.next);
    ASSERT_EQ(w.buffered(), ref.outOfOrder.size());
}

} // namespace

TEST(ArrivalWindow, InOrderArrivalsAdvanceTheFrontier)
{
    ArrivalWindow w;
    w.reset(10);
    w.arrive(10, 4);
    EXPECT_EQ(w.next(), 14u);
    w.arrive(12, 4); // overlaps the received prefix
    EXPECT_EQ(w.next(), 16u);
    EXPECT_EQ(w.buffered(), 0u);
}

TEST(ArrivalWindow, BelowFrontierAndDuplicatesAreIgnored)
{
    ArrivalWindow w;
    w.reset(100);
    w.arrive(90, 5); // entirely below the start
    EXPECT_EQ(w.next(), 100u);
    w.arrive(105, 1);
    w.arrive(105, 1);
    EXPECT_EQ(w.buffered(), 1u);
    w.arrive(100, 5);
    EXPECT_EQ(w.next(), 106u);
    EXPECT_EQ(w.buffered(), 0u);
}

TEST(ArrivalWindow, GapWiderThanAWordIsFilledInOneRun)
{
    ArrivalWindow w;
    w.reset(3);
    // Everything in [4, 300) arrives before element 3.
    for (uint64_t i = 299; i >= 4; --i)
        w.arrive(i, 1);
    EXPECT_EQ(w.next(), 3u);
    EXPECT_EQ(w.buffered(), 296u);
    w.arrive(3, 1);
    EXPECT_EQ(w.next(), 300u);
    EXPECT_EQ(w.buffered(), 0u);
}

TEST(ArrivalWindow, RunsCrossWordBoundaries)
{
    ArrivalWindow w;
    w.reset(60);
    w.arrive(62, 10);  // [62, 72) straddles the first word's end
    w.arrive(200, 3);  // far ahead, beyond an all-empty word
    w.arrive(61, 1);
    EXPECT_EQ(w.next(), 60u);
    w.arrive(60, 1);
    EXPECT_EQ(w.next(), 72u);
    EXPECT_EQ(w.buffered(), 3u);
    w.arrive(72, 128); // [72, 200) joins the far run
    EXPECT_EQ(w.next(), 203u);
    EXPECT_EQ(w.buffered(), 0u);
}

TEST(ArrivalWindow, RandomizedMatchesTheListReference)
{
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed);
        uint64_t start = rng.range(200);
        ArrivalWindow w;
        w.reset(start);
        ListWindow ref;
        ref.next = start;
        // Messages of 1-16 elements; most land near the frontier, some
        // far ahead (gaps > 64), some below it (stale duplicates).
        for (int step = 0; step < 3000; ++step) {
            uint64_t spread = rng.range(10) == 0 ? 400 : 40;
            uint64_t lo = ref.next > 20 ? ref.next - 20 : 0;
            uint64_t first = lo + rng.range(spread);
            auto count = static_cast<uint16_t>(1 + rng.range(16));
            w.arrive(first, count);
            ref.arrive(first, count);
            expectSame(w, ref);
            if (HasFatalFailure()) {
                ADD_FAILURE() << "seed " << seed << " step " << step;
                return;
            }
        }
    }
}
