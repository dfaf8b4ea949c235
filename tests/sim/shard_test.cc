/**
 * @file
 * TileDomains, the quantum-barrier window loop: repeated construct /
 * run / drain / destroy cycles on worker shards, exceptions from shard
 * and global events reaching the runWindows() caller, and wakes that
 * the global queue schedules onto tiles at its own tick.
 */

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/shard.hh"

using namespace sf;
using sim::TileDomains;

namespace {

constexpr Cycles lookahead = 7;

/**
 * Seed one event per tile at @p when. Each handler bumps its tile's
 * counter and, while @p hops remain, schedules the next hop onto the
 * neighbouring tile (another shard) one lookahead later.
 */
void
seedHops(TileDomains &d, std::vector<int> &count, Tick when, int hops)
{
    int n = int(count.size());
    std::function<void(TileId, Tick, int)> hop =
        [&d, &count, &hop, n](TileId t, Tick at, int left) {
            ++count[size_t(t)];
            if (left == 0)
                return;
            TileId next = TileId((t + 1) % n);
            d.scheduleTile(next, at + lookahead, d.nextKey(t),
                           [&hop, next, at, left] {
                               hop(next, at + lookahead, left - 1);
                           });
        };
    for (TileId t = 0; t < n; ++t) {
        d.scheduleTile(t, when, d.nextKey(t),
                       [&hop, t, when, hops] { hop(t, when, hops); });
    }
    // Every pending closure refers to `hop`: run before it goes.
    EXPECT_EQ(d.runWindows(nullptr, maxTick), TileDomains::Exit::Empty);
}

class TileDomainsAtShards : public ::testing::TestWithParam<int>
{};

} // namespace

TEST(TileDomains, LifecycleRoundsAtTwoAndFourShards)
{
    // The run-then-drain pattern of TiledSystem, over and over: a
    // worker that reads a stale flag after the barrier hangs or races.
    for (int shards : {2, 4}) {
        for (int round = 0; round < 200; ++round) {
            EventQueue global;
            TileDomains d(global, 8, shards, lookahead);
            ASSERT_EQ(d.shards(), shards);
            std::vector<int> count(8, 0);
            seedHops(d, count, 1, 3);
            Tick after = global.curTick() + 1;
            seedHops(d, count, after, 2);
            for (int c : count)
                ASSERT_EQ(c, 4 + 3) << "shards " << shards << " round "
                                    << round;
            ASSERT_EQ(d.shardEventsPending(), 0u);
            ASSERT_EQ(d.shardEventsExecuted(), 8u * 7u);
        }
    }
}

TEST_P(TileDomainsAtShards, ShardEventErrorReachesCaller)
{
    EventQueue global;
    TileDomains d(global, 4, GetParam(), lookahead);
    bool later = false;
    // Tile 1 is on a worker shard whenever there is more than one.
    d.scheduleTile(1, 10, 0, [] { throw std::runtime_error("tile 1"); });
    d.scheduleTile(0, 50, 0, [&later] { later = true; });
    try {
        d.runWindows(nullptr, maxTick);
        FAIL() << "runWindows returned normally";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), "tile 1");
    }
    EXPECT_FALSE(later);
}

TEST_P(TileDomainsAtShards, GlobalEventErrorReachesCaller)
{
    EventQueue global;
    TileDomains d(global, 4, GetParam(), lookahead);
    std::vector<int> count(4, 0);
    for (TileId t = 0; t < 4; ++t)
        d.scheduleTile(t, 5, 0, [&count, t] { ++count[size_t(t)]; });
    global.schedule(20, [] { throw std::runtime_error("global"); });
    try {
        d.runWindows(nullptr, maxTick);
        FAIL() << "runWindows returned normally";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), "global");
    }
    EXPECT_EQ(count, std::vector<int>(4, 1));
    // The domains stay usable after the error.
    d.scheduleTile(3, 30, 0, [&count] { ++count[3]; });
    EXPECT_EQ(d.runWindows(nullptr, maxTick), TileDomains::Exit::Empty);
    EXPECT_EQ(count[3], 2);
}

TEST_P(TileDomainsAtShards, GlobalWakesRunAtTheirTickInWakeOrder)
{
    // A global event at tick 20 first schedules a keyed event for tile
    // 1, then wakes tiles 1, 0, 1 (tiles 0 and 1 are on two shards
    // whenever there is more than one). Unkeyed wakes run at 20 in
    // wake order, ahead of the keyed event at the same tick.
    const Tick g = 20;
    EventQueue global;
    TileDomains d(global, 4, GetParam(), lookahead);
    // One log per tile, each written only in its tile's context.
    std::vector<std::vector<std::pair<std::string, Tick>>> log(4);
    auto note = [&d, &log](TileId t, const char *what) {
        return [&d, &log, t, what] {
            log[size_t(t)].emplace_back(what, d.queueOf(t).curTick());
        };
    };
    d.scheduleTile(0, 3, 0, note(0, "early"));
    global.schedule(g, [&] {
        d.scheduleTile(1, g, uint64_t(2) << 40, note(1, "keyed"),
                       EventPriority::Default);
        d.scheduleTile(1, global.curTick(), 0, note(1, "wake a"),
                       EventPriority::Default);
        d.scheduleTile(0, global.curTick(), 0, note(0, "wake b"),
                       EventPriority::Default);
        d.scheduleTile(1, global.curTick(), 0, note(1, "wake c"),
                       EventPriority::Default);
    });
    EXPECT_EQ(d.runWindows(nullptr, maxTick), TileDomains::Exit::Empty);
    using Log = std::vector<std::pair<std::string, Tick>>;
    EXPECT_EQ(log[0], (Log{{"early", 3}, {"wake b", g}}));
    EXPECT_EQ(log[1], (Log{{"wake a", g}, {"wake c", g}, {"keyed", g}}));
}

INSTANTIATE_TEST_SUITE_P(Shards, TileDomainsAtShards,
                         ::testing::Values(1, 2, 4));
