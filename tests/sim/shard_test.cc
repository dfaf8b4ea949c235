/**
 * @file
 * TileDomains, the window loop: exceptions from tile and global events
 * reaching the runWindows() caller, and wakes that the global queue
 * schedules onto tiles at its own tick.
 */

#include <gtest/gtest.h>

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

} // namespace

TEST(TileDomains, TileEventErrorReachesCaller)
{
    EventQueue global;
    TileDomains d(global, 4, lookahead);
    bool later = false;
    d.queue().schedule(10, [] { throw std::runtime_error("tile 1"); });
    d.queue().schedule(50, [&later] { later = true; });
    try {
        d.runWindows(nullptr, maxTick);
        FAIL() << "runWindows returned normally";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), "tile 1");
    }
    EXPECT_FALSE(later);
}

TEST(TileDomains, GlobalEventErrorReachesCaller)
{
    EventQueue global;
    TileDomains d(global, 4, lookahead);
    int count = 0;
    for (TileId t = 0; t < 4; ++t)
        d.queue().schedule(5, [&count] { ++count; });
    global.schedule(20, [] { throw std::runtime_error("global"); });
    try {
        d.runWindows(nullptr, maxTick);
        FAIL() << "runWindows returned normally";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), "global");
    }
    EXPECT_EQ(count, 4);
    // The domains stay usable after the error.
    d.queue().schedule(30, [&count] { ++count; });
    EXPECT_EQ(d.runWindows(nullptr, maxTick), TileDomains::Exit::Empty);
    EXPECT_EQ(count, 5);
}

TEST(TileDomains, GlobalWakesRunAtTheirTickInWakeOrder)
{
    // A global event at tick 20 first schedules a keyed event for tile
    // 1, then wakes tiles 1, 0, 1. Unkeyed wakes run at 20 in wake
    // order, ahead of the keyed event at the same tick.
    const Tick g = 20;
    EventQueue global;
    TileDomains d(global, 4, lookahead);
    std::vector<std::pair<std::string, Tick>> log;
    auto note = [&d, &log](const char *what) {
        return [&d, &log, what] {
            log.emplace_back(what, d.queue().curTick());
        };
    };
    d.queue().schedule(3, note("early"));
    global.schedule(g, [&] {
        d.queue().scheduleKeyed(g, d.nextKey(1), note("keyed"));
        d.queue().schedule(global.curTick(), note("wake a"));
        d.queue().schedule(global.curTick(), note("wake b"));
        d.queue().schedule(global.curTick(), note("wake c"));
    });
    EXPECT_EQ(d.runWindows(nullptr, maxTick), TileDomains::Exit::Empty);
    using Log = std::vector<std::pair<std::string, Tick>>;
    EXPECT_EQ(log, (Log{{"early", 3},
                        {"wake a", g},
                        {"wake b", g},
                        {"wake c", g},
                        {"keyed", g}}));
}

TEST(TileDomains, GlobalOpsApplyInWhenThenTileOrder)
{
    // Three tile events in one window post global ops out of order;
    // the ops apply after the window in (when, srcTile) order.
    EventQueue global;
    TileDomains d(global, 4, lookahead);
    std::vector<std::pair<Tick, TileId>> applied;
    auto post = [&d, &applied](TileId t) {
        return [&d, &applied, t] {
            Tick when = d.queue().curTick();
            d.postGlobal(when, t, [&applied, when, t] {
                applied.emplace_back(when, t);
            });
        };
    };
    d.queue().schedule(5, post(2));
    d.queue().schedule(5, post(1));
    d.queue().schedule(6, post(0));
    EXPECT_EQ(d.runWindows(nullptr, maxTick), TileDomains::Exit::Empty);
    using Ops = std::vector<std::pair<Tick, TileId>>;
    EXPECT_EQ(applied, (Ops{{5, 1}, {5, 2}, {6, 0}}));
}
