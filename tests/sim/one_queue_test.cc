/**
 * @file
 * One event queue runs the whole system (DESIGN.md §4i): system
 * services are the last events of their tick, errors from any event
 * reach the caller of run(), endAfterCurTick() ends a run after the
 * current tick, and the barrier release calls its waiters inline.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cpu/barrier.hh"
#include "sim/event_queue.hh"

using namespace sf;

namespace {

using Log = std::vector<std::pair<std::string, Tick>>;

/** A handler that appends (@p what, its tick) to @p log. */
EventQueue::Handler
note(EventQueue &eq, Log &log, const char *what)
{
    return [&eq, &log, what] { log.emplace_back(what, eq.curTick()); };
}

} // namespace

TEST(OneQueue, ServiceBandRunsAfterEveryTileEventOfItsTick)
{
    // Services scheduled first still run after every tile event of
    // their tick: Stat bookkeeping, keyed mesh events, and tile events
    // that the tick schedules for itself, even from inside a service.
    const Tick t = 20;
    EventQueue eq;
    Log log;
    eq.schedule(t, note(eq, log, "watch"), EventPriority::Watch);
    eq.schedule(t, note(eq, log, "service"), EventPriority::Service);
    eq.schedule(t, note(eq, log, "stat"), EventPriority::Stat);
    eq.scheduleKeyed(t, 1ull << 40, note(eq, log, "keyed"),
                     EventPriority::Delivery);
    eq.schedule(t, [&] {
        log.emplace_back("tick", eq.curTick());
        eq.schedule(t, note(eq, log, "same-tick"), EventPriority::Stat);
    }, EventPriority::ClockTick);
    eq.run();
    EXPECT_EQ(log, (Log{{"keyed", t},
                        {"tick", t},
                        {"stat", t},
                        {"same-tick", t},
                        {"service", t},
                        {"watch", t}}));
}

TEST(OneQueue, TileEventErrorReachesCaller)
{
    EventQueue eq;
    bool later = false;
    eq.schedule(10, [] { throw std::runtime_error("tile 1"); });
    eq.schedule(50, [&later] { later = true; });
    try {
        eq.run();
        FAIL() << "run returned normally";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), "tile 1");
    }
    EXPECT_FALSE(later);
}

TEST(OneQueue, ServiceEventErrorReachesCaller)
{
    EventQueue eq;
    int count = 0;
    for (TileId t = 0; t < 4; ++t)
        eq.schedule(20, [&count] { ++count; });
    eq.schedule(20, [] { throw std::runtime_error("service"); },
                EventPriority::Watch);
    try {
        eq.run();
        FAIL() << "run returned normally";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), "service");
    }
    EXPECT_EQ(count, 4);
    // The queue stays usable after the error.
    eq.schedule(30, [&count] { ++count; });
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_TRUE(eq.empty());
}

TEST(OneQueue, EndAfterCurTickFinishesTheTickThenReturns)
{
    // The event that ends the run is not the last of its tick: the
    // rest of the tick, the services and what the tick schedules for
    // itself all still run; the next tick does not.
    EventQueue eq;
    Log log;
    eq.schedule(5, [&] {
        log.emplace_back("done", eq.curTick());
        eq.endAfterCurTick();
        eq.schedule(5, note(eq, log, "same-tick"));
    });
    eq.schedule(5, note(eq, log, "peer"), EventPriority::ClockTick);
    eq.schedule(5, note(eq, log, "watch"), EventPriority::Watch);
    eq.schedule(6, note(eq, log, "next"));
    EXPECT_EQ(eq.run(), 5u);
    EXPECT_EQ(eq.curTick(), 5u);
    EXPECT_EQ(log, (Log{{"done", 5},
                        {"same-tick", 5},
                        {"peer", 5},
                        {"watch", 5}}));
    // The next run() starts with a fresh limit.
    EXPECT_EQ(eq.run(), 6u);
    EXPECT_EQ(log.back(), (std::pair<std::string, Tick>{"next", 6}));
}

TEST(OneQueue, BarrierReleaseCallsWaitersInlineInArrivalOrder)
{
    // Three threads: 2 arrives at 3, 0 at 4, and 1's retirement at 9
    // completes the episode. The release runs 32 cycles later, after
    // the tile events of its tick, and calls the waiters inline in
    // arrival order.
    EventQueue eq;
    cpu::BarrierController barrier(eq, 3);
    Log log;
    auto arrive = [&](const char *who) {
        return [&, who] { barrier.arrive(note(eq, log, who)); };
    };
    eq.schedule(3, arrive("wake 2"));
    eq.schedule(4, arrive("wake 0"));
    eq.schedule(9, [&] { barrier.retire(); });
    eq.schedule(41, note(eq, log, "tile"), EventPriority::Stat);
    eq.run();
    EXPECT_EQ(barrier.episodes(), 1u);
    EXPECT_EQ(log, (Log{{"tile", 41}, {"wake 2", 41}, {"wake 0", 41}}));
    // Inline calls: the release was one event, not one per waiter.
    EXPECT_EQ(eq.numExecuted(), 5u);
}
