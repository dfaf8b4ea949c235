/** @file Unit tests for the deterministic event queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

using namespace sf;

// Event nodes come only from the queue's own slab arena. The node type
// is private, so no code outside the queue can name it, let alone
// `new` one; this fails to compile if it ever becomes public.
template <class Q>
concept ExposesEventNode = requires { typename Q::Event; };
static_assert(!ExposesEventNode<sf::EventQueue>);

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.numPending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&]() { order.push_back(2); },
                EventPriority::ClockTick);
    eq.schedule(5, [&]() { order.push_back(0); },
                EventPriority::Delivery);
    eq.schedule(5, [&]() { order.push_back(1); },
                EventPriority::Delivery);
    eq.schedule(5, [&]() { order.push_back(3); }, EventPriority::Stat);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&]() {
        eq.scheduleIn(5, [&]() { seen = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(seen, 105u);
}

TEST(EventQueue, RunWithLimitStopsEarly)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&]() { ++count; });
    eq.schedule(20, [&]() { ++count; });
    eq.schedule(30, [&]() { ++count; });
    eq.run(20);
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(1, [&]() { ++count; });
    eq.schedule(2, [&]() { ++count; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 50)
            eq.scheduleIn(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 50);
    EXPECT_EQ(eq.curTick(), 49u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    eq.run();
    EXPECT_THROW(eq.schedule(5, []() {}), PanicError);
}

TEST(EventQueue, NumExecutedCounts)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(static_cast<Tick>(i), []() {});
    eq.run();
    EXPECT_EQ(eq.numExecuted(), 7u);
}

// --- two-level kernel: calendar wheel / far-heap interaction ---

/** Delays straddling the wheel horizon still execute in time order. */
TEST(EventQueue, WheelFarBoundaryKeepsTimeOrder)
{
    EventQueue eq;
    std::vector<Tick> order;
    auto note = [&]() { order.push_back(eq.curTick()); };
    // Around the horizon: last wheel bucket, first far tick, and both
    // neighbours, scheduled out of order.
    const Tick h = EventQueue::wheelBuckets;
    for (Tick t : {h + 1, h - 1, h, h + 7, Tick(1), h - 2})
        eq.schedule(t, note);
    eq.run();
    EXPECT_EQ(order,
              (std::vector<Tick>{1, h - 2, h - 1, h, h + 1, h + 7}));
}

/**
 * The same tick can be queued in the wheel AND the far heap at once
 * (a far-scheduled event whose tick later re-enters the wheel window):
 * both must drain at that tick in (priority, insertion) order.
 */
TEST(EventQueue, SameTickInWheelAndFarHeap)
{
    EventQueue eq;
    const Tick target = EventQueue::wheelBuckets + 2000;
    std::vector<int> order;
    // Beyond the horizon at schedule time: goes to the far heap.
    eq.schedule(target, [&]() { order.push_back(0); });
    // By tick 5000 the target is inside the wheel window, so this
    // second event for the same tick lands in a wheel bucket.
    eq.schedule(5000, [&]() {
        eq.schedule(target, [&]() { order.push_back(1); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.curTick(), target);
}

/** Far-future events many wheel revolutions out stay ordered. */
TEST(EventQueue, FarEventsAcrossManyWheelTurns)
{
    EventQueue eq;
    std::vector<Tick> order;
    auto note = [&]() { order.push_back(eq.curTick()); };
    const Tick h = EventQueue::wheelBuckets;
    std::vector<Tick> when = {7 * h + 3, 2 * h, 5 * h + 1, h / 2};
    for (Tick t : when)
        eq.schedule(t, note);
    eq.run();
    std::sort(when.begin(), when.end());
    EXPECT_EQ(order, when);
}

// --- slab arena ---

/**
 * A million schedule/execute cycles must recycle nodes instead of
 * growing the arena: with a handful of events in flight the arena
 * never needs more than its first slab.
 */
TEST(EventQueue, ArenaReusesNodesOverMillionEvents)
{
    EventQueue eq;
    uint64_t remaining = 1'000'000;
    std::function<void()> tick = [&]() {
        if (--remaining > 0)
            eq.scheduleIn(1, tick);
    };
    eq.schedule(1, tick);
    eq.run();
    EXPECT_EQ(remaining, 0u);
    EXPECT_EQ(eq.numExecuted(), 1'000'000u);
    EXPECT_LE(eq.arenaCapacity(), 512u);
    EXPECT_EQ(eq.arenaInUse(), 0u);
}

/**
 * Start/stop churn recycles the stopped nodes through the free list:
 * run(0) executes nothing but pops the dead node at the queue head.
 */
TEST(EventQueue, ArenaReusesCancelledNodes)
{
    EventQueue eq;
    RecurringEvent rec(eq);
    for (int round = 0; round < 100'000; ++round) {
        rec.start(Cycles(round % 100 + 10), []() {});
        rec.stop();
        eq.run(0);
    }
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.arenaInUse(), 0u);
    EXPECT_LE(eq.arenaCapacity(), 512u);
    eq.run();
    EXPECT_EQ(eq.numExecuted(), 0u);
    EXPECT_EQ(eq.curTick(), 0u);
}

/** A stopped node beyond run(limit) is still popped and recycled. */
TEST(EventQueue, CancelledEventsDiscardedBeyondRunLimit)
{
    EventQueue eq;
    RecurringEvent rec(eq);
    rec.start(100, []() {});
    rec.stop();
    eq.run(50);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.arenaInUse(), 0u);
    EXPECT_EQ(eq.curTick(), 0u);
}

// --- recurring events ---

TEST(RecurringEvent, FiresEveryPeriodUntilStopped)
{
    EventQueue eq;
    RecurringEvent rec(eq);
    std::vector<Tick> fired;
    rec.start(10, [&]() {
        fired.push_back(eq.curTick());
        if (fired.size() == 4)
            rec.stop();
    });
    EXPECT_TRUE(rec.running());
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20, 30, 40}));
    EXPECT_FALSE(rec.running());
    EXPECT_TRUE(eq.empty());
}

TEST(RecurringEvent, FirstDelayOverridesFirstPeriod)
{
    EventQueue eq;
    RecurringEvent rec(eq);
    std::vector<Tick> fired;
    rec.start(100, [&]() {
        fired.push_back(eq.curTick());
        if (fired.size() == 2)
            rec.stop();
    }, EventPriority::Default, /*firstDelay=*/3);
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{3, 103}));
}

/** stop() while queued cancels in place and empties the queue. */
TEST(RecurringEvent, StopWhileQueuedCancelsCleanly)
{
    EventQueue eq;
    RecurringEvent rec(eq);
    int fired = 0;
    rec.start(10, [&]() { ++fired; });
    EXPECT_EQ(eq.numPending(), 1u);
    rec.stop();
    EXPECT_TRUE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.curTick(), 0u);
}

TEST(RecurringEvent, RestartAfterStop)
{
    EventQueue eq;
    RecurringEvent rec(eq);
    std::vector<Tick> fired;
    rec.start(5, [&]() {
        fired.push_back(eq.curTick());
        rec.stop();
    });
    eq.run();
    rec.start(7, [&]() {
        fired.push_back(eq.curTick());
        rec.stop();
    });
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{5, 12}));
}

/** Same-tick ordering applies to recurring firings too. */
TEST(RecurringEvent, HonorsPriorityAgainstOneShots)
{
    EventQueue eq;
    RecurringEvent rec(eq);
    std::vector<int> order;
    rec.start(10, [&]() {
        order.push_back(1);
        rec.stop();
    }, EventPriority::ClockTick);
    eq.schedule(10, [&]() { order.push_back(0); },
                EventPriority::Delivery);
    eq.schedule(10, [&]() { order.push_back(2); }, EventPriority::Stat);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

/** A destructor while queued must not leave a pending count behind. */
TEST(RecurringEvent, DestructorCancelsQueuedFiring)
{
    EventQueue eq;
    int fired = 0;
    {
        RecurringEvent rec(eq);
        rec.start(10, [&]() { ++fired; });
    }
    EXPECT_TRUE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 0);
}

/** Determinism: two identical schedules produce identical traces. */
TEST(EventQueue, DeterministicAcrossInstances)
{
    auto trace = []() {
        EventQueue eq;
        std::vector<Tick> t;
        for (int i = 0; i < 100; ++i) {
            eq.schedule(static_cast<Tick>((i * 37) % 50),
                        [&t, &eq]() { t.push_back(eq.curTick()); });
        }
        eq.run();
        return t;
    };
    EXPECT_EQ(trace(), trace());
}

// --- differential ordering against a reference queue ---

namespace {

/**
 * Obviously-correct reference: one ordered map keyed by the full
 * (when, priority, key, sequence) tuple. Same API subset as
 * EventQueue, same id assignment (one sequence number per schedule).
 */
class RefQueue
{
  public:
    using Handler = std::function<void()>;
    using EventId = uint64_t;

    Tick curTick() const { return _cur; }

    EventId
    schedule(Tick when, Handler fn,
             EventPriority prio = EventPriority::Default)
    {
        return add(when, 0, std::move(fn), prio);
    }

    EventId
    scheduleKeyed(Tick when, uint64_t key, Handler fn,
                  EventPriority prio = EventPriority::Default)
    {
        return add(when, key, std::move(fn), prio);
    }

    Tick
    run(Tick limit = maxTick)
    {
        _limit = limit;
        while (!_order.empty() && std::get<0>(_order.begin()->first) <=
                                      _limit) {
            auto it = _order.begin();
            _cur = std::get<0>(it->first);
            Handler fn = std::move(it->second);
            _order.erase(it);
            fn();
        }
        return _cur;
    }

    void endAfterCurTick() { _limit = _cur; }

    bool empty() const { return _order.empty(); }
    uint64_t numPending() const { return _order.size(); }

  private:
    using Key = std::tuple<Tick, int32_t, uint64_t, EventId>;

    EventId
    add(Tick when, uint64_t key, Handler fn, EventPriority prio)
    {
        EventId id = _nextSeq++;
        _order.emplace(Key{when, static_cast<int32_t>(prio), key, id},
                       std::move(fn));
        return id;
    }

    std::map<Key, Handler> _order;
    Tick _cur = 0;
    Tick _limit = maxTick;
    EventId _nextSeq = 0;
};

/** splitmix64: a per-(seed, event) stream both queues replay alike. */
struct Mix
{
    uint64_t s;

    uint64_t
    next()
    {
        uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    uint64_t below(uint64_t n) { return next() % n; }
};

constexpr EventPriority allPrios[] = {
    EventPriority::Delivery, EventPriority::Default,
    EventPriority::ClockTick, EventPriority::Stat};

/** What the queue under test reached, for coverage assertions. */
struct Coverage
{
    uint64_t parkedInserts = 0;
    uint64_t farWheelTies = 0;
    uint64_t keyedBursts = 0;
    uint64_t lowerPrioSameTick = 0;
    uint64_t endedRuns = 0;
};

/**
 * One seeded scenario, replayed against queue type Q. Every decision
 * comes from Mix streams seeded by (seed, event id), so two queues
 * that execute the same order make the same decisions; the first
 * ordering difference shows up in the returned log.
 */
template <class Q>
class Scenario
{
  public:
    /** Log entry: (tick, event id) per execution, plus probes. */
    using Log = std::vector<std::pair<Tick, uint64_t>>;

    explicit Scenario(uint64_t seed) : _seed(seed) {}

    Log
    play()
    {
        Mix top{_seed * 7919 + 1};
        for (int phase = 0; phase < 6; ++phase) {
            spawnSome(top, 4 + top.below(16));
            // Events may end the run early (endAfterCurTick).
            Tick limit = q.curTick() + top.below(40);
            probe(q.run(limit));
            // The run left later ticks parked: insert at the current
            // tick and at a future tick up to one past the limit,
            // which lands before or on the earliest parked tick.
            Tick now = q.curTick();
            probe(q.numPending());
            if (!q.empty()) {
                ++cov.parkedInserts;
                spawn(top, now, 1 + top.below(3));
                Tick span = std::max(limit, now) + 1 - now;
                spawn(top, now + 1 + top.below(span), 1 + top.below(3));
            }
        }
        while (!q.empty())
            probe(q.run());
        probe(q.numPending());
        return std::move(_log);
    }

    Q q;
    Coverage cov;

  private:
    enum Kind : uint8_t { Normal, Leaf };

    void probe(uint64_t v) { _log.push_back({~Tick(0), v}); }

    /** Schedule one event of @p kind. */
    void
    add(Tick when, EventPriority prio, uint64_t key, Kind kind)
    {
        size_t slot = _ids.size();
        _ids.push_back(0);
        auto fn = [this, slot, kind]() { fire(_ids[slot], kind); };
        _ids[slot] = key ? q.scheduleKeyed(when, key, fn, prio)
                         : q.schedule(when, fn, prio);
        if (when >= q.curTick() + EventQueue::wheelBuckets)
            _farTicks.push_back(when);
    }

    /** @p n events at exactly tick @p when, mixed priorities. */
    void
    spawn(Mix &r, Tick when, uint64_t n)
    {
        for (uint64_t i = 0; i < n; ++i)
            add(when, allPrios[r.below(4)], 0, Normal);
    }

    /** @p n events drawn from the whole delay mix. */
    void
    spawnSome(Mix &r, uint64_t n)
    {
        for (uint64_t i = 0; i < n && _budget > 0; ++i) {
            --_budget;
            Tick now = q.curTick();
            EventPriority prio = allPrios[r.below(4)];
            switch (r.below(8)) {
            case 0: // same tick; often below the running priority
                add(now, prio, 0, Normal);
                break;
            case 1: { // keyed cross-tile burst, descending tile order
                ++cov.keyedBursts;
                Tick when = now + r.below(3);
                uint64_t tiles = 1 + r.below(r.below(4) ? 16 : 160);
                for (uint64_t t = tiles; t-- > 0;) {
                    add(when, EventPriority::Delivery,
                        ((t + 1) << 32) | ++_keyCnt, Leaf);
                }
                if (r.below(2))
                    add(when, EventPriority::Default, 0, Leaf);
                break;
            }
            case 2: // far heap: at or beyond the wheel horizon
                add(now + EventQueue::wheelBuckets + r.below(8), prio, 0,
                    Normal);
                break;
            case 3: { // wheel insert on a tick the far heap holds
                while (_farHead < _farTicks.size() &&
                       _farTicks[_farHead] <= now)
                    ++_farHead;
                Tick target = 0;
                if (_farHead < _farTicks.size() &&
                    _farTicks[_farHead] - now < EventQueue::wheelBuckets)
                    target = _farTicks[_farHead];
                if (target) {
                    ++cov.farWheelTies;
                    add(target, prio,
                        r.below(2) ? 0 : ((r.below(64) + 1) << 32) | ++_keyCnt,
                        Normal);
                } else {
                    add(now + 1 + r.below(4), prio, 0, Normal);
                }
                break;
            }
            default:
                add(now + 1 + r.below(20), prio, 0, Normal);
                break;
            }
        }
    }

    void
    fire(uint64_t id, Kind kind)
    {
        _log.push_back({q.curTick(), id});
        if (kind == Leaf)
            return;
        Mix r{_seed ^ (id * 0x2545f4914f6cdd1dull)};
        if (r.below(32) == 0) {
            // End the run once this tick has drained.
            ++cov.endedRuns;
            q.endAfterCurTick();
        }
        if (r.below(4) == 0) {
            // Same tick, lower priority than the running event when
            // the draw allows it (runs next, ahead of the rest).
            ++cov.lowerPrioSameTick;
            add(q.curTick(), EventPriority::Delivery, 0, Leaf);
        }
        spawnSome(r, r.below(4));
    }

    uint64_t _seed;
    uint64_t _budget = 1500;
    uint64_t _keyCnt = 0;
    Log _log;
    std::vector<uint64_t> _ids;
    /** Far-heap ticks in scheduling order; [_farHead, end) upcoming. */
    std::vector<Tick> _farTicks;
    size_t _farHead = 0;
};

} // namespace

/**
 * 200 seeded mixes, each replayed on EventQueue and on RefQueue: the
 * execution logs (tick, id), clock probes and pending counts must
 * agree event for event. The mixes cover all four priorities, keyed
 * bursts inserted in descending key order, same-tick inserts below
 * the running priority, far-heap and wheel events on one tick,
 * run(limit) parking a tick followed by inserts ahead of it, and
 * runs that an event ends with endAfterCurTick().
 */
TEST(EventQueue, DifferentialOrderingAgainstReference)
{
    Coverage total;
    for (uint64_t seed = 0; seed < 200; ++seed) {
        Scenario<EventQueue> real(seed);
        Scenario<RefQueue> ref(seed);
        auto got = real.play();
        auto want = ref.play();
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], want[i])
                << "seed " << seed << " entry " << i;
        }
        EXPECT_TRUE(real.q.empty());
        EXPECT_EQ(real.q.arenaInUse(), 0u);
        total.parkedInserts += real.cov.parkedInserts;
        total.farWheelTies += real.cov.farWheelTies;
        total.keyedBursts += real.cov.keyedBursts;
        total.lowerPrioSameTick += real.cov.lowerPrioSameTick;
        total.endedRuns += real.cov.endedRuns;
    }
    EXPECT_GT(total.parkedInserts, 0u);
    EXPECT_GT(total.farWheelTies, 0u);
    EXPECT_GT(total.keyedBursts, 0u);
    EXPECT_GT(total.lowerPrioSameTick, 0u);
    EXPECT_GT(total.endedRuns, 0u);
}
