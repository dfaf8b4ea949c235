/**
 * @file
 * Deterministic global event queue.
 *
 * All timing in the simulator is expressed as callbacks scheduled at a
 * future tick. Events execute in ascending (when, priority, key,
 * sequence) order, which makes every simulation fully deterministic
 * and reproducible.
 *
 * The kernel is tuned for the simulator's event mix, where almost
 * every event is a short-delay tick and each tick holds a few dozen
 * events (one core, SE and router per tile):
 *
 *  - a calendar wheel of `wheelBuckets` single-tick buckets covering
 *    (curTick, curTick + wheelBuckets): O(1) insert, O(1) amortized
 *    advance via an occupancy bitmap;
 *  - a far-future binary heap for everything beyond the wheel horizon
 *    (DRAM round trips never reach it; watchdog / checker / sampler
 *    periods do);
 *  - a sorted run holding the tick being drained: a contiguous vector
 *    consumed by a head cursor. Collecting a tick appends its bucket
 *    chain (already in sequence order) and far-heap events, then an
 *    insertion sort fixes the few priority / key inversions; popping
 *    is one increment. A same-tick insert appends when it sorts last
 *    (its sequence number is the largest) and otherwise goes to its
 *    upper bound in the undrained range.
 *
 * The optional per-event `key` (scheduleKeyed) exists for the mesh's
 * hop events: they carry a canonical key derived from (scheduling
 * router, per-router counter), so their same-tick order is a pure
 * function of simulated history and never of insertion sequence
 * (DESIGN.md §4i). Unkeyed events (key 0) order before all keyed
 * events at the same (when, priority) and retain exact
 * insertion-sequence order among themselves.
 *
 * Event nodes come from a slab arena with an intrusive free list, so
 * steady-state scheduling performs zero allocations. Fixed-period
 * work (watchdog, checker, sampler, issue pumps) uses RecurringEvent,
 * which re-queues its own node each period instead of re-building a
 * closure; its stop() marks the queued node dead in place, and the
 * queue skips (and recycles) dead nodes when it pops them.
 */

#ifndef SF_SIM_EVENT_QUEUE_HH
#define SF_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace sf {

/** Priorities for same-tick ordering. Lower runs first. */
enum class EventPriority : int32_t
{
    /** Message delivery into component queues. */
    Delivery = 0,
    /** Default component work. */
    Default = 10,
    /** Per-cycle component ticks (CPU, SE, router pipelines). */
    ClockTick = 20,
    /** End-of-cycle bookkeeping / statistics. */
    Stat = 30,
    /**
     * System services, the last events of their tick (DESIGN.md §4i):
     * the interval sampler and the barrier release ...
     */
    Service = 40,
    /** ... then the watchdog and the invariant checker. */
    Watch = 50,
};

class RecurringEvent;

/**
 * The event queue. One instance drives an entire simulated system.
 */
class EventQueue
{
  public:
    using Handler = std::function<void()>;
    using EventId = uint64_t;

    /** Buckets in the near-future calendar wheel (power of two). */
    static constexpr size_t wheelBuckets = 8192;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated tick (cycle). */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule @p fn to run at absolute tick @p when.
     * @return the event's sequence number.
     */
    EventId
    schedule(Tick when, Handler fn,
             EventPriority prio = EventPriority::Default)
    {
        sf_assert(when >= _curTick,
                  "scheduling in the past: %llu < %llu",
                  (unsigned long long)when, (unsigned long long)_curTick);
        Event *e = allocEvent();
        e->when = when;
        e->prio = static_cast<int32_t>(prio);
        e->seq = _nextSeq++;
        e->fn = std::move(fn);
        enqueue(e);
        ++_numPending;
        return e->seq;
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    EventId
    scheduleIn(Cycles delay, Handler fn,
               EventPriority prio = EventPriority::Default)
    {
        return schedule(_curTick + delay, std::move(fn), prio);
    }

    /**
     * Schedule with an explicit same-tick ordering key (see the file
     * header): at equal (when, priority), events execute in ascending
     * key order regardless of insertion order.
     * @p key must be nonzero (zero marks unkeyed events).
     */
    EventId
    scheduleKeyed(Tick when, uint64_t key, Handler fn,
                  EventPriority prio = EventPriority::Default)
    {
        sf_assert(key != 0, "scheduleKeyed needs a nonzero key");
        sf_assert(when >= _curTick,
                  "scheduling in the past: %llu < %llu",
                  (unsigned long long)when, (unsigned long long)_curTick);
        Event *e = allocEvent();
        e->when = when;
        e->prio = static_cast<int32_t>(prio);
        e->key = key;
        e->seq = _nextSeq++;
        e->fn = std::move(fn);
        enqueue(e);
        ++_numPending;
        return e->seq;
    }

    /** True when no live events remain. */
    bool empty() const { return _numPending == 0; }

    /** Number of live (non-stopped) pending events. */
    uint64_t numPending() const { return _numPending; }

    /**
     * Execute events until the queue is empty, @p limit is reached,
     * or an event calls endAfterCurTick().
     * @return the tick after the last executed event.
     */
    Tick
    run(Tick limit = maxTick)
    {
        _limit = limit;
        for (;;) {
            Event *e = next();
            if (!e)
                break;
            if (e->cancelled) {
                popNow();
                freeEvent(e);
                continue;
            }
            if (e->when > _limit)
                break;
            popNow();
            sf_assert(e->when >= _curTick,
                      "event queue went backwards: event at %llu "
                      "(prio %d key %llx seq %llu) behind tick %llu",
                      (unsigned long long)e->when, (int)e->prio,
                      (unsigned long long)e->key,
                      (unsigned long long)e->seq,
                      (unsigned long long)_curTick);
            _curTick = e->when;
            --_numPending;
            ++_numExecuted;
            execute(e);
        }
        return _curTick;
    }

    /**
     * Make the running run() return once every event of the current
     * tick has executed, including those the tick still schedules for
     * itself. It lowers the run's limit, so it costs nothing per event.
     */
    void endAfterCurTick() { _limit = _curTick; }

    /** Execute exactly one event; @return false if the queue is empty. */
    bool
    step()
    {
        for (;;) {
            Event *e = next();
            if (!e)
                return false;
            popNow();
            if (e->cancelled) {
                freeEvent(e);
                continue;
            }
            _curTick = e->when;
            --_numPending;
            ++_numExecuted;
            execute(e);
            return true;
        }
    }

    /** Total events executed so far (for reporting / debugging). */
    uint64_t numExecuted() const { return _numExecuted; }

    /** Event nodes the slab arena has ever carved out. */
    uint64_t arenaCapacity() const { return _arenaCapacity; }

    /** Nodes currently queued (live + stopped). */
    uint64_t arenaInUse() const { return _numNodes; }

  private:
    friend class RecurringEvent;

    struct Event
    {
        Tick when = 0;
        int32_t prio = 0;
        /** Canonical same-tick order (scheduleKeyed); 0 = unkeyed. */
        uint64_t key = 0;
        EventId seq = 0;
        /** Intrusive link: wheel bucket chain or arena free list. */
        Event *next = nullptr;
        /** Non-null for fixed-period events; re-queued, not re-built. */
        RecurringEvent *rec = nullptr;
        /** Stopped in place by RecurringEvent::stop(); skipped. */
        bool cancelled = false;
        /** One-shot payload; unused when rec is set. */
        Handler fn;
    };

    struct Bucket
    {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    /**
     * True when @p a runs after @p b in (when, priority, key,
     * sequence) order. Sequence numbers are unique, so the order is
     * total. Both orders are function objects rather than function
     * pointers, so the std algorithms can inline them.
     */
    struct Later
    {
        bool
        operator()(const Event *a, const Event *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            if (a->prio != b->prio)
                return a->prio > b->prio;
            if (a->key != b->key)
                return a->key > b->key;
            return a->seq > b->seq;
        }
    };

    /** True when @p a runs before @p b: the sorted run's order. */
    struct Before
    {
        bool
        operator()(const Event *a, const Event *b) const
        {
            return Later{}(b, a);
        }
    };

    // --- slab arena ---

    Event *
    allocEvent()
    {
        if (!_freeList)
            growArena();
        Event *e = _freeList;
        _freeList = e->next;
        e->next = nullptr;
        e->rec = nullptr;
        e->cancelled = false;
        e->key = 0;
        return e;
    }

    void
    freeEvent(Event *e)
    {
        e->fn = nullptr; // release captured state eagerly
        e->rec = nullptr;
        e->next = _freeList;
        _freeList = e;
    }

    void
    growArena()
    {
        constexpr size_t slabEvents = 512;
        _slabs.push_back(std::make_unique<Event[]>(slabEvents));
        Event *slab = _slabs.back().get();
        for (size_t i = slabEvents; i-- > 0;) {
            slab[i].next = _freeList;
            _freeList = &slab[i];
        }
        _arenaCapacity += slabEvents;
    }

    // --- structure maintenance ---

    void
    enqueue(Event *e)
    {
        ++_numNodes;
        if (e->when == _curTick)
            pushNow(e);
        else if (e->when - _curTick < wheelBuckets)
            pushWheel(e);
        else
            pushFar(e);
    }

    /**
     * Same-tick insert. Its sequence number is the largest queued, so
     * it usually sorts last and appends; otherwise (a lower priority
     * or key than the tail, or a parked later tick behind it) it goes
     * to its place in the undrained range.
     */
    void
    pushNow(Event *e)
    {
        if (_head == _run.size() || Later{}(e, _run.back()))
            _run.push_back(e);
        else
            _run.insert(std::upper_bound(_run.begin() + _head,
                                         _run.end(), e, Before{}),
                        e);
    }

    void
    popNow()
    {
        if (++_head == _run.size()) {
            _run.clear();
            _head = 0;
        }
        --_numNodes;
    }

    void
    pushWheel(Event *e)
    {
        size_t idx = static_cast<size_t>(e->when) & (wheelBuckets - 1);
        Bucket &b = _wheel[idx];
        sf_assert(!b.head || b.head->when == e->when,
                  "calendar bucket tick clash");
        if (!b.head) {
            b.head = b.tail = e;
            _occupied[idx >> 6] |= 1ull << (idx & 63);
        } else {
            b.tail->next = e;
            b.tail = e;
        }
        ++_wheelCount;
    }

    void
    pushFar(Event *e)
    {
        _far.push_back(e);
        std::push_heap(_far.begin(), _far.end(), Later{});
    }

    /** Earliest tick queued outside the run; maxTick when none. */
    Tick
    peekOutsideTick() const
    {
        Tick t = _far.empty() ? maxTick : _far.front()->when;
        if (_wheelCount > 0)
            t = std::min(t, wheelFrontTick());
        return t;
    }

    /**
     * Earliest occupied wheel tick. All wheel events lie in
     * (curTick, curTick + wheelBuckets), so circular bucket order
     * starting after curTick IS tick order; the occupancy bitmap
     * skips 64 empty buckets per word.
     */
    Tick
    wheelFrontTick() const
    {
        constexpr size_t words = wheelBuckets >> 6;
        size_t start =
            (static_cast<size_t>(_curTick) + 1) & (wheelBuckets - 1);
        size_t w = start >> 6;
        uint64_t word = _occupied[w] & (~0ull << (start & 63));
        for (size_t i = 0; i <= words; ++i) {
            if (word) {
                size_t idx = (w << 6) +
                             static_cast<size_t>(__builtin_ctzll(word));
                return _wheel[idx].head->when;
            }
            w = (w + 1) & (words - 1);
            word = _occupied[w];
        }
        sf_assert(false, "wheel count nonzero but no occupied bucket");
        return maxTick;
    }

    /**
     * Append every event queued for tick @p t to the run, then restore
     * order over its undrained range.
     */
    void
    collectTick(Tick t)
    {
        // A parked later tick may still sit in the run: drop the
        // drained prefix so it cannot grow while that tick waits.
        if (_head > 0) {
            _run.erase(_run.begin(), _run.begin() + _head);
            _head = 0;
        }
        size_t first = _run.size();
        if (_wheelCount > 0) {
            size_t idx = static_cast<size_t>(t) & (wheelBuckets - 1);
            Bucket &b = _wheel[idx];
            if (b.head && b.head->when == t) {
                Event *e = b.head;
                b.head = b.tail = nullptr;
                _occupied[idx >> 6] &= ~(1ull << (idx & 63));
                while (e) {
                    Event *nxt = e->next;
                    e->next = nullptr;
                    --_wheelCount;
                    _run.push_back(e);
                    e = nxt;
                }
            }
        }
        while (!_far.empty() && _far.front()->when == t) {
            _run.push_back(_far.front());
            std::pop_heap(_far.begin(), _far.end(), Later{});
            _far.pop_back();
        }
        sortRun(first);
    }

    /**
     * Sort the run after appending [first, end) behind its sorted
     * (possibly empty) parked range. A bucket chain arrives in
     * sequence order and only priority and key invert it, a few
     * places at a time, so this is an insertion sort: an event already
     * in place costs one compare. A batch that needs more than about
     * eight shifts per event falls back to std::sort.
     */
    void
    sortRun(size_t first)
    {
        auto run = _run.begin();
        const size_t n = _run.size();
        size_t budget = 8 * (n - first) + 64;
        for (size_t i = std::max<size_t>(first, 1); i < n; ++i) {
            Event *e = run[i];
            size_t j = i;
            for (; j > 0 && Before{}(e, run[j - 1]); --j)
                run[j] = run[j - 1];
            run[j] = e;
            if (i - j > budget) {
                std::sort(run, _run.end(), Before{});
                return;
            }
            budget -= i - j;
        }
    }

    /**
     * The globally next event (still queued at the run's head), or
     * null. Hot path: while draining the current tick this is one
     * compare; the bitmap scan only runs on tick advancement.
     */
    Event *
    next()
    {
        Tick now_tick =
            _head == _run.size() ? maxTick : _run[_head]->when;
        if (now_tick == _curTick)
            return _run[_head];
        Tick out_tick = peekOutsideTick();
        if (now_tick < out_tick)
            return _run[_head];
        if (out_tick == maxTick)
            return nullptr;
        // out_tick is minimal, so after collecting it the run's head
        // is the global minimum: no rescan needed. On a tick tie
        // the bucket must be collected too: an event scheduled for a
        // tick whose bucket was already drained (run(limit) stops with
        // that tick's events parked in the run, then an insert
        // for the same tick lands in the wheel) would otherwise sit in
        // a bucket the front scan can no longer see once _curTick
        // reaches it — and same-tick (prio, key, seq) ordering demands
        // the merge regardless.
        collectTick(out_tick);
        return _run[_head];
    }

    /** Run a popped live event. */
    void
    execute(Event *e)
    {
        if (e->rec) {
            runRecurring(e);
        } else {
            // Free the node before the callback so the handler's own
            // schedules can reuse it, and so a throwing handler (fatal
            // paths) leaves the queue consistent.
            Handler fn = std::move(e->fn);
            freeEvent(e);
            fn();
        }
    }

    void runRecurring(Event *e); // defined after RecurringEvent

    std::array<Bucket, wheelBuckets> _wheel;
    std::array<uint64_t, wheelBuckets / 64> _occupied{};
    uint64_t _wheelCount = 0;
    /** Far-future events, min-heap by (when, prio, key, seq). */
    std::vector<Event *> _far;
    /**
     * The sorted run: events of the tick being drained (and, after
     * run(limit) stops, of a parked later tick), in (when, prio, key,
     * seq) order. [0, _head) is drained; popping is ++_head, and the
     * vector is cleared once it drains.
     */
    std::vector<Event *> _run;
    size_t _head = 0;

    std::vector<std::unique_ptr<Event[]>> _slabs;
    Event *_freeList = nullptr;
    uint64_t _arenaCapacity = 0;

    Tick _curTick = 0;
    /** The running run()'s limit; endAfterCurTick() lowers it. */
    Tick _limit = maxTick;
    EventId _nextSeq = 0;
    uint64_t _numPending = 0;
    /** Queued nodes including stopped ones (arena accounting). */
    uint64_t _numNodes = 0;
    uint64_t _numExecuted = 0;
};

/**
 * A fixed-period event that owns its callback once and re-queues its
 * arena node every period — the watchdog / checker / sampler / issue-
 * pump pattern, with no per-period closure rebuild and an O(1) stop().
 *
 * start()/stop() may be called freely, including from inside the
 * callback itself; stop() marks the queued node dead in place.
 */
class RecurringEvent
{
  public:
    explicit RecurringEvent(EventQueue &eq) : _eq(eq) {}

    ~RecurringEvent() { stop(); }

    RecurringEvent(const RecurringEvent &) = delete;
    RecurringEvent &operator=(const RecurringEvent &) = delete;

    /**
     * Arm with @p period; the first firing happens @p firstDelay
     * ticks from now (one period when 0).
     */
    void
    start(Cycles period, EventQueue::Handler fn,
          EventPriority prio = EventPriority::Default,
          Cycles firstDelay = 0)
    {
        sf_assert(!_running, "recurring event started twice");
        sf_assert(period > 0, "recurring event needs a nonzero period");
        _period = period;
        _prio = static_cast<int32_t>(prio);
        _fn = std::move(fn);
        _running = true;
        EventQueue::Event *e = _eq.allocEvent();
        e->when = _eq._curTick + (firstDelay ? firstDelay : period);
        e->prio = _prio;
        e->seq = _eq._nextSeq++;
        e->rec = this;
        _eq.enqueue(e);
        ++_eq._numPending;
        _node = e;
    }

    /** Cancel the queued firing; safe to call repeatedly. */
    void
    stop()
    {
        if (!_running)
            return;
        _running = false;
        if (_node) {
            _node->cancelled = true;
            _node->rec = nullptr;
            _node = nullptr;
            sf_assert(_eq._numPending > 0,
                      "stopping recurring event with no pending events");
            --_eq._numPending;
        }
        // else: stopped from inside the callback; the queue frees the
        // node when the callback returns.
    }

    bool running() const { return _running; }
    Cycles period() const { return _period; }

  private:
    friend class EventQueue;

    EventQueue &_eq;
    EventQueue::Handler _fn;
    Cycles _period = 0;
    int32_t _prio = 0;
    /** Owned by the queue while scheduled; null while executing. */
    EventQueue::Event *_node = nullptr;
    bool _running = false;
};

inline void
EventQueue::runRecurring(Event *e)
{
    RecurringEvent *rec = e->rec;
    rec->_node = nullptr; // in flight: stop() must not touch the node
    rec->_fn();
    if (rec->_running) {
        e->when = _curTick + rec->_period;
        e->seq = _nextSeq++;
        e->next = nullptr;
        enqueue(e);
        ++_numPending;
        rec->_node = e;
    } else {
        freeEvent(e);
    }
}

} // namespace sf

#endif // SF_SIM_EVENT_QUEUE_HH
