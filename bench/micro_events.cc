/**
 * @file
 * Microbenchmark of the event kernel itself: raw schedule/dispatch
 * throughput for the event patterns that dominate real simulations.
 * Reports events/s so kernel changes are a measured number, not a
 * claim. Patterns:
 *
 *  - short-delay self-rescheduling ticks (cache / NoC / SE pipelines),
 *    the overwhelming majority of events in a run;
 *  - same-tick fan-out bursts (multicast delivery, barrier release);
 *  - keyed cross-tile deliveries arriving in reverse tile order, with
 *    a same-tick wake-up insert (the serial mesh's per-cycle mix);
 *  - mixed-horizon traffic (mostly near-future with a far-future tail:
 *    DRAM latencies, watchdog / checker / sampler periods);
 *  - recurring periodic events (watchdog / checker / sampler ticks).
 *
 * Handlers are small function objects (a context pointer plus an
 * index) so they fit std::function's inline buffer: the numbers
 * measure the kernel, not the allocator behind oversized closures.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/profile.hh"

using namespace sf;

namespace {

/** Deterministic xorshift so every run measures identical schedules. */
struct Rng
{
    uint64_t s = 0x9e3779b97f4a7c15ull;

    uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
};

constexpr uint64_t eventsPerIter = 1'000'000;

struct Noop
{
    void operator()() const {}
};

struct Ctx
{
    EventQueue *eq = nullptr;
    uint64_t budget = 0;
    int fanout = 0;
    Rng rng;
    uint64_t keyCnt = 0;
};

/** One self-rescheduling tick chain with a fixed delay of 1..8. */
struct ChainTick
{
    Ctx *ctx;
    uint32_t chain;

    void
    operator()() const
    {
        if (ctx->budget == 0)
            return;
        --ctx->budget;
        ctx->eq->scheduleIn(1 + static_cast<Cycles>(chain % 8), *this,
                            EventPriority::ClockTick);
    }
};

/** Burst of `fanout` same-tick events at mixed priorities. */
struct Burst
{
    Ctx *ctx;

    void
    operator()() const
    {
        if (ctx->budget < static_cast<uint64_t>(ctx->fanout))
            return;
        ctx->budget -= static_cast<uint64_t>(ctx->fanout);
        for (int i = 0; i < ctx->fanout - 1; ++i) {
            ctx->eq->scheduleIn(1, Noop{},
                                i % 2 ? EventPriority::Delivery
                                      : EventPriority::ClockTick);
        }
        ctx->eq->scheduleIn(1, *this, EventPriority::Stat);
    }
};

/** A completion waking its core: a same-tick ClockTick insert. */
struct Wake
{
    Ctx *ctx;

    void
    operator()() const
    {
        ctx->eq->schedule(ctx->eq->curTick(), Noop{},
                          EventPriority::ClockTick);
    }
};

/**
 * One cycle of cross-tile traffic, booked for the next tick by this
 * Stat-priority event: `fanout` keyed Delivery events inserted in
 * reverse tile order, four Default events, and one delivery that
 * wakes a core (a ClockTick inserted mid-tick, ahead of this event).
 */
struct KeyedCycle
{
    Ctx *ctx;

    void
    operator()() const
    {
        const uint64_t perCycle = static_cast<uint64_t>(ctx->fanout) + 6;
        if (ctx->budget < perCycle)
            return;
        ctx->budget -= perCycle;
        EventQueue &eq = *ctx->eq;
        Tick next = eq.curTick() + 1;
        for (int t = ctx->fanout; t-- > 0;) {
            uint64_t key = (static_cast<uint64_t>(t + 1) << 32) |
                           ++ctx->keyCnt;
            if (t == ctx->fanout / 2)
                eq.scheduleKeyed(next, key, Wake{ctx},
                                 EventPriority::Delivery);
            else
                eq.scheduleKeyed(next, key, Noop{},
                                 EventPriority::Delivery);
        }
        for (int i = 0; i < 4; ++i)
            eq.schedule(next, Noop{});
        eq.schedule(next, *this, EventPriority::Stat);
    }
};

/** Mostly short delays with an occasional far-future reschedule. */
struct MixedTick
{
    Ctx *ctx;

    void
    operator()() const
    {
        if (ctx->budget == 0)
            return;
        --ctx->budget;
        uint64_t r = ctx->rng.next();
        Cycles delay =
            (r & 7) ? (1 + (r & 31)) : (1000 + (r % 127'000));
        ctx->eq->scheduleIn(delay, *this);
    }
};

/**
 * Tick chain optionally carrying the real --profile lifecycle hooks.
 * One template so the Hooks=false baseline and the Hooks=true variant
 * share layout and codegen treatment; the measured difference is the
 * hook code itself, not functor-size or inlining luck. With a null
 * profiler the hooks cost exactly what every simulation pays when
 * profiling is disabled: one pointer test per hook site. With a live
 * profiler they pay the enabled open/mark/close path.
 */
template <bool Hooks>
struct HookTick
{
    Ctx *ctx;
    prof::Profiler *prof;

    void
    operator()() const
    {
        if (ctx->budget == 0)
            return;
        --ctx->budget;
        if constexpr (Hooks) {
            Tick now = ctx->eq->curTick();
            // The hook pattern components use verbatim (core.cc,
            // caches, se_core.cc): guarded open, mark, close.
            uint32_t pid =
                prof ? prof->open(0, invalidStream, now) : 0;
            if (prof && pid)
                prof->mark(pid, prof::Phase::PrivCache, now);
            if (prof && pid)
                prof->close(pid, now);
        }
        ctx->eq->scheduleIn(1 + static_cast<Cycles>(ctx->budget % 8),
                            *this, EventPriority::ClockTick);
    }
};

/**
 * Null laundered through a volatile so the compiler cannot fold the
 * hook branches away. (DoNotOptimize on an lvalue pointer is NOT safe
 * for this: GCC's "+m,r" constraint can clobber the value.)
 */
prof::Profiler *volatile nullProfiler = nullptr;

} // namespace

/**
 * N independent chains of self-rescheduling ticks with delays 1..8:
 * the calendar-wheel fast path.
 */
static void
BM_ShortDelayTicks(benchmark::State &state)
{
    const int chains = static_cast<int>(state.range(0));
    uint64_t executed = 0;
    for (auto _ : state) {
        EventQueue eq;
        Ctx ctx{&eq, eventsPerIter, 0, {}};
        for (int c = 0; c < chains; ++c) {
            eq.schedule(static_cast<Tick>(c % 4),
                        ChainTick{&ctx, static_cast<uint32_t>(c)},
                        EventPriority::ClockTick);
        }
        eq.run();
        executed += eq.numExecuted();
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(executed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShortDelayTicks)->Arg(4)->Arg(64)->Unit(
    benchmark::kMillisecond);

/** Bursts of F same-tick events at mixed priorities, tick by tick. */
static void
BM_SameTickFanout(benchmark::State &state)
{
    const int fanout = static_cast<int>(state.range(0));
    uint64_t executed = 0;
    for (auto _ : state) {
        EventQueue eq;
        Ctx ctx{&eq, eventsPerIter, fanout, {}};
        eq.schedule(0, Burst{&ctx}, EventPriority::Stat);
        eq.run();
        executed += eq.numExecuted();
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(executed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SameTickFanout)->Arg(8)->Arg(64)->Unit(
    benchmark::kMillisecond);

/**
 * Per-tick keyed deliveries from N tiles (16 and 150), inserted in
 * reverse tile order, plus Default work and a same-tick wake-up. One
 * long descending stretch per tick is the worst case for the run's
 * insertion sort; simulated meshes invert only a few events at a time.
 */
static void
BM_SameTickKeyedDeliveries(benchmark::State &state)
{
    const int tiles = static_cast<int>(state.range(0));
    uint64_t executed = 0;
    for (auto _ : state) {
        EventQueue eq;
        Ctx ctx{&eq, eventsPerIter, tiles, {}};
        eq.schedule(0, KeyedCycle{&ctx}, EventPriority::Stat);
        eq.run();
        executed += eq.numExecuted();
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(executed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SameTickKeyedDeliveries)->Arg(16)->Arg(150)->Unit(
    benchmark::kMillisecond);

/**
 * 7/8 short delays (1..32) with a 1/8 far-future tail (up to ~128k
 * cycles): exercises the wheel/heap boundary both ways.
 */
static void
BM_MixedHorizon(benchmark::State &state)
{
    uint64_t executed = 0;
    for (auto _ : state) {
        EventQueue eq;
        Ctx ctx{&eq, eventsPerIter, 0, {}};
        for (int c = 0; c < 16; ++c)
            eq.schedule(static_cast<Tick>(c), MixedTick{&ctx});
        eq.run();
        executed += eq.numExecuted();
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(executed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MixedHorizon)->Unit(benchmark::kMillisecond);

/**
 * The profiling-overhead pair (tentpole budget: ≤2% when disabled).
 * Hook-free baseline chains — compare BM_ProfilerHooksOff against
 * this, NOT across machines.
 */
static void
BM_ProfilerHooksBase(benchmark::State &state)
{
    uint64_t executed = 0;
    for (auto _ : state) {
        EventQueue eq;
        Ctx ctx{&eq, eventsPerIter, 0, {}};
        for (int c = 0; c < 16; ++c)
            eq.schedule(static_cast<Tick>(c % 4),
                        HookTick<false>{&ctx, nullptr},
                        EventPriority::ClockTick);
        eq.run();
        executed += eq.numExecuted();
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(executed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ProfilerHooksBase)->Unit(benchmark::kMillisecond);

/**
 * Same chains with the lifecycle hooks compiled in but the profiler
 * null (--profile absent): the disabled-overhead number the CI gate
 * holds to the budget.
 */
static void
BM_ProfilerHooksOff(benchmark::State &state)
{
    prof::Profiler *prof = nullProfiler;
    uint64_t executed = 0;
    for (auto _ : state) {
        EventQueue eq;
        Ctx ctx{&eq, eventsPerIter, 0, {}};
        for (int c = 0; c < 16; ++c)
            eq.schedule(static_cast<Tick>(c % 4),
                        HookTick<true>{&ctx, prof},
                        EventPriority::ClockTick);
        eq.run();
        executed += eq.numExecuted();
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(executed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ProfilerHooksOff)->Unit(benchmark::kMillisecond);

/**
 * The gated overhead number: alternate hook-free and hooks-off bursts
 * back-to-back and report the median per-pair slowdown. Tight temporal
 * pairing cancels the machine drift that makes comparing two separate
 * benchmark entries flaky, so CI can hold a 2% budget reliably.
 */
static void
BM_ProfilerHookOverheadPaired(benchmark::State &state)
{
    // sflint: allow(D2, host timer of the benchmark, not simulated time)
    using hclock = std::chrono::steady_clock;
    constexpr uint64_t burstEvents = 200'000;
    prof::Profiler *prof = nullProfiler;

    auto burst = [&](bool hooks) {
        EventQueue eq;
        Ctx ctx{&eq, burstEvents, 0, {}};
        for (int c = 0; c < 16; ++c) {
            if (hooks) {
                eq.schedule(static_cast<Tick>(c % 4),
                            HookTick<true>{&ctx, prof},
                            EventPriority::ClockTick);
            } else {
                eq.schedule(static_cast<Tick>(c % 4),
                            HookTick<false>{&ctx, nullptr},
                            EventPriority::ClockTick);
            }
        }
        auto t0 = hclock::now();
        eq.run();
        auto t1 = hclock::now();
        benchmark::DoNotOptimize(eq.numExecuted());
        return std::chrono::duration<double>(t1 - t0).count();
    };

    std::vector<double> ratios;
    uint64_t executed = 0;
    for (auto _ : state) {
        // ABBA order: warm-up / frequency drift inflates whichever
        // variant runs first, so run each at both positions and ratio
        // the sums — linear drift cancels to first order.
        double base = burst(false);
        double off = burst(true) + burst(true);
        base += burst(false);
        if (base > 0.0)
            ratios.push_back(off / base);
        executed += 4 * burstEvents;
    }
    std::sort(ratios.begin(), ratios.end());
    double med = ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
    state.counters["overheadPct"] = (med - 1.0) * 100.0;
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(executed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ProfilerHookOverheadPaired)->Unit(benchmark::kMillisecond);

/** Enabled-path cost for context (not gated: it may be any price). */
static void
BM_ProfilerHooksOn(benchmark::State &state)
{
    uint64_t executed = 0;
    for (auto _ : state) {
        EventQueue eq;
        prof::Profiler prof;
        Ctx ctx{&eq, eventsPerIter, 0, {}};
        for (int c = 0; c < 16; ++c)
            eq.schedule(static_cast<Tick>(c % 4),
                        HookTick<true>{&ctx, &prof},
                        EventPriority::ClockTick);
        eq.run();
        executed += eq.numExecuted();
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(executed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ProfilerHooksOn)->Unit(benchmark::kMillisecond);

/**
 * Fixed-period recurring events (watchdog / checker / sampler / issue
 * pumps): the intrusive requeue path that re-allocates nothing.
 */
static void
BM_RecurringTicks(benchmark::State &state)
{
    const int timers = static_cast<int>(state.range(0));
    uint64_t executed = 0;
    for (auto _ : state) {
        EventQueue eq;
        uint64_t budget = eventsPerIter;
        std::vector<std::unique_ptr<RecurringEvent>> recs;
        for (int t = 0; t < timers; ++t) {
            recs.push_back(std::make_unique<RecurringEvent>(eq));
            auto *rec = recs.back().get();
            rec->start(1 + static_cast<Cycles>(t % 8),
                       [&budget, rec]() {
                           if (budget == 0) {
                               rec->stop();
                               return;
                           }
                           --budget;
                       },
                       EventPriority::ClockTick);
        }
        eq.run();
        executed += eq.numExecuted();
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(executed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RecurringTicks)->Arg(4)->Arg(64)->Unit(
    benchmark::kMillisecond);

BENCHMARK_MAIN();
