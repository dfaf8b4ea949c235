/**
 * @file
 * Additional core-model timing tests: issue-width ceilings, divider
 * structural hazards, SIMD memory splitting, SB pressure, the
 * IO4-vs-OOO latency-hiding relations Fig. 13/19 rest on, the
 * issue-window semantics the wakeup-driven scheduler must keep, and
 * the sleeping core: per-cycle counters exact without per-cycle ticks.
 */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <utility>

#include "common/test_fabric.hh"
#include "cpu/core.hh"
#include "cpu/stream_engine_if.hh"
#include "isa/op_source.hh"

using namespace sf;
using namespace sf::test;

namespace {

class FixedSource : public isa::OpEmitter
{
  public:
    std::vector<isa::Op> ops;
    bool served = false;

    size_t
    refill(std::vector<isa::Op> &out) override
    {
        if (served)
            return 0;
        served = true;
        out.insert(out.end(), ops.begin(), ops.end());
        return ops.size();
    }

    using isa::OpEmitter::emitCompute;
    using isa::OpEmitter::emitLoad;
    using isa::OpEmitter::emitStore;
    using isa::OpEmitter::emitStreamLoad;
};

/** Stream engine whose FIFO data for every use arrives at @p readyAt. */
class DelayedFifo : public cpu::StreamEngineIf
{
  public:
    DelayedFifo(EventQueue &eq, Tick ready_at) : _eq(eq), _readyAt(ready_at)
    {}

    void noteConfigDispatched(const std::vector<isa::StreamConfig> &) override
    {}
    void configure(const std::vector<isa::StreamConfig> &) override {}
    void end(StreamId) override {}

    uint64_t
    requestElems(StreamId, uint16_t, std::function<void()> on_ready) override
    {
        _eq.schedule(_readyAt, std::move(on_ready));
        return 0;
    }

    void step(StreamId, uint16_t) override {}
    void releaseAtCommit(StreamId, uint16_t) override {}
    Addr storeAddr(StreamId) override { return 0; }
    void storeCommitted(Addr, uint16_t) override {}
    bool canAcceptUse(StreamId) const override { return true; }

  private:
    EventQueue &_eq;
    Tick _readyAt;
};

/** A serial chain of @p n integer divides (12 cycles each). */
void
emitDivChain(FixedSource &src, int n)
{
    uint64_t prev = 0;
    for (int i = 0; i < n; ++i)
        prev = src.emitCompute(src.ops, isa::OpKind::IntDiv, prev);
}

struct CoreHarness
{
    explicit CoreHarness(const cpu::CoreConfig &cfg)
        : fabric(fabricConfig()), source(std::make_unique<FixedSource>())
    {
        core = std::make_unique<cpu::Core>(
            "core0", fabric.eventQueue(), 0, cfg, fabric.privCache(0),
            fabric.tlb(0), fabric.addressSpace(), nullptr, source.get());
    }

    Tick
    run()
    {
        core->start();
        drain(fabric);
        EXPECT_TRUE(core->done());
        return core->stats().doneTick;
    }

    /**
     * Wake the core at the start of every cycle until it is done, so it
     * ticks in each one: the per-cycle reference for the sleeping core.
     */
    void
    pollEveryCycle()
    {
        poll = std::make_unique<RecurringEvent>(fabric.eventQueue());
        poll->start(
            1,
            [this]() {
                if (core->done())
                    poll->stop();
                else
                    core->wake();
            },
            EventPriority::Delivery);
    }

    sys::TiledSystem fabric;
    std::unique_ptr<FixedSource> source;
    std::unique_ptr<cpu::Core> core;
    std::unique_ptr<RecurringEvent> poll;
};

/**
 * 64 stores to distinct lines, four ALU ops behind each: on IO4 the
 * stores fill the SB and the ALU ops the ROB behind a stalled commit.
 */
void
emitStoreBurst(CoreHarness &h)
{
    Addr buf = h.fabric.addressSpace().alloc(1 << 20);
    for (int i = 0; i < 64; ++i) {
        h.source->emitStore(h.source->ops,
                            buf + static_cast<Addr>(i) * 4096, 4, 3);
        for (int k = 0; k < 4; ++k)
            h.source->emitCompute(h.source->ops, isa::OpKind::IntAlu);
    }
}

} // namespace

class WidthSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(WidthSweep, ThroughputTracksIssueWidth)
{
    int width = GetParam();
    cpu::CoreConfig cfg = cpu::CoreConfig::ooo4();
    cfg.width = width;
    cfg.numIntAlu = width;
    cfg.iqSize = 8 * width;
    CoreHarness h(cfg);
    for (int i = 0; i < 1600; ++i)
        h.source->emitCompute(h.source->ops, isa::OpKind::IntAlu);
    Tick t = h.run();
    double ipc = 1600.0 / double(t);
    EXPECT_GT(ipc, width * 0.7);
    EXPECT_LE(ipc, width + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep, ::testing::Values(1, 2, 4, 8));

TEST(CoreTiming, FpDivIsNonPipelined)
{
    CoreHarness h(cpu::CoreConfig::ooo4()); // 2 FP dividers
    for (int i = 0; i < 16; ++i)
        h.source->emitCompute(h.source->ops, isa::OpKind::FpDiv);
    Tick t = h.run();
    // 16 divides / 2 units, 12 cycles each, non-pipelined: >= 96.
    EXPECT_GE(t, 96u);
}

TEST(CoreTiming, MulIsPipelined)
{
    CoreHarness h(cpu::CoreConfig::ooo4()); // 2 mult units, 3-cycle
    for (int i = 0; i < 64; ++i)
        h.source->emitCompute(h.source->ops, isa::OpKind::IntMult);
    Tick t = h.run();
    // Pipelined: ~2 per cycle, far below 64 * 3 serial cycles.
    EXPECT_LT(t, 80u);
}

TEST(CoreTiming, StoreBurstThrottledByStoreBuffer)
{
    cpu::CoreConfig cfg = cpu::CoreConfig::io4(); // SB = 10
    CoreHarness h(cfg);
    Addr buf = h.fabric.addressSpace().alloc(1 << 20);
    // 64 stores to distinct lines: each L2 miss takes ~100+ cycles and
    // the SB drains one at a time.
    for (int i = 0; i < 64; ++i) {
        h.source->emitStore(h.source->ops,
                            buf + static_cast<Addr>(i) * 4096, 4, 3);
    }
    Tick t = h.run();
    EXPECT_GT(t, 200u); // far from 64/4-wide = 16 cycles
    EXPECT_GT(h.core->stats().sbFullStalls.value(), 0u);
}

TEST(CoreTiming, L1HitLoadsRetireAtFullWidth)
{
    CoreHarness h(cpu::CoreConfig::ooo8());
    Addr buf = h.fabric.addressSpace().alloc(4096);
    // One cold miss, then thousands of hits: the steady state must
    // approach the 4 memory ports per cycle.
    for (int i = 0; i < 4000; ++i)
        h.source->emitLoad(h.source->ops, buf, 4, 21);
    Tick t = h.run();
    double ipc = 4000.0 / double(t);
    EXPECT_GT(ipc, 2.5);
    EXPECT_LE(ipc, 4.01);
}

TEST(CoreTiming, IoCoreExposesSerialMissLatency)
{
    auto build = [](FixedSource &src, sys::TiledSystem &f, int n) {
        Addr buf = f.addressSpace().alloc(1 << 22);
        uint64_t prev = 0;
        for (int i = 0; i < n; ++i) {
            prev = src.emitLoad(src.ops,
                                buf + static_cast<Addr>(i) * 4096, 4, 7,
                                prev);
            src.emitCompute(src.ops, isa::OpKind::IntAlu, prev);
        }
    };
    CoreHarness io(cpu::CoreConfig::io4());
    build(*io.source, io.fabric, 32);
    Tick t = io.run();
    // 32 serial misses, each >= ~100 cycles end to end.
    EXPECT_GT(t, 32u * 80);
}

TEST(CoreTiming, MemPortsLimitParallelHits)
{
    cpu::CoreConfig cfg = cpu::CoreConfig::ooo4();
    cfg.memPorts = 1;
    CoreHarness h(cfg);
    Addr buf = h.fabric.addressSpace().alloc(4096);
    for (int i = 0; i < 200; ++i)
        h.source->emitLoad(h.source->ops, buf, 4, 9);
    Tick t1 = h.run();

    cpu::CoreConfig cfg2 = cpu::CoreConfig::ooo4();
    cfg2.memPorts = 4;
    CoreHarness h2(cfg2);
    Addr buf2 = h2.fabric.addressSpace().alloc(4096);
    for (int i = 0; i < 200; ++i)
        h2.source->emitLoad(h2.source->ops, buf2, 4, 9);
    Tick t4 = h2.run();
    // The single-port core pays ~1 extra cycle per load in steady
    // state; the exact ratio is diluted by the shared cold miss.
    EXPECT_GT(t1, t4 * 5 / 4);
}

// --- Issue-window semantics -------------------------------------------

TEST(CoreIssueWindow, WaitingOpsFillTheIssueQueue)
{
    // A missing load, K ops waiting on it, then an independent divide
    // chain. With iqSize == K the chain sits outside the window until
    // the load returns; one more IQ entry lets it run under the miss.
    constexpr int waiters = 6;
    auto run = [](int iq_size) {
        cpu::CoreConfig cfg = cpu::CoreConfig::ooo4();
        cfg.iqSize = iq_size;
        CoreHarness h(cfg);
        Addr buf = h.fabric.addressSpace().alloc(4096);
        uint64_t ld = h.source->emitLoad(h.source->ops, buf, 4, 1);
        for (int i = 0; i < waiters; ++i)
            h.source->emitCompute(h.source->ops, isa::OpKind::IntAlu, ld);
        emitDivChain(*h.source, 8);
        return h.run();
    };
    Tick blocked = run(waiters);
    Tick open = run(waiters + 1);
    EXPECT_GE(blocked, open + 8 * 12 - 16);
}

TEST(CoreIssueWindow, InOrderStopsAtTheFirstWaitingOp)
{
    auto run = [](bool consumer_waits) {
        CoreHarness h(cpu::CoreConfig::io4());
        Addr buf = h.fabric.addressSpace().alloc(4096);
        uint64_t ld = h.source->emitLoad(h.source->ops, buf, 4, 1);
        h.source->emitCompute(h.source->ops, isa::OpKind::IntAlu,
                              consumer_waits ? ld : 0);
        emitDivChain(*h.source, 8);
        return h.run();
    };
    Tick waits = run(true);
    Tick free_run = run(false);
    // The younger divides cannot pass the waiting consumer.
    EXPECT_GE(waits, free_run + 8 * 12 - 16);
}

TEST(CoreIssueWindow, StreamLoadWithoutDataDoesNotBlockOoo)
{
    constexpr Tick dataAt = 300;
    auto run = [](const cpu::CoreConfig &cfg) {
        CoreHarness h(cfg);
        DelayedFifo se(h.fabric.eventQueue(), dataAt);
        h.core->setStreamEngine(&se);
        h.source->emitStreamLoad(h.source->ops, 0);
        emitDivChain(*h.source, 8);
        return h.run();
    };
    Tick ooo = run(cpu::CoreConfig::ooo4());
    Tick io = run(cpu::CoreConfig::io4());
    // OOO runs the chain while the FIFO is empty; IO4 must wait.
    EXPECT_LT(ooo, dataAt + 16);
    EXPECT_GE(io, dataAt + 8 * 12);
}

TEST(CoreIssueWindow, BusyDividerSchedulesItsRetryWake)
{
    cpu::CoreConfig cfg = cpu::CoreConfig::ooo4();
    cfg.numIntMultDiv = 1;
    CoreHarness h(cfg);
    h.source->emitCompute(h.source->ops, isa::OpKind::IntDiv);
    h.source->emitCompute(h.source->ops, isa::OpKind::IntDiv);
    h.core->start();
    // Tick 0 dispatches both, tick 1 issues the first, tick 2 finds
    // the divider busy and sleeps. One event remains: the wake at the
    // divider's horizon, which is also the tick the first divide
    // completes (its completion waits in the ring, not in the queue).
    h.fabric.eventQueue().run(8);
    EXPECT_EQ(h.fabric.eventQueue().numPending(), 1u);
    drain(h.fabric);
    EXPECT_TRUE(h.core->done());
    EXPECT_GE(h.core->stats().doneTick, 2u * 12);
}

TEST(CoreIssueWindow, BusyDividerQueuesOneRetryWake)
{
    // Two divides on one divider, then independent ALU work that keeps
    // the core ticking while the second divide waits for the divider.
    cpu::CoreConfig cfg = cpu::CoreConfig::ooo4();
    cfg.numIntMultDiv = 1;
    CoreHarness h(cfg);
    h.source->emitCompute(h.source->ops, isa::OpKind::IntDiv);
    h.source->emitCompute(h.source->ops, isa::OpKind::IntDiv);
    for (int i = 0; i < 40; ++i)
        h.source->emitCompute(h.source->ops, isa::OpKind::IntAlu);
    h.core->start();
    // Ticks 2..8 each fail to issue the second divide. The queue holds
    // the next pipeline tick and one retry wake, not one per cycle.
    h.fabric.eventQueue().run(8);
    EXPECT_EQ(h.fabric.eventQueue().numPending(), 2u);
    drain(h.fabric);
    EXPECT_TRUE(h.core->done());
    EXPECT_GE(h.core->stats().doneTick, 2u * 12);
}

// --- The sleeping core ----------------------------------------------

TEST(SleepingCore, StoreBurstSleepsWhileStoresDrain)
{
    auto run = [](bool polled) {
        CoreHarness h(cpu::CoreConfig::io4()); // ROB 16, SB 10
        emitStoreBurst(h);
        if (polled)
            h.pollEveryCycle();
        Tick done = h.run();
        const cpu::CoreStats &st = h.core->stats();
        return std::make_tuple(done, st.robFullStalls.value(),
                               st.sbFullStalls.value(),
                               h.fabric.eventQueue().numExecuted());
    };
    auto [done, rob, sb, events] = run(false);
    auto [ref_done, ref_rob, ref_sb, ref_events] = run(true);
    // Same timing, and the stall counters equal the per-cycle count
    // of a core that ticks in every cycle.
    EXPECT_EQ(done, ref_done);
    EXPECT_GT(rob, 0u);
    EXPECT_GT(sb, 0u);
    EXPECT_EQ(rob, ref_rob);
    EXPECT_EQ(sb, ref_sb);
    // Both limits hold for most of the run, yet the whole run, memory
    // events included, executes fewer events than it has cycles: the
    // core does not tick while its stores are in flight.
    EXPECT_GT(rob, done / 2);
    EXPECT_LT(events, done);
    EXPECT_GT(ref_events, done);
}

TEST(SleepingCore, CutRunSettlesTheSkippedPolls)
{
    static constexpr Tick cut = 700;
    auto run = [](bool polled) {
        CoreHarness h(cpu::CoreConfig::io4());
        emitStoreBurst(h);
        if (polled)
            h.pollEveryCycle();
        h.core->start();
        h.fabric.eventQueue().run(cut);
        EXPECT_FALSE(h.core->done());
        if (!polled) {
            // What TiledSystem::run does for a run that reaches
            // maxCycles with a core parked on stores.
            EXPECT_TRUE(h.core->parkedOnStores());
            h.fabric.eventQueue().schedule(
                cut, [&h]() { h.core->settle(); }, EventPriority::Watch);
            h.fabric.eventQueue().run(cut);
        }
        EXPECT_EQ(h.fabric.eventQueue().curTick(), cut);
        const cpu::CoreStats &st = h.core->stats();
        return std::make_pair(st.robFullStalls.value(),
                              st.sbFullStalls.value());
    };
    auto [rob, sb] = run(false);
    auto [ref_rob, ref_sb] = run(true);
    EXPECT_GT(rob, 0u);
    EXPECT_EQ(rob, ref_rob);
    EXPECT_EQ(sb, ref_sb);
}

TEST(SleepingCore, FixedLatencyCompletesAtTheStartOfItsCycle)
{
    // A chain of dependent multiplies (3 cycles each): every link adds
    // exactly the latency, whether the core sleeps between links or
    // ticks every cycle for independent ALU work beside the chain.
    auto run = [](int links, bool busy) {
        CoreHarness h(cpu::CoreConfig::ooo4());
        uint64_t prev = 0;
        for (int i = 0; i < links; ++i) {
            prev = h.source->emitCompute(h.source->ops,
                                         isa::OpKind::IntMult, prev);
            for (int k = 0; busy && k < 6; ++k)
                h.source->emitCompute(h.source->ops, isa::OpKind::IntAlu);
        }
        return h.run();
    };
    EXPECT_EQ(run(20, false) - run(10, false), 10u * 3);
    EXPECT_EQ(run(20, true) - run(10, true), 10u * 3);
}

TEST(SleepingCore, AluStreamNeedsNoEventPerOp)
{
    // N independent 1-cycle ops at width 4: about N / 4 pipeline ticks
    // and no other event. One event per completion made it 5002 events
    // for N = 4000.
    constexpr int n = 4000;
    CoreHarness h(cpu::CoreConfig::ooo4());
    for (int i = 0; i < n; ++i)
        h.source->emitCompute(h.source->ops, isa::OpKind::IntAlu);
    Tick done = h.run();
    EXPECT_LE(done, Tick(n / 4 + 4));
    EXPECT_LE(h.fabric.eventQueue().numExecuted(), uint64_t(n / 4 + 16));
}
