/**
 * @file
 * Core model tests: in-order vs out-of-order scheduling, dependences,
 * LSQ reservation, store buffer, and barriers, using synthetic op
 * sources over a core-less TiledSystem.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/test_fabric.hh"
#include "cpu/core.hh"
#include "isa/op_source.hh"

using namespace sf;
using namespace sf::test;

namespace {

/** Op source serving a pre-built vector of ops. */
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

    using isa::OpEmitter::emitBarrier;
    using isa::OpEmitter::emitCompute;
    using isa::OpEmitter::emitLoad;
    using isa::OpEmitter::emitStore;
};

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

    sys::TiledSystem fabric;
    std::unique_ptr<FixedSource> source;
    std::unique_ptr<cpu::Core> core;
};

} // namespace

TEST(Core, ExecutesComputeChain)
{
    CoreHarness h(cpu::CoreConfig::ooo4());
    std::vector<isa::Op> &ops = h.source->ops;
    uint64_t prev = 0;
    for (int i = 0; i < 100; ++i)
        prev = h.source->emitCompute(ops, isa::OpKind::IntAlu, prev);
    Tick t = h.run();
    EXPECT_EQ(h.core->stats().committedOps.value(), 100u);
    // A fully serial 1-cycle chain takes at least 100 cycles.
    EXPECT_GE(t, 100u);
}

TEST(Core, IndependentOpsUseFullWidth)
{
    CoreHarness h(cpu::CoreConfig::ooo4());
    std::vector<isa::Op> &ops = h.source->ops;
    for (int i = 0; i < 400; ++i)
        h.source->emitCompute(ops, isa::OpKind::IntAlu);
    Tick serial_bound = 400;
    Tick t = h.run();
    // 4-wide: should take roughly 100 cycles + pipeline overheads,
    // far below serial execution.
    EXPECT_LT(t, serial_bound / 2);
}

TEST(Core, DivLatencyAndStructuralHazard)
{
    CoreHarness h(cpu::CoreConfig::ooo4());
    std::vector<isa::Op> &ops = h.source->ops;
    // 8 independent divides on 2 non-pipelined dividers: >= 4 waves of
    // 12 cycles.
    for (int i = 0; i < 8; ++i)
        h.source->emitCompute(ops, isa::OpKind::IntDiv);
    Tick t = h.run();
    EXPECT_GE(t, 4u * 12);
}

TEST(Core, OooOverlapsIndependentLoadMisses)
{
    cpu::CoreConfig ooo = cpu::CoreConfig::ooo4();
    CoreHarness h(ooo);
    Addr buf = h.fabric.addressSpace().alloc(1 << 20);
    std::vector<isa::Op> &ops = h.source->ops;
    // 16 independent loads to distinct lines.
    for (int i = 0; i < 16; ++i)
        h.source->emitLoad(ops, buf + static_cast<Addr>(i) * 4096, 4,
                           100 + i);
    Tick t_ooo = h.run();

    // Serial version: each load depends on the previous one.
    CoreHarness hs(ooo);
    Addr buf2 = hs.fabric.addressSpace().alloc(1 << 20);
    std::vector<isa::Op> &ops2 = hs.source->ops;
    uint64_t prev = 0;
    for (int i = 0; i < 16; ++i) {
        prev = hs.source->emitLoad(ops2,
                                   buf2 + static_cast<Addr>(i) * 4096, 4,
                                   100 + i, prev);
    }
    Tick t_serial = hs.run();
    EXPECT_LT(t_ooo * 3, t_serial);
}

TEST(Core, InOrderStallsOnUseNotOnLoad)
{
    cpu::CoreConfig io = cpu::CoreConfig::io4();
    // Load then many independent ALU ops then the use: the in-order
    // core should overlap the ALU work with the miss.
    CoreHarness h(io);
    Addr buf = h.fabric.addressSpace().alloc(4096);
    std::vector<isa::Op> &ops = h.source->ops;
    uint64_t ld = h.source->emitLoad(ops, buf, 4, 1);
    for (int i = 0; i < 60; ++i)
        h.source->emitCompute(ops, isa::OpKind::IntAlu);
    h.source->emitCompute(ops, isa::OpKind::IntAlu, ld);
    Tick t_overlap = h.run();

    // Use immediately after the load: the stall is exposed.
    CoreHarness h2(io);
    Addr buf2 = h2.fabric.addressSpace().alloc(4096);
    std::vector<isa::Op> &ops2 = h2.source->ops;
    uint64_t ld2 = h2.source->emitLoad(ops2, buf2, 4, 1);
    h2.source->emitCompute(ops2, isa::OpKind::IntAlu, ld2);
    for (int i = 0; i < 60; ++i)
        h2.source->emitCompute(ops2, isa::OpKind::IntAlu);
    Tick t_exposed = h2.run();

    // Both pay the miss once, but the overlap version hides the ALU
    // work inside it; they should be within a few cycles of each
    // other, and crucially the overlap version must not pay twice.
    EXPECT_LE(t_overlap, t_exposed + 8);
}

TEST(Core, InOrderSlowerThanOooOnMixedCode)
{
    auto build = [](FixedSource &src, sys::TiledSystem &f) {
        Addr buf = f.addressSpace().alloc(1 << 20);
        std::vector<isa::Op> &ops = src.ops;
        uint64_t prev = 0;
        for (int i = 0; i < 64; ++i) {
            uint64_t ld = src.emitLoad(
                ops, buf + static_cast<Addr>(i * 17 % 64) * 4096, 4, 7);
            prev = src.emitCompute(ops, isa::OpKind::FpAlu, ld, prev);
        }
    };
    CoreHarness io(cpu::CoreConfig::io4());
    build(*io.source, io.fabric);
    Tick t_io = io.run();

    CoreHarness ooo(cpu::CoreConfig::ooo8());
    build(*ooo.source, ooo.fabric);
    Tick t_ooo = ooo.run();

    EXPECT_LT(t_ooo, t_io);
}

TEST(Core, StoresDrainThroughStoreBuffer)
{
    CoreHarness h(cpu::CoreConfig::ooo4());
    Addr buf = h.fabric.addressSpace().alloc(64 * 1024);
    std::vector<isa::Op> &ops = h.source->ops;
    for (int i = 0; i < 100; ++i)
        h.source->emitStore(ops, buf + static_cast<Addr>(i) * 64, 4, 9);
    h.run();
    EXPECT_EQ(h.core->stats().committedStores.value(), 100u);
    // All stores actually reached the cache.
    EXPECT_GT(h.fabric.privCache(0).stats().l2Misses.value(), 0u);
}

TEST(Core, OlderLoadCannotBeStarvedByYoungerOnes)
{
    // Regression test: LQ entries are reserved in program order, so a
    // dependent head load must not be starved by a flood of younger
    // independent loads (the b+tree deadlock).
    CoreHarness h(cpu::CoreConfig::ooo8());
    Addr buf = h.fabric.addressSpace().alloc(1 << 22);
    std::vector<isa::Op> &ops = h.source->ops;
    uint64_t prev = 0;
    for (int q = 0; q < 40; ++q) {
        // A serial pointer chase...
        for (int l = 0; l < 4; ++l) {
            prev = h.source->emitLoad(
                ops, buf + static_cast<Addr>((q * 4 + l) * 131) % (1 << 22),
                4, 11, prev);
        }
        // ...followed by many independent loads.
        for (int l = 0; l < 8; ++l) {
            h.source->emitLoad(
                ops, buf + static_cast<Addr>((q * 8 + l) * 4096) % (1 << 22),
                4, 12);
        }
    }
    h.run();
    EXPECT_TRUE(h.core->done());
}

TEST(Core, BarrierSynchronizesTwoCores)
{
    sys::TiledSystem f(fabricConfig());
    cpu::BarrierController barrier(f.eventQueue(), 2);

    auto s0 = std::make_unique<FixedSource>();
    auto s1 = std::make_unique<FixedSource>();
    // Core 0: short work then barrier. Core 1: long work then barrier.
    s0->emitCompute(s0->ops, isa::OpKind::IntAlu);
    s0->emitBarrier(s0->ops);
    uint64_t prev = 0;
    for (int i = 0; i < 500; ++i)
        prev = s1->emitCompute(s1->ops, isa::OpKind::IntAlu, prev);
    s1->emitBarrier(s1->ops);

    cpu::Core c0("c0", f.eventQueue(), 0, cpu::CoreConfig::ooo4(),
                 f.privCache(0), f.tlb(0), f.addressSpace(), &barrier,
                 s0.get());
    cpu::Core c1("c1", f.eventQueue(), 1, cpu::CoreConfig::ooo4(),
                 f.privCache(1), f.tlb(1), f.addressSpace(), &barrier,
                 s1.get());
    c0.start();
    c1.start();
    drain(f);
    ASSERT_TRUE(c0.done());
    ASSERT_TRUE(c1.done());
    // The fast core waits for the slow one: done ticks nearly equal.
    Tick d0 = c0.stats().doneTick;
    Tick d1 = c1.stats().doneTick;
    EXPECT_LT(d0 > d1 ? d0 - d1 : d1 - d0, 50u);
    EXPECT_GE(d0, 125u); // must have waited for ~500 serial ALUs
}

TEST(Core, WideVectorAccesssSplitAcrossLines)
{
    CoreHarness h(cpu::CoreConfig::ooo4());
    Addr buf = h.fabric.addressSpace().alloc(1 << 16);
    std::vector<isa::Op> &ops = h.source->ops;
    // 64B loads at +32 offsets straddle line boundaries.
    for (int i = 0; i < 32; ++i) {
        h.source->emitLoad(ops, buf + 32 + static_cast<Addr>(i) * 64,
                           64, 5);
    }
    h.run();
    EXPECT_TRUE(h.core->done());
    EXPECT_EQ(h.core->stats().committedLoads.value(), 32u);
}
