/**
 * @file
 * Stream-floating tests: the §IV-D float/sink policy, SE_L2 buffering
 * and flow control, SE_L3 issue and migration, indirect floating with
 * subline transfer, and stream confluence — on a core-less TiledSystem.
 */

#include <gtest/gtest.h>

#include "common/test_fabric.hh"
#include "sim/rng.hh"

using namespace sf;
using namespace sf::test;
using isa::StreamConfig;

namespace {

StreamConfig
affine(StreamId sid, Addr base, uint64_t len, int64_t stride = 4,
       uint32_t esz = 4)
{
    StreamConfig c;
    c.sid = sid;
    c.affine.base = base;
    c.affine.elemSize = esz;
    c.affine.nDims = 1;
    c.affine.stride[0] = stride;
    c.affine.len[0] = len;
    return c;
}

sys::SystemConfig
sfOpts(uint32_t interleave = 1024)
{
    sys::SystemConfig o = fabricConfig(sys::Machine::SF);
    o.nucaInterleave = interleave;
    return o;
}

/** Consume a whole floated stream through the SE like a core would. */
void
consumeAll(sys::TiledSystem &f, TileId tile, StreamId sid, uint64_t total,
           int vec = 16)
{
    auto &se = *f.seCore(tile);
    uint64_t consumed = 0;
    int guard = 0;
    while (consumed < total && guard < 100000) {
        uint16_t n = static_cast<uint16_t>(
            std::min<uint64_t>(vec, total - consumed));
        if (!se.canAcceptUse(sid)) {
            f.eventQueue().run(f.eventQueue().curTick() + 50);
            ++guard;
            continue;
        }
        bool ready = false;
        se.requestElems(sid, n, [&]() { ready = true; });
        se.step(sid, n);
        int spin = 0;
        while (!ready && spin++ < 500000 && f.eventQueue().numPending() > 0)
            f.eventQueue().step();
        ASSERT_TRUE(ready) << "element wait timed out";
        se.releaseAtCommit(sid, n);
        consumed += n;
        ++guard;
    }
    EXPECT_EQ(consumed, total);
}

} // namespace

TEST(Float, LargeKnownFootprintFloatsAtConfigure)
{
    sys::TiledSystem f(sfOpts());
    // 1MB footprint >> 256kB L2: floats immediately (§IV-D).
    Addr buf = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf, (1 << 20) / 4)});
    EXPECT_TRUE(f.seCore(0)->isFloating(0));
    EXPECT_EQ(f.seCore(0)->stats().footprintFloats.value(), 1u);
}

TEST(Float, SmallKnownFootprintStaysAtCore)
{
    sys::TiledSystem f(sfOpts());
    Addr buf = f.addressSpace().alloc(4096);
    f.seCore(0)->configure({affine(0, buf, 64)});
    EXPECT_FALSE(f.seCore(0)->isFloating(0));
}

TEST(Float, FloatedStreamDeliversAllElements)
{
    sys::TiledSystem f(sfOpts());
    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf, total)});
    ASSERT_TRUE(f.seCore(0)->isFloating(0));
    consumeAll(f, 0, 0, 4096); // consume the first 4096 elements
    EXPECT_GT(f.seL2(0)->stats().dataArrived.value(), 0u);
}

TEST(Float, FloatedStreamEliminatesPerLineRequests)
{
    // The floated stream's data arrives via DataU without GetS
    // requests from the requesting tile.
    sys::TiledSystem f(sfOpts());
    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf, total)});
    consumeAll(f, 0, 0, 2048);
    drain(f);
    uint64_t float_reqs = 0, core_reqs = 0;
    for (TileId t = 0; t < 4; ++t) {
        const auto &s = f.l3Bank(t).stats();
        float_reqs += s.requestsByClass[2].value(); // FloatAffine
        core_reqs += s.requestsByClass[0].value();  // CoreNormal
    }
    EXPECT_GT(float_reqs, 100u);
    EXPECT_EQ(core_reqs, 0u);
}

TEST(Float, StreamMigratesAcrossBanks)
{
    sys::TiledSystem f(sfOpts(1024));
    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf, total)});
    consumeAll(f, 0, 0, 8192); // span many 1kB interleave chunks
    uint64_t migrations = 0;
    for (TileId t = 0; t < 4; ++t)
        migrations += f.seL3(t)->stats().migrationsOut.value();
    EXPECT_GT(migrations, 4u);
}

TEST(Float, CreditsFlowAndGateIssue)
{
    sys::TiledSystem f(sfOpts());
    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf, total)});
    consumeAll(f, 0, 0, 8192);
    EXPECT_GT(f.seL2(0)->stats().creditsSent.value(), 0u);
    uint64_t issued = 0;
    for (TileId t = 0; t < 4; ++t)
        issued += f.seL3(t)->stats().lineRequestsIssued.value();
    // Issue stays within the credit horizon: roughly consumed + buffer
    // capacity, far below the full stream.
    EXPECT_LT(issued, 8192u / 16 + 2048);
}

TEST(Float, SinkOnRepeatedCacheHits)
{
    sys::TiledSystem f(sfOpts());
    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);

    // Warm the private cache with the stream's first lines.
    int done = 0;
    for (int i = 0; i < 64; ++i)
        demand(f, 0, buf + static_cast<Addr>(i) * 64, false, &done);
    drain(f);

    f.seCore(0)->configure({affine(0, buf, total)});
    ASSERT_TRUE(f.seCore(0)->isFloating(0));
    consumeAll(f, 0, 0, 1024);
    // Repeated private-cache hits on floated fetches sink the stream
    // (§IV-D, threshold 8).
    EXPECT_GT(f.seCore(0)->stats().streamsSunk.value(), 0u);
    EXPECT_FALSE(f.seCore(0)->isFloating(0));
}

TEST(Float, AliasingStoreSinksFloatedStream)
{
    sys::TiledSystem f(sfOpts());
    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf, total)});
    ASSERT_TRUE(f.seCore(0)->isFloating(0));
    consumeAll(f, 0, 0, 256);
    // Store into the not-yet-consumed part of the floated window.
    f.seCore(0)->storeCommitted(buf + 300 * 4, 4);
    EXPECT_FALSE(f.seCore(0)->isFloating(0));
    EXPECT_GT(f.seCore(0)->stats().streamsSunk.value(), 0u);
    // The stream still completes through the cache path.
    consumeAll(f, 0, 0, 512);
}

TEST(Float, UnfloatSendsEndPacketForUnfinishedStream)
{
    sys::TiledSystem f(sfOpts());
    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf, total)});
    consumeAll(f, 0, 0, 128);
    f.seCore(0)->end(0);
    drain(f);
    EXPECT_GT(f.seL2(0)->stats().endsSent.value(), 0u);
}

TEST(Float, IndirectFloatsWithBaseAndUsesSubline)
{
    sys::TiledSystem f(sfOpts());
    uint64_t n = (1 << 20) / 4;
    Addr a = f.addressSpace().alloc(n * 4);
    Addr b = f.addressSpace().alloc(1 << 22);
    Rng rng(77);
    for (uint64_t i = 0; i < n; ++i) {
        f.addressSpace().writeT<int32_t>(a + i * 4,
                               static_cast<int32_t>(
                                   rng.range((1 << 22) / 4)));
    }
    StreamConfig base = affine(0, a, n);
    StreamConfig ind;
    ind.sid = 1;
    ind.hasIndirect = true;
    ind.baseSid = 0;
    ind.indirect.base = b;
    ind.indirect.elemSize = 4;
    ind.indirect.idxSize = 4;
    ind.indirect.scale = 4;
    ind.affine.elemSize = 4;
    ind.affine.len[0] = n;
    f.seCore(0)->configure({base, ind});
    ASSERT_TRUE(f.seCore(0)->isFloating(0));
    ASSERT_TRUE(f.seCore(0)->isFloating(1));

    consumeAll(f, 0, 1, 512, 1); // consume indirect elements
    uint64_t ind_reqs = 0;
    for (TileId t = 0; t < 4; ++t)
        ind_reqs += f.seL3(t)->stats().indirectRequestsIssued.value();
    EXPECT_GT(ind_reqs, 100u);
}

TEST(Confluence, SamePatternStreamsFromOneBlockMerge)
{
    sys::TiledSystem f(sfOpts());
    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);
    // Tiles 0 and 1 are in the same 2x2 block of the 2x2 fabric.
    f.seCore(0)->configure({affine(0, buf, total)});
    f.seCore(1)->configure({affine(0, buf, total)});
    drain(f);
    uint64_t merges = 0;
    for (TileId t = 0; t < 4; ++t)
        merges += f.seL3(t)->stats().confluenceMerges.value();
    EXPECT_GT(merges, 0u);
}

TEST(Confluence, MergedStreamsMulticastResponses)
{
    sys::TiledSystem f(sfOpts());
    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf, total)});
    f.seCore(1)->configure({affine(0, buf, total)});
    consumeAll(f, 0, 0, 2048);
    consumeAll(f, 1, 0, 2048);
    uint64_t conf_reqs = 0;
    for (TileId t = 0; t < 4; ++t)
        conf_reqs += f.l3Bank(t).stats().requestsByClass[4].value();
    EXPECT_GT(conf_reqs, 50u);
    // Both tiles received data despite merged requests.
    EXPECT_GT(f.seL2(0)->stats().dataArrived.value(), 0u);
    EXPECT_GT(f.seL2(1)->stats().dataArrived.value(), 0u);
}

TEST(Confluence, DifferentPatternsDoNotMerge)
{
    sys::TiledSystem f(sfOpts());
    uint64_t total = (1 << 20) / 4;
    Addr buf1 = f.addressSpace().alloc(1 << 20);
    Addr buf2 = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf1, total)});
    f.seCore(1)->configure({affine(0, buf2, total)});
    drain(f);
    uint64_t merges = 0;
    for (TileId t = 0; t < 4; ++t)
        merges += f.seL3(t)->stats().confluenceMerges.value();
    EXPECT_EQ(merges, 0u);
}

TEST(Confluence, DisabledByConfig)
{
    auto opts = sfOpts();
    opts.sel3.enableConfluence = false;
    sys::TiledSystem f(opts);
    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf, total)});
    f.seCore(1)->configure({affine(0, buf, total)});
    drain(f);
    uint64_t merges = 0;
    for (TileId t = 0; t < 4; ++t)
        merges += f.seL3(t)->stats().confluenceMerges.value();
    EXPECT_EQ(merges, 0u);
}

TEST(Float, RefloatAfterSinkUsesNewGeneration)
{
    sys::TiledSystem f(sfOpts());
    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf, total)});
    consumeAll(f, 0, 0, 128);
    f.seCore(0)->requestSink(0);
    EXPECT_FALSE(f.seCore(0)->isFloating(0));
    f.seCore(0)->end(0);
    drain(f);

    // Reconfigure the same sid: floats again and completes cleanly.
    f.seCore(0)->configure({affine(0, buf, total)});
    EXPECT_TRUE(f.seCore(0)->isFloating(0));
    consumeAll(f, 0, 0, 512);
}

TEST(StencilReuse, ConstantOffsetStreamsShareTheLeadersData)
{
    sys::TiledSystem f(sfOpts());
    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 21);
    // A[i], A[i+1], A[i+2]: the pathfinder pattern (§IV-B).
    f.seCore(0)->configure({affine(0, buf, total),
                           affine(1, buf + 4, total),
                           affine(2, buf + 8, total)});
    ASSERT_TRUE(f.seCore(0)->isFloating(0));
    ASSERT_TRUE(f.seCore(0)->isFloating(1));
    ASSERT_TRUE(f.seCore(0)->isFloating(2));
    EXPECT_EQ(f.seL2(0)->stats().stencilMerges.value(), 2u);

    // Consume all three in lockstep like a stencil loop would.
    auto &se = *f.seCore(0);
    for (int i = 0; i < 200; ++i) {
        int ready = 0;
        for (StreamId s : {0, 1, 2}) {
            se.requestElems(s, 16, [&]() { ++ready; });
            se.step(s, 16);
        }
        int spin = 0;
        while (ready < 3 && spin++ < 200000 && f.eventQueue().numPending() > 0)
            f.eventQueue().step();
        ASSERT_EQ(ready, 3) << "stencil element wait timed out at " << i;
        for (StreamId s : {0, 1, 2})
            se.releaseAtCommit(s, 16);
    }
    EXPECT_GT(f.seL2(0)->stats().stencilServes.value(), 0u);
}

TEST(StencilReuse, CutsStreamDataTraffic)
{
    auto run_once = [](bool enable) {
        auto opts = sfOpts();
        opts.sel2.enableStencilReuse = enable;
        sys::TiledSystem f(opts);
        uint64_t total = (1 << 19) / 4;
        Addr buf = f.addressSpace().alloc(1 << 20);
        f.seCore(0)->configure({affine(0, buf, total),
                               affine(1, buf + 4, total),
                               affine(2, buf + 8, total)});
        auto &se = *f.seCore(0);
        for (int i = 0; i < 400; ++i) {
            int ready = 0;
            for (StreamId s : {0, 1, 2}) {
                se.requestElems(s, 16, [&]() { ++ready; });
                se.step(s, 16);
            }
            int spin = 0;
            while (ready < 3 && spin++ < 200000 &&
                   f.eventQueue().numPending() > 0) {
                f.eventQueue().step();
            }
            EXPECT_EQ(ready, 3);
            for (StreamId s : {0, 1, 2})
                se.releaseAtCommit(s, 16);
        }
        drain(f);
        return f.mesh().traffic().flitsInjected[1]; // data flits
    };
    uint64_t with = run_once(true);
    uint64_t without = run_once(false);
    // Three shifted streams collapse to roughly one stream's worth of
    // DataU traffic; the remaining data flits are the DRAM fills that
    // happen either way. Expect at least a 25% total reduction.
    EXPECT_LT(with * 4, without * 3);
}

TEST(StencilReuse, DisabledConfigFloatsIndependently)
{
    auto opts = sfOpts();
    opts.sel2.enableStencilReuse = false;
    sys::TiledSystem f(opts);
    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 21);
    f.seCore(0)->configure({affine(0, buf, total),
                           affine(1, buf + 4, total)});
    EXPECT_EQ(f.seL2(0)->stats().stencilMerges.value(), 0u);
}

TEST(StencilReuse, DifferentStridesDoNotMerge)
{
    sys::TiledSystem f(sfOpts());
    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 22);
    isa::StreamConfig a = affine(0, buf, total, 4);
    isa::StreamConfig b = affine(1, buf + 4, total, 8);
    f.seCore(0)->configure({a, b});
    EXPECT_EQ(f.seL2(0)->stats().stencilMerges.value(), 0u);
}
