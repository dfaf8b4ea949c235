/**
 * @file
 * Directed tests for the §IV-A/§IV-E flow-control machinery: credit
 * starvation and resumption, migration ordering, the eviction-delay
 * sequence window, and unknown-length stream termination.
 */

#include <gtest/gtest.h>

#include "common/test_fabric.hh"

using namespace sf;
using namespace sf::test;
using isa::StreamConfig;

namespace {

StreamConfig
affine(StreamId sid, Addr base, uint64_t len, int64_t stride = 4)
{
    StreamConfig c;
    c.sid = sid;
    c.affine.base = base;
    c.affine.elemSize = 4;
    c.affine.nDims = 1;
    c.affine.stride[0] = stride;
    c.affine.len[0] = len;
    return c;
}

sys::SystemConfig
sfOpts()
{
    sys::SystemConfig o = fabricConfig(sys::Machine::SF);
    o.nucaInterleave = 1024;
    return o;
}

void
consume(sys::TiledSystem &f, StreamId sid, uint64_t elems, int vec = 16)
{
    auto &se = *f.seCore(0);
    uint64_t done = 0;
    while (done < elems) {
        uint16_t n = static_cast<uint16_t>(
            std::min<uint64_t>(vec, elems - done));
        if (!se.canAcceptUse(sid)) {
            f.eventQueue().run(f.eventQueue().curTick() + 100);
            continue;
        }
        bool ready = false;
        se.requestElems(sid, n, [&]() { ready = true; });
        se.step(sid, n);
        int spin = 0;
        while (!ready && spin++ < 500000 && f.eventQueue().numPending() > 0)
            f.eventQueue().step();
        ASSERT_TRUE(ready);
        se.releaseAtCommit(sid, n);
        done += n;
    }
}

} // namespace

TEST(FlowControl, EngineStallsWithoutConsumption)
{
    sys::TiledSystem f(sfOpts());
    uint64_t total = (1 << 21) / 4;
    Addr buf = f.addressSpace().alloc(1 << 21);
    f.seCore(0)->configure({affine(0, buf, total)});
    ASSERT_TRUE(f.seCore(0)->isFloating(0));
    // Let the system run without consuming anything: issue must stop
    // at the initial credit window.
    drain(f);
    uint64_t issued = 0, stalls = 0;
    for (TileId t = 0; t < 4; ++t) {
        issued += f.seL3(t)->stats().lineRequestsIssued.value();
        stalls += f.seL3(t)->stats().creditStalls.value();
    }
    // Initial credits cover the SE_L2 buffer (16kB / 4B = 4k elems =
    // 256 lines), not the 512k-element stream.
    EXPECT_LE(issued, 300u);
    EXPECT_GE(stalls, 1u);
}

TEST(FlowControl, ConsumptionResumesIssue)
{
    sys::TiledSystem f(sfOpts());
    uint64_t total = (1 << 21) / 4;
    Addr buf = f.addressSpace().alloc(1 << 21);
    f.seCore(0)->configure({affine(0, buf, total)});
    drain(f);
    uint64_t issued_before = 0;
    for (TileId t = 0; t < 4; ++t)
        issued_before += f.seL3(t)->stats().lineRequestsIssued.value();

    consume(f, 0, 16384);
    drain(f);
    uint64_t issued_after = 0;
    for (TileId t = 0; t < 4; ++t)
        issued_after += f.seL3(t)->stats().lineRequestsIssued.value();
    EXPECT_GT(issued_after, issued_before + 500);
    EXPECT_GT(f.seL2(0)->stats().creditsSent.value(), 2u);
}

TEST(FlowControl, MigrationDeliversElementsInConsumableOrder)
{
    sys::TiledSystem f(sfOpts());
    // 1kB interleave = 256 elements per bank visit: consuming 4k
    // elements crosses many bank boundaries.
    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf, total)});
    consume(f, 0, 8192);
    uint64_t migrations = 0;
    for (TileId t = 0; t < 4; ++t)
        migrations += f.seL3(t)->stats().migrationsOut.value();
    EXPECT_GT(migrations, 8u);
}

TEST(FlowControl, StridedStreamMigratesMoreOften)
{
    auto run_stride = [](int64_t stride) {
        sys::TiledSystem f(sfOpts());
        Addr buf = f.addressSpace().alloc(1 << 22);
        uint64_t total = 16384;
        StreamConfig c = affine(0, buf, total, stride);
        f.seCore(0)->configure({c});
        consume(f, 0, 4096, 1);
        uint64_t mig = 0;
        for (TileId t = 0; t < 4; ++t)
            mig += f.seL3(t)->stats().migrationsOut.value();
        return mig;
    };
    // A 256B stride crosses 1kB chunks 4x as often per element as a
    // 4B stride does.
    EXPECT_GT(run_stride(256), run_stride(4) * 2);
}

TEST(FlowControl, EvictionDelayWindowTracksInFlightCredits)
{
    sys::TiledSystem f(sfOpts());
    auto &sel2 = *f.seL2(0);
    // No floated streams: nothing may ever be delayed.
    EXPECT_FALSE(sel2.mustDelayEviction(0));
    EXPECT_FALSE(sel2.mustDelayEviction(42));

    uint64_t total = (1 << 21) / 4;
    Addr buf = f.addressSpace().alloc(1 << 21);
    f.seCore(0)->configure({affine(0, buf, total)});
    // With a floated stream and a freshly-issued credit grant, a line
    // tagged with the current head must be held back...
    uint16_t head = sel2.currentCreditHead();
    EXPECT_TRUE(sel2.mustDelayEviction(head));
    // ...but after the granted window fully arrives, it drains.
    consume(f, 0, 4096);
    drain(f);
    EXPECT_FALSE(sel2.mustDelayEviction(head));
}

TEST(FlowControl, UnknownLengthStreamTerminatesByEndPacket)
{
    sys::TiledSystem f(sfOpts());
    Addr buf = f.addressSpace().alloc(1 << 21);
    StreamConfig c = affine(0, buf, (1 << 21) / 4);
    c.lengthKnown = false;
    f.seCore(0)->configure({c});
    // Force the float (history path won't run without cache activity):
    // unknown-length streams can only float via history, so simulate
    // some history by consuming through the cache first.
    if (!f.seCore(0)->isFloating(0)) {
        consume(f, 0, 4096);
    }
    // Terminate early: the SE_L2 must chase the engine with an end
    // packet; all SE_L3 entries must be gone afterwards.
    f.seCore(0)->end(0);
    drain(f);
    size_t live = 0;
    for (TileId t = 0; t < 4; ++t)
        live += f.seL3(t)->numStreams();
    EXPECT_EQ(live, 0u);
}

TEST(FlowControl, TwelveStreamsShareTheEngine)
{
    sys::TiledSystem f(sfOpts());
    std::vector<StreamConfig> group;
    std::vector<Addr> bufs;
    for (int s = 0; s < 6; ++s) {
        Addr b = f.addressSpace().alloc(1 << 20);
        bufs.push_back(b);
        group.push_back(affine(s, b, (1 << 20) / 4));
    }
    f.seCore(0)->configure(group);
    for (int s = 0; s < 6; ++s)
        EXPECT_TRUE(f.seCore(0)->isFloating(s));
    // Consume a little of each; everything must make progress.
    for (int s = 0; s < 6; ++s)
        consume(f, s, 256);
}

TEST(FlowControl, ContextSwitchFlushDiscardsFloatingStreams)
{
    sys::TiledSystem f(sfOpts());
    uint64_t total = (1 << 21) / 4;
    Addr buf = f.addressSpace().alloc(1 << 21);
    f.seCore(0)->configure({affine(0, buf, total)});
    ASSERT_TRUE(f.seCore(0)->isFloating(0));
    consume(f, 0, 512);

    f.seCore(0)->contextSwitchFlush();
    EXPECT_FALSE(f.seCore(0)->isFloating(0));
    drain(f);
    size_t live = 0;
    for (TileId t = 0; t < 4; ++t)
        live += f.seL3(t)->numStreams();
    EXPECT_EQ(live, 0u);

    // Execution continues through the cache path...
    consume(f, 0, 512);
    // ...and a fresh configuration may float again (no sink stigma).
    f.seCore(0)->end(0);
    f.seCore(0)->configure({affine(0, buf, total)});
    EXPECT_TRUE(f.seCore(0)->isFloating(0));
    consume(f, 0, 256);
}

TEST(FlowControl, TinyBufferNeverStarvesCredits)
{
    // Regression: when the core's requests run ahead of the grant
    // horizon (consumed > granted), the credit accounting must clamp
    // rather than wrap and starve the stream forever.
    auto opts = sfOpts();
    opts.sel2.bufferBytes = 2048;
    sys::TiledSystem f(opts);
    uint64_t total = (1 << 21) / 4;
    Addr buf = f.addressSpace().alloc(1 << 21);
    f.seCore(0)->configure({affine(0, buf, total)});
    ASSERT_TRUE(f.seCore(0)->isFloating(0));
    consume(f, 0, 16384);
    EXPECT_GT(f.seL2(0)->stats().creditsSent.value(), 10u);
}
