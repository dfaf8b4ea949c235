/**
 * @file
 * Float/sink protocol hardening tests on a core-less TiledSystem:
 * NACK on SE_L3 table overflow with core-fetch fallback, credit
 * stall -> migrate -> resume, ack-timeout retry after a lost config,
 * duplicate control messages, and the no-retry wedge that the
 * forward-progress watchdog must convert into a diagnosable failure.
 */

#include <gtest/gtest.h>

#include "common/test_fabric.hh"
#include "flt/stream_msg.hh"
#include "sim/watchdog.hh"

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

/** Consume elements of one stream through the SE like a core would. */
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

TEST(Overflow, FullTableNacksAndStreamFallsBackToCoreFetch)
{
    auto opts = sfOpts();
    // Every SE_L3 table holds a single stream: the second large
    // stream's config (or a migration) must be refused.
    opts.sel3.maxStreams = 1;
    sys::TiledSystem f(opts);
    uint64_t total = (1 << 20) / 4;
    Addr a = f.addressSpace().alloc(1 << 20);
    Addr b = f.addressSpace().alloc(1 << 20);
    Addr c = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, a, total), affine(1, b, total),
                           affine(2, c, total)});

    consumeAll(f, 0, 0, 1024);
    consumeAll(f, 0, 1, 1024);
    consumeAll(f, 0, 2, 1024);
    drain(f);

    uint64_t nacks_sent = 0;
    for (TileId t = 0; t < 4; ++t)
        nacks_sent += f.seL3(t)->stats().floatNacksSent.value();
    EXPECT_GT(nacks_sent, 0u);
    EXPECT_GT(f.seL2(0)->stats().floatNacks.value(), 0u);
    // NACKed streams were sunk and completed through the cache path.
    EXPECT_GT(f.seCore(0)->stats().streamsSunk.value(), 0u);
}

TEST(Overflow, NackedStreamNeverWedges)
{
    auto opts = sfOpts();
    opts.sel3.maxStreams = 1;
    sys::TiledSystem f(opts);
    uint64_t total = (1 << 19) / 4;
    Addr a = f.addressSpace().alloc(1 << 19);
    Addr b = f.addressSpace().alloc(1 << 19);
    f.seCore(0)->configure({affine(0, a, total)});
    f.seCore(1)->configure({affine(0, b, total)});
    // Both tiles make full progress regardless of who won the table.
    consumeAll(f, 0, 0, 4096);
    consumeAll(f, 1, 0, 4096);
}

TEST(Credits, StallMigrateResume)
{
    auto opts = sfOpts(1024);
    // A tiny stream buffer keeps the credit horizon close to the
    // consumption point, so the remote engine repeatedly stalls on
    // credit, and the 1kB interleave forces migrations while stalled.
    opts.sel2.bufferBytes = 2048;
    sys::TiledSystem f(opts);
    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf, total)});
    ASSERT_TRUE(f.seCore(0)->isFloating(0));

    consumeAll(f, 0, 0, 16384);

    uint64_t stalls = 0, migrations = 0;
    for (TileId t = 0; t < 4; ++t) {
        stalls += f.seL3(t)->stats().creditStalls.value();
        migrations += f.seL3(t)->stats().migrationsOut.value();
    }
    // The stream stalled, migrated across banks, and still delivered
    // every element: stall -> migrate -> resume works end to end.
    EXPECT_GT(stalls, 0u);
    EXPECT_GT(migrations, 4u);
    EXPECT_GT(f.seL2(0)->stats().dataArrived.value(), 0u);
}

TEST(Retry, LostConfigIsResentAfterAckTimeout)
{
    auto opts = sfOpts();
    opts.sel2.floatAckTimeout = 2000;
    sys::TiledSystem f(opts);

    // Drop only the first float request; later ones (the retry)
    // deliver normally.
    int dropped = 0;
    f.mesh().setSendInterceptor(
        [&dropped](const noc::MsgPtr &m, Cycles &) {
            if (std::dynamic_pointer_cast<flt::StreamFloatMsg>(m) &&
                dropped == 0) {
                ++dropped;
                return noc::Mesh::SendAction::Drop;
            }
            return noc::Mesh::SendAction::Deliver;
        });

    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf, total)});
    ASSERT_TRUE(f.seCore(0)->isFloating(0));

    consumeAll(f, 0, 0, 2048);

    EXPECT_EQ(dropped, 1);
    EXPECT_GT(f.seL2(0)->stats().floatRetries.value(), 0u);
    EXPECT_GT(f.seL2(0)->stats().acksReceived.value(), 0u);
    EXPECT_GT(f.seL2(0)->stats().dataArrived.value(), 0u);
}

TEST(Retry, AllConfigsLostFallsBackToCoreFetch)
{
    auto opts = sfOpts();
    opts.sel2.floatAckTimeout = 1000;
    opts.sel2.maxFloatRetries = 2;
    sys::TiledSystem f(opts);

    // Every float request vanishes: after maxFloatRetries resends the
    // SE_L2 must permanently sink the stream to the core-fetch path.
    f.mesh().setSendInterceptor([](const noc::MsgPtr &m, Cycles &) {
        if (std::dynamic_pointer_cast<flt::StreamFloatMsg>(m))
            return noc::Mesh::SendAction::Drop;
        return noc::Mesh::SendAction::Deliver;
    });

    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf, total)});

    consumeAll(f, 0, 0, 1024);

    EXPECT_GT(f.seL2(0)->stats().floatFallbacks.value(), 0u);
    EXPECT_FALSE(f.seCore(0)->isFloating(0));
    // No remote data ever arrived; everything came through the cache.
    EXPECT_EQ(f.seL2(0)->stats().dataArrived.value(), 0u);
}

TEST(Duplicates, ControlMessagesAreIdempotent)
{
    sys::TiledSystem f(sfOpts());
    // Duplicate every stream control message (config, credit, end,
    // ack): the protocol must treat replays as no-ops.
    f.mesh().setSendInterceptor([](const noc::MsgPtr &m, Cycles &) {
        if (std::dynamic_pointer_cast<flt::StreamFloatMsg>(m) ||
            std::dynamic_pointer_cast<flt::StreamCreditMsg>(m) ||
            std::dynamic_pointer_cast<flt::StreamEndMsg>(m) ||
            std::dynamic_pointer_cast<flt::StreamAckMsg>(m)) {
            return noc::Mesh::SendAction::Duplicate;
        }
        return noc::Mesh::SendAction::Deliver;
    });

    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf, total)});
    ASSERT_TRUE(f.seCore(0)->isFloating(0));

    consumeAll(f, 0, 0, 4096);
    f.seCore(0)->end(0);
    drain(f);

    EXPECT_GT(f.seL2(0)->stats().dataArrived.value(), 0u);
    // No engine should still hold the ended stream.
    for (TileId t = 0; t < 4; ++t)
        EXPECT_EQ(f.seL3(t)->numStreams(), 0u);
}

TEST(Duplicates, DelayedControlMessagesStillComplete)
{
    sys::TiledSystem f(sfOpts());
    // Add 500 cycles to every credit grant: slower, never wrong.
    f.mesh().setSendInterceptor([](const noc::MsgPtr &m, Cycles &d) {
        if (std::dynamic_pointer_cast<flt::StreamCreditMsg>(m)) {
            d = 500;
            return noc::Mesh::SendAction::Delay;
        }
        return noc::Mesh::SendAction::Deliver;
    });
    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf, total)});
    consumeAll(f, 0, 0, 2048);
    EXPECT_GT(f.seL2(0)->stats().dataArrived.value(), 0u);
}

TEST(Watchdog, CatchesNoRetryWedge)
{
    auto opts = sfOpts();
    // The graceful-degradation machinery is off: a lost config wedges
    // the floated stream for good...
    opts.sel2.retryEnabled = false;
    sys::TiledSystem f(opts);
    f.mesh().setSendInterceptor([](const noc::MsgPtr &m, Cycles &) {
        if (std::dynamic_pointer_cast<flt::StreamFloatMsg>(m))
            return noc::Mesh::SendAction::Drop;
        return noc::Mesh::SendAction::Deliver;
    });

    uint64_t total = (1 << 20) / 4;
    Addr buf = f.addressSpace().alloc(1 << 20);
    f.seCore(0)->configure({affine(0, buf, total)});
    ASSERT_TRUE(f.seCore(0)->isFloating(0));

    // ... so the watchdog must convert the silent hang into a
    // diagnosable WatchdogTimeout.
    Watchdog wd(f.eventQueue(), 20'000);
    wd.addProbe("dataArrived", [&f] {
        return f.seL2(0)->stats().dataArrived.value();
    });
    wd.start();

    auto &se = *f.seCore(0);
    bool ready = false;
    se.requestElems(0, 16, [&ready]() { ready = true; });
    se.step(0, 16);

    try {
        f.eventQueue().run(1'000'000);
        FAIL() << "wedged stream was not caught";
    } catch (const FatalError &e) {
        EXPECT_EQ(e.code(), ExitCode::WatchdogTimeout);
    }
    wd.stop();
    EXPECT_FALSE(ready);
}
