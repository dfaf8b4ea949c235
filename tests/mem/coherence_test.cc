/**
 * @file
 * Directed MESI + GetU protocol tests on a core-less TiledSystem.
 *
 * These drive demand accesses into private caches and assert on the
 * observable protocol behaviour: hit/miss counters, directory
 * forwarding, invalidations, writebacks, and the uncached-read
 * extension of Fig. 12.
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/test_fabric.hh"

using namespace sf;
using namespace sf::test;

namespace {

Addr
someLine(sys::TiledSystem &f)
{
    return f.addressSpace().alloc(4096);
}

/**
 * An SE_L3-style GetU for @p line_addr on behalf of stream
 * (@p requester, @p sid), to be handed to its home bank's recvMsg.
 */
mem::MemMsgPtr
getU(sys::TiledSystem &f, Addr line_addr, TileId requester, StreamId sid)
{
    TileId home = f.nuca().bankOf(line_addr);
    auto msg = mem::makeMemMsg(mem::MemMsgType::GetU, line_addr, home,
                               home, requester);
    msg->stream = {requester, sid};
    msg->reqClass = mem::ReqClass::FloatAffine;
    return msg;
}

} // namespace

TEST(Coherence, ColdReadMissesToMemory)
{
    sys::TiledSystem f(fabricConfig());
    Addr v = someLine(f);
    int done = 0;
    demand(f, 0, v, false, &done);
    drain(f);
    EXPECT_EQ(done, 1);
    EXPECT_EQ(f.privCache(0).stats().l1Misses.value(), 1u);
    EXPECT_EQ(f.privCache(0).stats().l2Misses.value(), 1u);
    uint64_t l3_misses = 0;
    for (int t = 0; t < 4; ++t)
        l3_misses += f.l3Bank(t).stats().misses.value();
    EXPECT_EQ(l3_misses, 1u);
}

TEST(Coherence, SecondReadHitsInL1)
{
    sys::TiledSystem f(fabricConfig());
    Addr v = someLine(f);
    int done = 0;
    demand(f, 0, v, false, &done);
    drain(f);
    demand(f, 0, v, false, &done);
    drain(f);
    EXPECT_EQ(done, 2);
    EXPECT_EQ(f.privCache(0).stats().l1Hits.value(), 1u);
}

TEST(Coherence, ReadAfterRemoteReadForwardsOrServesShared)
{
    sys::TiledSystem f(fabricConfig());
    Addr v = someLine(f);
    int done = 0;
    demand(f, 0, v, false, &done);
    drain(f);
    demand(f, 1, v, false, &done);
    drain(f);
    EXPECT_EQ(done, 2);
    // Core 0 got E; core 1's GetS must have been forwarded to core 0.
    uint64_t fwds = 0;
    for (int t = 0; t < 4; ++t)
        fwds += f.l3Bank(t).stats().fwdRequests.value();
    EXPECT_EQ(fwds, 1u);
}

TEST(Coherence, WriteAfterReadersInvalidates)
{
    sys::TiledSystem f(fabricConfig());
    Addr v = someLine(f);
    int done = 0;
    // Three sharers.
    demand(f, 0, v, false, &done);
    drain(f);
    demand(f, 1, v, false, &done);
    drain(f);
    demand(f, 2, v, false, &done);
    drain(f);
    // Core 3 writes: everyone else must drop the line.
    demand(f, 3, v, true, &done);
    drain(f);
    EXPECT_EQ(done, 4);

    // Re-reads from the old sharers miss again (they were invalidated)
    // and get forwarded to the new owner.
    uint64_t misses_before = f.privCache(0).stats().l2Misses.value();
    demand(f, 0, v, false, &done);
    drain(f);
    EXPECT_EQ(f.privCache(0).stats().l2Misses.value(), misses_before + 1);
}

TEST(Coherence, SilentEtoMUpgradeNeedsNoSecondTransaction)
{
    sys::TiledSystem f(fabricConfig());
    Addr v = someLine(f);
    int done = 0;
    demand(f, 0, v, false, &done); // E grant
    drain(f);
    uint64_t l3_reqs_before = 0;
    for (int t = 0; t < 4; ++t)
        l3_reqs_before += f.l3Bank(t).stats().requestsByClass[0].value();
    demand(f, 0, v, true, &done); // silent E->M
    drain(f);
    uint64_t l3_reqs_after = 0;
    for (int t = 0; t < 4; ++t)
        l3_reqs_after += f.l3Bank(t).stats().requestsByClass[0].value();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(l3_reqs_after, l3_reqs_before);
}

TEST(Coherence, UpgradeFromSharedGoesThroughDirectory)
{
    sys::TiledSystem f(fabricConfig());
    Addr v = someLine(f);
    int done = 0;
    demand(f, 0, v, false, &done);
    drain(f);
    demand(f, 1, v, false, &done); // both now share
    drain(f);
    demand(f, 0, v, true, &done); // upgrade
    drain(f);
    EXPECT_EQ(done, 3);
}

TEST(Coherence, DirtyEvictionWritesBack)
{
    sys::SystemConfig opt = fabricConfig();
    // Tiny L2 so writes overflow quickly: 2kB, 2-way.
    opt.priv.l1Size = 1024;
    opt.priv.l1Ways = 2;
    opt.priv.l2Size = 2048;
    opt.priv.l2Ways = 2;
    sys::TiledSystem f(opt);
    Addr v = f.addressSpace().alloc(64 * 1024);
    int done = 0;
    for (int i = 0; i < 256; ++i)
        demand(f, 0, v + static_cast<Addr>(i) * 64, true, &done);
    drain(f);
    EXPECT_EQ(done, 256);
    EXPECT_GT(f.privCache(0).stats().writebacks.value(), 0u);
}

TEST(Coherence, CleanEvictionSendsPutSControlTraffic)
{
    sys::SystemConfig opt = fabricConfig();
    opt.priv.l1Size = 1024;
    opt.priv.l1Ways = 2;
    opt.priv.l2Size = 2048;
    opt.priv.l2Ways = 2;
    sys::TiledSystem f(opt);
    Addr v = f.addressSpace().alloc(64 * 1024);
    int done = 0;
    for (int i = 0; i < 256; ++i)
        demand(f, 0, v + static_cast<Addr>(i) * 64, false, &done);
    drain(f);
    EXPECT_EQ(done, 256);
    EXPECT_GT(f.privCache(0).stats().l2Evictions.value(), 0u);
    // Streaming reads with no reuse: evictions are clean and unreused
    // (the Fig. 2a telemetry).
    EXPECT_EQ(f.privCache(0).stats().l2EvictionsUnreused.value(),
              f.privCache(0).stats().l2Evictions.value());
}

TEST(Coherence, ReuseClearsUnreusedTelemetry)
{
    sys::SystemConfig opt = fabricConfig();
    opt.priv.l1Size = 512;
    opt.priv.l1Ways = 2;
    opt.priv.l2Size = 2048;
    opt.priv.l2Ways = 2;
    sys::TiledSystem f(opt);
    Addr v = f.addressSpace().alloc(64 * 1024);
    int done = 0;
    // Touch lines twice with an L1-evicting gap so the second touch
    // hits in the L2 (that is what "reuse" means at the L2).
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < 16; ++i)
            demand(f, 0, v + static_cast<Addr>(i) * 64, false, &done);
        drain(f);
    }
    // Now thrash them out.
    for (int i = 100; i < 160; ++i)
        demand(f, 0, v + static_cast<Addr>(i) * 64, false, &done);
    drain(f);
    const auto &st = f.privCache(0).stats();
    EXPECT_LT(st.l2EvictionsUnreused.value(), st.l2Evictions.value());
}

TEST(Coherence, RecallFreesOwnedSaturatedSet)
{
    sys::SystemConfig opt = fabricConfig();
    // L3 banks with a single set so owner saturation is immediate.
    opt.l3.sizeBytes = 2 * 64; // 1 set x 2 ways... per bank
    opt.l3.ways = 2;
    opt.priv.l1Size = 1024;
    opt.priv.l1Ways = 2;
    opt.priv.l2Size = 4096;
    opt.priv.l2Ways = 4;
    sys::TiledSystem f(opt);
    Addr v = f.addressSpace().alloc(256 * 1024);
    int done = 0;
    int issued = 0;
    for (int i = 0; i < 64; ++i) {
        demand(f, static_cast<TileId>(i % 4), v + static_cast<Addr>(i) * 64,
                 false, &done);
        ++issued;
        drain(f);
    }
    EXPECT_EQ(done, issued);
    uint64_t recalls = 0;
    for (int t = 0; t < 4; ++t)
        recalls += f.l3Bank(t).stats().recalls.value();
    EXPECT_GT(recalls, 0u);
}

TEST(Coherence, GetUDoesNotDisturbDirectory)
{
    sys::TiledSystem f(fabricConfig());
    Addr v = someLine(f);
    int done = 0;
    demand(f, 0, v, false, &done); // warm the L3 via a normal read
    drain(f);
    // Evict nothing; issue a GetU directly at the home bank.
    Addr pa = f.addressSpace().translate(v);
    TileId home = f.nuca().bankOf(pa);
    auto req = getU(f, lineAlign(pa), 1, 0);
    bool got = false;
    req->onServed = [&]() { got = true; };
    f.l3Bank(home).recvMsg(req);
    drain(f);
    EXPECT_TRUE(got);
    // The uncached read must not have registered tile 1 as a sharer:
    // when tile 0 writes, no invalidation for tile 1 is needed, so the
    // write is a silent upgrade (E owner) with no new fwd requests.
    uint64_t fwd_before = 0;
    for (int t = 0; t < 4; ++t)
        fwd_before += f.l3Bank(t).stats().fwdRequests.value();
    demand(f, 0, v, true, &done);
    drain(f);
    uint64_t fwd_after = 0;
    for (int t = 0; t < 4; ++t)
        fwd_after += f.l3Bank(t).stats().fwdRequests.value();
    EXPECT_EQ(fwd_after, fwd_before);
}

TEST(Coherence, GetUForwardedByOwnerWithoutStateChange)
{
    sys::TiledSystem f(fabricConfig());
    Addr v = someLine(f);
    int done = 0;
    demand(f, 0, v, true, &done); // tile 0 owns the line M
    drain(f);
    Addr pa = f.addressSpace().translate(v);
    TileId home = f.nuca().bankOf(pa);
    f.l3Bank(home).recvMsg(getU(f, lineAlign(pa), 1, 0));
    drain(f);
    // Fig. 12(c): the owner forwarded; a subsequent write by the owner
    // still needs no directory transaction (state unchanged).
    demand(f, 0, v, true, &done);
    drain(f);
    EXPECT_EQ(done, 2);
    EXPECT_EQ(f.privCache(0).stats().l1Hits.value() +
                  f.privCache(0).stats().l2Hits.value(),
              1u);
}

TEST(Coherence, SublineGetUTransfersFewerBytes)
{
    sys::TiledSystem f(fabricConfig());
    Addr v = someLine(f);
    Addr pa = f.addressSpace().translate(v);
    TileId home = f.nuca().bankOf(pa);

    auto data_flits_now = [&]() {
        return f.mesh().traffic().flitsInjected[1];
    };
    int done = 0;
    demand(f, 0, v, false, &done);
    drain(f);

    uint64_t before = data_flits_now();
    auto req = getU(f, lineAlign(pa), 2, 0);
    req->dataBytes = 8; // indirect subline transfer
    f.l3Bank(home).recvMsg(req);
    drain(f);
    uint64_t subline_flits = data_flits_now() - before;

    before = data_flits_now();
    auto full = getU(f, lineAlign(pa), 2, 1);
    full->dataBytes = 64;
    f.l3Bank(home).recvMsg(full);
    drain(f);
    uint64_t full_flits = data_flits_now() - before;

    EXPECT_LT(subline_flits, full_flits);
}

TEST(Coherence, ConfluenceGetUMulticastsOnceFromEveryServePath)
{
    // Every tile has an SE_L2, which counts a DataU for a stream it
    // does not hold as dropped: that counter sees each DataU a tile
    // receives.
    sys::TiledSystem f(fabricConfig(sys::Machine::SF));
    Addr v = someLine(f);
    Addr line = lineAlign(f.addressSpace().translate(v));
    TileId home = f.nuca().bankOf(line);
    const std::vector<TileId> group = {0, 1, 2};
    const TileId outsider = 3;
    auto dropped = [&](TileId t) {
        return f.seL2(t)->stats().dataDropped.value();
    };
    auto serve = [&]() {
        std::array<uint64_t, 4> before{};
        for (TileId t = 0; t < 4; ++t)
            before[t] = dropped(t);
        auto req = getU(f, line, group.front(), 0);
        for (TileId t : group)
            req->mergedStreams.push_back({t, 0});
        req->reqClass = mem::ReqClass::FloatConfluence;
        int served = 0;
        req->onServed = [&served]() { ++served; };
        f.l3Bank(home).recvMsg(req);
        drain(f);
        EXPECT_EQ(served, 1);
        for (TileId t : group)
            EXPECT_EQ(dropped(t) - before[t], 1u) << "tile " << t;
        EXPECT_EQ(dropped(outsider), before[outsider]);
    };
    const mem::L3BankStats &st = f.l3Bank(home).stats();

    // DRAM miss: the line is not at the L3 yet.
    serve();
    EXPECT_EQ(st.misses.value(), 1u);
    // Clean hit: the uncached fill left the line without an owner.
    serve();
    EXPECT_EQ(st.hits.value(), 1u);
    EXPECT_EQ(st.fwdRequests.value(), 0u);
    // Owner forward: the outsider owns the line M and multicasts the
    // DataU itself; the bank runs onServed at its FwdAck.
    int done = 0;
    demand(f, outsider, v, true, &done);
    drain(f);
    ASSERT_EQ(done, 1);
    serve();
    EXPECT_EQ(st.fwdRequests.value(), 1u);
}

TEST(Coherence, ConcurrentMixedTrafficCompletes)
{
    sys::TiledSystem f(fabricConfig());
    Addr v = f.addressSpace().alloc(512 * 1024);
    int done = 0;
    int issued = 0;
    // A burst of reads and writes from all four tiles with overlap.
    for (int i = 0; i < 400; ++i) {
        TileId t = static_cast<TileId>(i % 4);
        Addr a = v + static_cast<Addr>((i * 7) % 128) * 64;
        demand(f, t, a, (i % 3) == 0, &done);
        ++issued;
    }
    drain(f);
    EXPECT_EQ(done, issued);
}

TEST(Coherence, L1MshrGateNeverStrandsWaiters)
{
    // Regression for the waiter-pump bug: flood one tile with far more
    // demand misses than L1 MSHRs, interleaved with accesses that hit
    // after their line arrives; every access must complete.
    sys::TiledSystem f(fabricConfig());
    Addr v = f.addressSpace().alloc(1 << 22);
    int done = 0;
    int issued = 0;
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 40; ++i) {
            // A mix: new lines (miss) and recent lines (hit-after-fill)
            Addr a = v + static_cast<Addr>((round * 20 + i % 30)) * 64;
            demand(f, 0, a, (i % 5) == 0, &done);
            ++issued;
        }
    }
    drain(f);
    EXPECT_EQ(done, issued);
}

TEST(Coherence, L3BankUsesItsWholeCapacity)
{
    // Regression for the NUCA set-indexing bug: stream far more
    // distinct lines than one bank's worth through a single tile; the
    // recall machinery should stay quiet because L3 sets absorb the
    // slice.
    sys::TiledSystem f(fabricConfig());
    Addr v = f.addressSpace().alloc(1 << 22);
    int done = 0;
    for (int i = 0; i < 20000; ++i) {
        demand(f, 0, v + static_cast<Addr>(i) * 64, false, &done);
        if (i % 24 == 0)
            drain(f);
    }
    drain(f);
    EXPECT_EQ(done, 20000);
    uint64_t recalls = 0;
    for (int t = 0; t < 4; ++t)
        recalls += f.l3Bank(t).stats().recalls.value();
    EXPECT_LT(recalls, 50u);
}
