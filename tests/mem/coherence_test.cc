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
#include <cstring>
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

/** Log every MemMsg that @p f's mesh is asked to carry into @p log. */
void
recordSends(sys::TiledSystem &f, std::vector<mem::MemMsgPtr> &log)
{
    f.mesh().setSendInterceptor([&log](const noc::MsgPtr &m, Cycles &) {
        if (auto mm = std::dynamic_pointer_cast<mem::MemMsg>(m))
            log.push_back(mm);
        return noc::Mesh::SendAction::Deliver;
    });
}

/** Messages of @p type for @p line_addr in @p log. */
int
countSent(const std::vector<mem::MemMsgPtr> &log, mem::MemMsgType type,
          Addr line_addr)
{
    int n = 0;
    for (const auto &m : log)
        n += m->type == type && m->lineAddr == line_addr;
    return n;
}

/**
 * A stand-in SE_L2 for the §IV-E third window: it holds back every
 * dirty eviction while `delay` is set and counts what the cache tells
 * it.
 */
struct ParkingStreamBuffer : mem::StreamBufferIf
{
    bool delay = true;
    int dirtyEvictions = 0;
    int pressure = 0;

    bool handleFloatedFetch(mem::Access &) override { return false; }
    void onFloatedHitInCache(const GlobalStreamId &, uint64_t) override {}
    void recvDataU(const mem::MemMsgPtr &) override {}
    void onDirtyEviction(Addr) override { ++dirtyEvictions; }
    uint16_t currentCreditHead() override { return 0; }
    bool mustDelayEviction(uint16_t) override { return delay; }
    void onEvictionPressure() override { ++pressure; }
};

/**
 * 2x2 Base fabric whose private L2 is 2 kB, 2-way (16 sets), so lines
 * 1 kB apart share a set.
 */
sys::SystemConfig
parkingConfig()
{
    sys::SystemConfig opt = fabricConfig();
    opt.priv.l1Size = 1024;
    opt.priv.l1Ways = 2;
    opt.priv.l2Size = 2048;
    opt.priv.l2Ways = 2;
    return opt;
}

/** Physical line of the @p i-th 1 kB-strided line from @p v. */
Addr
setLine(sys::TiledSystem &f, Addr v, int i)
{
    return lineAlign(f.addressSpace().translate(v + Addr(i) * 1024));
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

TEST(Coherence, ParkedDirtyEvictionIsResurrectedByAMiss)
{
    // Declared before the fabric, which holds pointers to both.
    ParkingStreamBuffer sb;
    std::vector<mem::MemMsgPtr> sent;
    sys::TiledSystem f(parkingConfig());
    mem::PrivCache &pc = f.privCache(0);
    pc.setStreamBuffer(&sb);
    recordSends(f, sent);
    Addr v = f.addressSpace().alloc(64 * 1024);
    Addr a = setLine(f, v, 0);
    for (int i = 1; i < 3; ++i)
        ASSERT_EQ(setLine(f, v, i) / 64 % 16, a / 64 % 16);

    // Dirty line A, then two clean lines of its set evict it.
    int done = 0;
    for (int i = 0; i < 3; ++i) {
        demand(f, 0, v + Addr(i) * 1024, i == 0, &done);
        drain(f);
    }
    EXPECT_EQ(done, 3);
    EXPECT_EQ(pc.stats().writebacks.value(), 1u);
    EXPECT_EQ(sb.dirtyEvictions, 1);
    EXPECT_EQ(pc.delayedEvictions(), 1u);
    EXPECT_EQ(countSent(sent, mem::MemMsgType::PutM, a), 0);
    EXPECT_EQ(countSent(sent, mem::MemMsgType::GetM, a), 1);

    // A miss to A re-installs the parked copy: no new request for it.
    demand(f, 0, v, false, &done);
    drain(f);
    EXPECT_EQ(done, 4);
    EXPECT_EQ(pc.stats().writebacksResurrected.value(), 1u);
    EXPECT_EQ(pc.delayedEvictions(), 0u);
    EXPECT_EQ(countSent(sent, mem::MemMsgType::GetM, a), 1);
    EXPECT_EQ(countSent(sent, mem::MemMsgType::GetS, a), 0);
    EXPECT_EQ(countSent(sent, mem::MemMsgType::PutM, a), 0);
    const mem::CacheLine *line = pc.l2Array().probe(a);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->dirty);
    EXPECT_EQ(line->state, mem::LineState::Modified);
}

TEST(Coherence, ParkedDirtyEvictionsPastTheLimitSignalPressureThenDrain)
{
    ParkingStreamBuffer sb;
    std::vector<mem::MemMsgPtr> sent;
    sys::SystemConfig opt = parkingConfig();
    sys::TiledSystem f(opt);
    mem::PrivCache &pc = f.privCache(0);
    pc.setStreamBuffer(&sb);
    recordSends(f, sent);
    Addr v = f.addressSpace().alloc(64 * 1024);

    // Writes to one set: each past the two ways parks a dirty victim,
    // and every park beyond the limit asks the engine for a sink.
    const int limit = static_cast<int>(opt.priv.maxDelayedEvictions);
    const int writes = limit + 3;
    const int parked = writes - 2;
    int done = 0;
    for (int i = 0; i < writes; ++i) {
        ASSERT_EQ(setLine(f, v, i) / 64 % 16, setLine(f, v, 0) / 64 % 16);
        demand(f, 0, v + Addr(i) * 1024, true, &done);
        drain(f);
    }
    EXPECT_EQ(done, writes);
    EXPECT_EQ(pc.delayedEvictions(), static_cast<size_t>(parked));
    EXPECT_EQ(sb.pressure, parked - limit);
    EXPECT_EQ(sb.dirtyEvictions, parked);
    for (int i = 0; i < writes; ++i)
        EXPECT_EQ(countSent(sent, mem::MemMsgType::PutM, setLine(f, v, i)), 0);

    // The window closes: the drain sends exactly the parked PutMs,
    // once each, oldest first, and does not search the buffer again.
    sb.delay = false;
    size_t before = sent.size();
    pc.drainDelayedEvictions();
    EXPECT_EQ(pc.delayedEvictions(), 0u);
    ASSERT_EQ(sent.size() - before, static_cast<size_t>(parked));
    for (int i = 0; i < parked; ++i) {
        EXPECT_EQ(sent[before + i]->type, mem::MemMsgType::PutM);
        EXPECT_EQ(sent[before + i]->lineAddr, setLine(f, v, i));
    }
    EXPECT_EQ(sb.dirtyEvictions, parked);
    EXPECT_EQ(pc.stats().writebacks.value(), static_cast<uint64_t>(parked));

    // No residue: every put is acknowledged, and a later miss to a
    // released line is an ordinary request, not a resurrection.
    drain(f);
    EXPECT_EQ(pc.mshrsInUse(), 0u);
    EXPECT_EQ(pc.mshrWaiters(), 0u);
    demand(f, 0, v, false, &done);
    drain(f);
    EXPECT_EQ(done, writes + 1);
    EXPECT_EQ(pc.stats().writebacksResurrected.value(), 0u);
    EXPECT_EQ(countSent(sent, mem::MemMsgType::GetS, setLine(f, v, 0)), 1);
}

TEST(Coherence, L3EvictionBackInvalidatesEverySharer)
{
    sys::SystemConfig opt = fabricConfig();
    // One set of two ways per bank: the third line homed at a bank
    // evicts one of the first two.
    opt.l3.sizeBytes = 2 * 64;
    opt.l3.ways = 2;
    std::vector<mem::MemMsgPtr> sent;
    sys::TiledSystem f(opt);
    recordSends(f, sent);
    Addr v = f.addressSpace().alloc(4096);
    auto pa = [&](Addr va) { return f.addressSpace().translate(va); };
    TileId home = f.nuca().bankOf(pa(v));
    std::vector<Addr> lines; // vaddrs of three lines homed at `home`
    for (Addr va = v; lines.size() < 3; va += 64) {
        if (f.nuca().bankOf(pa(va)) == home)
            lines.push_back(va);
    }
    Addr a = lineAlign(pa(lines[0]));

    // Tiles 0 and 1 share A; tile 2 owns B, so filling C must evict A.
    int done = 0;
    demand(f, 0, lines[0], false, &done);
    drain(f);
    demand(f, 1, lines[0], false, &done);
    drain(f);
    demand(f, 2, lines[1], false, &done);
    drain(f);
    ASSERT_NE(f.privCache(0).l2Array().probe(a), nullptr);
    ASSERT_NE(f.privCache(1).l2Array().probe(a), nullptr);
    EXPECT_EQ(countSent(sent, mem::MemMsgType::Inv, a), 0);
    demand(f, 2, lines[2], false, &done);
    drain(f);
    EXPECT_EQ(done, 4);

    EXPECT_EQ(f.l3Bank(home).stats().backInvalidations.value(), 1u);
    EXPECT_EQ(f.l3Bank(home).stats().memWrites.value(), 0u);
    std::array<int, 4> invs{};
    for (const auto &m : sent) {
        if (m->type == mem::MemMsgType::Inv && m->lineAddr == a) {
            for (TileId t : m->dests)
                ++invs[t];
        }
    }
    EXPECT_EQ(invs, (std::array<int, 4>{1, 1, 0, 0}));
    EXPECT_EQ(f.privCache(0).l2Array().probe(a), nullptr);
    EXPECT_EQ(f.privCache(1).l2Array().probe(a), nullptr);
}

TEST(Coherence, L3EvictionWritesBackADirtyLine)
{
    sys::SystemConfig opt = fabricConfig();
    opt.l3.sizeBytes = 2 * 64;
    opt.l3.ways = 2;
    // One-set private caches: any two other lines evict a written one.
    opt.priv.l1Size = 64;
    opt.priv.l1Ways = 1;
    opt.priv.l2Size = 2 * 64;
    opt.priv.l2Ways = 2;
    opt.verify = true; // the writeback's image reaches the DRAM shadow
    std::vector<mem::MemMsgPtr> sent;
    sys::TiledSystem f(opt);
    recordSends(f, sent);
    Addr v = f.addressSpace().alloc(4096);
    auto pa = [&](Addr va) { return f.addressSpace().translate(va); };
    TileId home = f.nuca().bankOf(pa(v));
    std::vector<Addr> here, elsewhere; // vaddrs homed at / off `home`
    for (Addr va = v; va < v + 4096; va += 64)
        (f.nuca().bankOf(pa(va)) == home ? here : elsewhere).push_back(va);
    Addr a = lineAlign(pa(here[0]));
    verify::DataPlane &plane = *f.verifyPlane();
    const uint64_t value = 0x1122334455667788ULL;
    auto dram_value = [&] {
        uint64_t x = 0;
        std::memcpy(&x, plane.dramSnapshot(a)->data(), sizeof(x));
        return x;
    };

    // Tile 0 stores to A, then two lines homed elsewhere push it out
    // with a PutM: the bank now holds A dirty and unowned.
    int done = 0;
    mem::Access w;
    w.kind = mem::AccessKind::Demand;
    w.vaddr = here[0];
    w.paddr = pa(here[0]);
    w.size = sizeof(value);
    w.isWrite = true;
    w.vstore = plane.storeCommitted(0, here[0], sizeof(value), value, 0,
                                    invalidStream, false);
    w.onDone = [&done] { ++done; };
    f.privCache(0).access(std::move(w));
    drain(f);
    for (int i = 0; i < 2; ++i) {
        demand(f, 0, elsewhere[i], false, &done);
        drain(f);
    }
    EXPECT_EQ(countSent(sent, mem::MemMsgType::PutM, a), 1);
    EXPECT_NE(dram_value(), value);

    // B stays owned by tile 0, so filling C evicts A to memory.
    demand(f, 0, here[1], false, &done);
    drain(f);
    demand(f, 0, here[2], false, &done);
    drain(f);
    EXPECT_EQ(done, 5);

    uint64_t mem_writes = 0;
    for (int t = 0; t < 4; ++t)
        mem_writes += f.l3Bank(t).stats().memWrites.value();
    EXPECT_EQ(mem_writes, 1u);
    EXPECT_EQ(f.l3Bank(home).stats().memWrites.value(), 1u);
    EXPECT_EQ(f.l3Bank(home).stats().backInvalidations.value(), 0u);
    EXPECT_EQ(countSent(sent, mem::MemMsgType::MemWrite, a), 1);
    mem::MemCtrl *ctrl = f.memCtrl(f.nuca().memCtrlOf(a));
    ASSERT_NE(ctrl, nullptr);
    EXPECT_EQ(ctrl->channel().writes.value(), 1u);
    EXPECT_EQ(dram_value(), value);
}
