/**
 * @file
 * SE_core tests: FIFO management, run-ahead fetching, the iteration
 * map, history tracking (Table II), alias detection/flush, and the
 * indirect-on-base dependence — all without floating (SS mode).
 */

#include <gtest/gtest.h>

#include "common/test_fabric.hh"

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

struct SeHarness
{
    SeHarness() : fabric(fabricConfig(sys::Machine::SF)) {}

    stream::SECore &se() { return *fabric.seCore(0); }
    sys::TiledSystem fabric;
};

/** SS-mode harness with floating force-disabled via no controller. */
struct SsHarness : SeHarness
{
    SsHarness()
    {
        se().setFloatController(nullptr);
    }
};

} // namespace

TEST(SECore, ConfigureAndConsumeInOrder)
{
    SsHarness h;
    Addr buf = h.fabric.addressSpace().alloc(4096);
    h.se().configure({affine(0, buf, 64)});

    int ready = 0;
    for (int i = 0; i < 8; ++i) {
        h.se().requestElems(0, 1, [&]() { ++ready; });
        h.se().step(0, 1);
    }
    drain(h.fabric);
    EXPECT_EQ(ready, 8);
    for (int i = 0; i < 8; ++i)
        h.se().releaseAtCommit(0, 1);
    h.se().end(0);
}

TEST(SECore, VectorConsumption)
{
    SsHarness h;
    Addr buf = h.fabric.addressSpace().alloc(4096);
    h.se().configure({affine(0, buf, 64)});
    int ready = 0;
    h.se().requestElems(0, 16, [&]() { ++ready; });
    h.se().step(0, 16);
    drain(h.fabric);
    EXPECT_EQ(ready, 1);
    h.se().releaseAtCommit(0, 16);
}

TEST(SECore, RunAheadFetchesLineGranular)
{
    SsHarness h;
    Addr buf = h.fabric.addressSpace().alloc(64 * 1024);
    h.se().configure({affine(0, buf, 256)});
    drain(h.fabric);
    // 1kB FIFO quota => up to 256 x 4B elements => 16 line fetches,
    // issued without any core request.
    EXPECT_GT(h.se().stats().fetchesIssued.value(), 4u);
    EXPECT_LE(h.se().stats().fetchesIssued.value(), 20u);
}

TEST(SECore, QuotaBoundsRunAhead)
{
    SsHarness h;
    Addr buf = h.fabric.addressSpace().alloc(1 << 20);
    // Two load streams share the FIFO: each gets half the quota.
    h.se().configure({affine(0, buf, 100000),
                      affine(1, buf + 500000, 100000)});
    drain(h.fabric);
    uint64_t fetched = h.se().stats().fetchesIssued.value();
    // 1kB FIFO / 2 streams / 4B = 128 elems each = 8 lines each.
    EXPECT_LE(fetched, 24u);
}

TEST(SECore, CanAcceptUseBacksPressure)
{
    SsHarness h;
    Addr buf = h.fabric.addressSpace().alloc(1 << 20);
    h.se().configure({affine(0, buf, 100000)});
    drain(h.fabric);
    // Walk the dispatch iterator to the quota without committing.
    int accepted = 0;
    while (h.se().canAcceptUse(0) && accepted < 10000) {
        h.se().requestElems(0, 16, []() {});
        h.se().step(0, 16);
        ++accepted;
    }
    EXPECT_LT(accepted, 10000);
    // Releasing (commit) frees FIFO space again.
    h.se().releaseAtCommit(0, 16);
    EXPECT_TRUE(h.se().canAcceptUse(0));
}

TEST(SECore, UnknownStreamRejectsUse)
{
    SsHarness h;
    EXPECT_FALSE(h.se().canAcceptUse(5));
}

TEST(SECore, PendingReconfigurationStallsUses)
{
    SsHarness h;
    Addr buf = h.fabric.addressSpace().alloc(4096);
    h.se().configure({affine(0, buf, 16)});
    EXPECT_TRUE(h.se().canAcceptUse(0));
    // A new stream_cfg for sid 0 is dispatched but not yet committed:
    // uses must stall so they bind to the new configuration.
    h.se().noteConfigDispatched({affine(0, buf, 16)});
    EXPECT_FALSE(h.se().canAcceptUse(0));
    h.se().configure({affine(0, buf, 16)});
    EXPECT_TRUE(h.se().canAcceptUse(0));
}

TEST(SECore, HistoryCountsRequestsAndMisses)
{
    SsHarness h;
    Addr buf = h.fabric.addressSpace().alloc(64 * 1024);
    h.se().configure({affine(0, buf, 256)});
    drain(h.fabric);
    const stream::StreamHistory *row = h.se().history().find(0);
    ASSERT_NE(row, nullptr);
    EXPECT_GT(row->requests, 0u);
    EXPECT_EQ(row->misses, row->requests); // cold: everything missed
}

TEST(SECore, ReuseNotificationFeedsHistory)
{
    SsHarness h;
    h.se().notifyStreamReuse(3);
    h.se().notifyStreamReuse(3);
    const stream::StreamHistory *row = h.se().history().find(3);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->reuses, 2u);
}

TEST(SECore, StoreAliasFlushesAndDisablesPrefetch)
{
    SsHarness h;
    Addr buf = h.fabric.addressSpace().alloc(64 * 1024);
    h.se().configure({affine(0, buf, 256)});
    drain(h.fabric);
    uint64_t fetched_before = h.se().stats().fetchesIssued.value();
    EXPECT_GT(fetched_before, 0u);

    // A store right into the prefetched window.
    h.se().storeCommitted(buf + 64, 4);
    EXPECT_EQ(h.se().stats().aliasFlushes.value(), 1u);
    const stream::StreamHistory *row = h.se().history().find(0);
    ASSERT_NE(row, nullptr);
    EXPECT_TRUE(row->aliased);
}

TEST(SECore, NonAliasingStoreIsIgnored)
{
    SsHarness h;
    Addr buf = h.fabric.addressSpace().alloc(64 * 1024);
    Addr other = h.fabric.addressSpace().alloc(4096);
    h.se().configure({affine(0, buf, 64)});
    drain(h.fabric);
    h.se().storeCommitted(other, 4);
    EXPECT_EQ(h.se().stats().aliasFlushes.value(), 0u);
}

TEST(SECore, StoreStreamGeneratesAddresses)
{
    SsHarness h;
    Addr buf = h.fabric.addressSpace().alloc(4096);
    StreamConfig st = affine(2, buf, 64);
    st.isStore = true;
    h.se().configure({st});
    EXPECT_EQ(h.se().storeAddr(2), buf);
    h.se().step(2, 16);
    EXPECT_EQ(h.se().storeAddr(2), buf + 64);
}

TEST(SECore, IndirectWaitsForParentData)
{
    SsHarness h;
    // A[i] holds indices into B.
    Addr a = h.fabric.addressSpace().alloc(4096);
    Addr b = h.fabric.addressSpace().alloc(1 << 16);
    for (int i = 0; i < 64; ++i)
        h.fabric.addressSpace().writeT<int32_t>(a + i * 4, (i * 7) % 1000);

    StreamConfig base = affine(0, a, 64);
    StreamConfig ind;
    ind.sid = 1;
    ind.hasIndirect = true;
    ind.baseSid = 0;
    ind.indirect.base = b;
    ind.indirect.elemSize = 4;
    ind.indirect.idxSize = 4;
    ind.indirect.scale = 4;
    ind.affine.elemSize = 4;
    ind.affine.len[0] = 64;
    h.se().configure({base, ind});

    int ready = 0;
    h.se().requestElems(1, 1, [&]() { ++ready; });
    drain(h.fabric);
    EXPECT_EQ(ready, 1);
}

TEST(SECore, EndDeactivatesAndReconfigureRestarts)
{
    SsHarness h;
    Addr buf = h.fabric.addressSpace().alloc(4096);
    h.se().configure({affine(0, buf, 16)});
    drain(h.fabric);
    h.se().end(0);
    EXPECT_FALSE(h.se().canAcceptUse(0));
    h.se().configure({affine(0, buf, 16)});
    EXPECT_TRUE(h.se().canAcceptUse(0));
    int ready = 0;
    h.se().requestElems(0, 1, [&]() { ++ready; });
    drain(h.fabric);
    EXPECT_EQ(ready, 1);
}

TEST(SECore, ManyStreamsWithinLimit)
{
    SsHarness h;
    Addr buf = h.fabric.addressSpace().alloc(1 << 20);
    std::vector<StreamConfig> group;
    for (int s = 0; s < 6; ++s)
        group.push_back(affine(s, buf + s * 65536, 64));
    h.se().configure(group);
    int ready = 0;
    for (int s = 0; s < 6; ++s)
        h.se().requestElems(s, 1, [&]() { ++ready; });
    drain(h.fabric);
    EXPECT_EQ(ready, 6);
}

namespace {

/**
 * A floating controller that accepts every float and parks floated
 * indirect fetches until the test completes them by hand.
 */
class ParkingFloatCtrl : public stream::FloatControllerIf
{
  public:
    struct Fetch
    {
        StreamId sid;
        uint64_t first;
        uint16_t count;
        std::function<void()> cb;
    };

    bool floatStream(const stream::FloatRequest &) override { return true; }
    void unfloatStream(StreamId) override {}
    uint32_t latestGen(StreamId) const override { return 0; }

    void
    fetchFloatedElems(StreamId sid, uint64_t first_idx, uint16_t count,
                      std::function<void()> on_ready, uint32_t) override
    {
        parked.push_back({sid, first_idx, count, std::move(on_ready)});
    }

    /** Complete (and forget) parked fetch number @p i. */
    void
    complete(size_t i)
    {
        ASSERT_LT(i, parked.size());
        std::function<void()> cb = std::move(parked[i].cb);
        parked.erase(parked.begin() + static_cast<long>(i));
        cb();
    }

    std::vector<Fetch> parked;
};

} // namespace

TEST(SECore, StaleFloatedIndirectCompletionIsDropped)
{
    SeHarness h;
    ParkingFloatCtrl ctrl;
    h.se().setFloatController(&ctrl);
    // A 400 kB base footprint exceeds the 256 kB L2, so the group
    // floats at configuration and the indirect child's fetches go to
    // the controller by (sid, index).
    Addr a = h.fabric.addressSpace().alloc(400 * 1024);
    Addr b = h.fabric.addressSpace().alloc(1 << 16);
    StreamConfig base = affine(0, a, 100000);
    StreamConfig ind;
    ind.sid = 1;
    ind.hasIndirect = true;
    ind.baseSid = 0;
    ind.indirect.base = b;
    ind.indirect.elemSize = 4;
    ind.indirect.idxSize = 4;
    ind.indirect.scale = 4;
    ind.affine.elemSize = 4;
    ind.affine.len[0] = 100000;

    h.se().configure({base, ind});
    ASSERT_TRUE(h.se().isFloating(1));
    ASSERT_FALSE(ctrl.parked.empty());
    ASSERT_EQ(ctrl.parked[0].sid, 1);
    ASSERT_EQ(ctrl.parked[0].first, 0u);
    size_t old_fetches = ctrl.parked.size();

    // End the group and configure it again: a new epoch whose first
    // elements are fetched afresh.
    h.se().end(1);
    h.se().end(0);
    h.se().configure({base, ind});
    ASSERT_GT(ctrl.parked.size(), old_fetches);
    ASSERT_EQ(ctrl.parked[old_fetches].sid, 1);
    ASSERT_EQ(ctrl.parked[old_fetches].first, 0u);

    int ready = 0;
    h.se().requestElems(1, 1, [&]() { ++ready; });
    // The ended epoch's fetch of element 0 lands now. It must not mark
    // the new epoch's element 0 ready.
    ctrl.complete(0);
    drain(h.fabric);
    EXPECT_EQ(ready, 0);

    // The new epoch's own fetch of element 0 does.
    ctrl.complete(old_fetches - 1);
    drain(h.fabric);
    EXPECT_EQ(ready, 1);
}

namespace {

/**
 * Consume elements [from, to) of load stream 0 over @p buf, @p batch
 * single-element uses per commit: each use must be handed its own
 * element index, fire in order, and find its element's line already in
 * the private cache. @p fired collects the indices (it outlives any
 * unfired use).
 */
void
consumeInOrder(SsHarness &h, Addr buf, uint64_t from, uint64_t to,
               uint16_t batch, std::vector<uint64_t> &fired)
{
    for (uint64_t i = from; i < to; i += batch) {
        fired.clear();
        for (uint64_t e = i; e < i + batch; ++e) {
            Addr pa = h.fabric.addressSpace().translate(buf + 4 * e);
            auto on_ready = [&h, &fired, e, pa]() {
                EXPECT_NE(h.fabric.privCache(0).l2Array().probe(pa), nullptr)
                    << "element " << e << " ready before its line";
                fired.push_back(e);
            };
            EXPECT_EQ(h.se().requestElems(0, 1, on_ready), e);
            h.se().step(0, 1);
        }
        drain(h.fabric);
        ASSERT_EQ(fired.size(), batch) << "batch at element " << i;
        for (uint64_t k = 0; k < batch; ++k)
            EXPECT_EQ(fired[k], i + k);
        h.se().releaseAtCommit(0, batch);
    }
}

} // namespace

TEST(SECore, WindowRingWrapsGrowsAndKeepsOrder)
{
    SsHarness h;
    std::vector<uint64_t> fired;
    // One 4 B stream owns the whole 1 kB FIFO: a 256-element quota,
    // four times the ring's initial capacity, so run-ahead grows it.
    Addr buf = h.fabric.addressSpace().alloc(2048 * 4);
    h.se().configure({affine(0, buf, 2048)});
    drain(h.fabric);
    // Committing 8 at a time moves the ring's head through its end
    // (every 256 elements) while run-ahead refills behind it.
    consumeInOrder(h, buf, 0, 296, 8, fired);
    // 320 uses before any commit run ahead past the quota, so the ring
    // grows again while its head is mid-buffer.
    consumeInOrder(h, buf, 296, 616, 320, fired);

    // A store into the window: the flush clears elements on both sides
    // of the ring's wrap point, and they are fetched again on demand.
    h.se().storeCommitted(buf + 4 * 700, 4);
    EXPECT_EQ(h.se().stats().aliasFlushes.value(), 1u);
    consumeInOrder(h, buf, 616, 800, 8, fired);

    // Reconfigure onto another array: the ring starts empty again.
    Addr buf2 = h.fabric.addressSpace().alloc(1024 * 4);
    h.se().end(0);
    h.se().configure({affine(0, buf2, 1024)});
    consumeInOrder(h, buf2, 0, 600, 8, fired);
}
