/**
 * @file
 * RecordPool: steady-state reuse without growth, reset on release
 * (captured state dropped, vector capacity kept), and the NoC hop
 * records built on it, standalone and under the window loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "noc/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/record_pool.hh"
#include "sim/shard.hh"

using namespace sf;
using sim::RecordPool;

namespace {

struct Payload
{
    std::shared_ptr<int> ref;
    uint64_t value = 0;
};

} // namespace

TEST(RecordPool, SteadyStateReuseDoesNotGrow)
{
    RecordPool<Payload> pool;
    std::vector<Payload *> live;
    // Up to 40 records in flight at once, 10k times over.
    for (int round = 0; round < 10000; ++round) {
        live.push_back(pool.acquire());
        live.back()->value = uint64_t(round);
        if (live.size() == 40) {
            for (Payload *p : live)
                pool.release(p);
            live.clear();
        }
    }
    EXPECT_EQ(pool.capacity(), RecordPool<Payload>::slabRecords);
    EXPECT_EQ(pool.available(), pool.capacity() - live.size());
}

TEST(RecordPool, GrowsBySlabsAndHandsOutDistinctRecords)
{
    RecordPool<Payload> pool;
    std::vector<Payload *> live;
    for (size_t i = 0; i < 3 * RecordPool<Payload>::slabRecords + 1; ++i)
        live.push_back(pool.acquire());
    EXPECT_EQ(pool.capacity(), 4 * RecordPool<Payload>::slabRecords);
    std::sort(live.begin(), live.end());
    EXPECT_EQ(std::adjacent_find(live.begin(), live.end()), live.end());
    for (Payload *p : live)
        pool.release(p);
    EXPECT_EQ(pool.available(), pool.capacity());
}

TEST(RecordPool, ReleaseDropsCapturedState)
{
    auto shared = std::make_shared<int>(7);
    RecordPool<Payload> pool;
    Payload *p = pool.acquire(Payload{shared, 42});
    EXPECT_EQ(shared.use_count(), 2);
    pool.release(p);
    EXPECT_EQ(shared.use_count(), 1);
    // The next record is the recycled one, back in its reset state.
    Payload *q = pool.acquire();
    EXPECT_EQ(q, p);
    EXPECT_EQ(q->ref, nullptr);
    EXPECT_EQ(q->value, 0u);
    pool.release(q);
}

TEST(RecordPool, TakeMovesThePayloadOutAndFreesTheRecord)
{
    auto shared = std::make_shared<int>(9);
    RecordPool<Payload> pool;
    Payload *p = pool.acquire(Payload{shared, 7});
    {
        Payload out = pool.take(p);
        EXPECT_EQ(out.value, 7u);
        EXPECT_EQ(shared.use_count(), 2);
        EXPECT_EQ(pool.available(), pool.capacity());
    }
    EXPECT_EQ(shared.use_count(), 1);
    EXPECT_EQ(pool.acquire(), p);
}

TEST(RecordPool, ReleasedCallbackDropsItsCaptures)
{
    auto shared = std::make_shared<int>(1);
    RecordPool<std::function<void()>> pool;
    std::function<void()> *fn = pool.acquire([shared] {});
    EXPECT_EQ(shared.use_count(), 2);
    pool.release(fn);
    EXPECT_EQ(shared.use_count(), 1);
}

TEST(RecordPool, VectorRecordsKeepTheirCapacity)
{
    auto shared = std::make_shared<int>(1);
    RecordPool<std::vector<std::shared_ptr<int>>> pool;
    auto *v = pool.acquire();
    v->assign(100, shared);
    size_t cap = v->capacity();
    pool.release(v);
    EXPECT_EQ(shared.use_count(), 1);
    auto *w = pool.acquire();
    EXPECT_EQ(w, v);
    EXPECT_TRUE(w->empty());
    EXPECT_EQ(w->capacity(), cap);
    pool.release(w);
}

TEST(RecordPool, DoubleReleasePanics)
{
    RecordPool<Payload> pool;
    Payload *p = pool.acquire();
    pool.release(p);
    EXPECT_THROW(pool.release(p), PanicError);
}

TEST(RecordPool, LiveRecordsAreDestroyedWithThePool)
{
    auto shared = std::make_shared<int>(5);
    {
        RecordPool<Payload> pool;
        pool.release(pool.acquire(Payload{shared, 1}));
        // Still in flight when the pool dies (a run that stops with
        // events pending).
        pool.acquire(Payload{shared, 2});
        EXPECT_EQ(shared.use_count(), 2);
    }
    EXPECT_EQ(shared.use_count(), 1);
}

TEST(RecordPool, MeshHopRecordsDropTheMessage)
{
    EventQueue eq;
    noc::MeshConfig cfg;
    cfg.nx = 4;
    cfg.ny = 4;
    noc::Mesh mesh(eq, cfg);
    std::vector<int> arrivals(16, 0);
    for (TileId t = 0; t < mesh.numTiles(); ++t)
        mesh.bindSink(t, [&arrivals, t](const noc::MsgPtr &) {
            ++arrivals[size_t(t)];
        });

    // A multicast from the centre to every tile, then unicasts in
    // both directions: each copy's record holds a reference until the
    // copy ejects.
    auto multi = std::make_shared<noc::Message>();
    multi->src = 5;
    for (TileId t = 0; t < 16; ++t)
        multi->dests.push_back(t);
    multi->payloadBytes = 64;
    auto uni = std::make_shared<noc::Message>();
    uni->src = 15;
    uni->dests = {0};
    for (int round = 0; round < 50; ++round) {
        mesh.send(multi);
        mesh.send(uni);
        EXPECT_GT(multi.use_count(), 1);
        eq.run();
        EXPECT_EQ(multi.use_count(), 1);
        EXPECT_EQ(uni.use_count(), 1);
    }
    for (TileId t = 0; t < 16; ++t)
        EXPECT_EQ(arrivals[size_t(t)], t == 0 ? 100 : 50) << "tile " << t;
}

TEST(RecordPool, MeshHopsThroughWindowLoopDeliverOnceAndDropTheMessage)
{
    // Keyed hop events on the window loop's tile queue, run window by
    // window.
    EventQueue global;
    noc::MeshConfig cfg;
    cfg.nx = 4;
    cfg.ny = 4;
    sim::TileDomains domains(global, 16,
                             cfg.routerLatency + cfg.linkLatency + 1);
    noc::Mesh mesh(global, cfg);
    mesh.setDomains(&domains);
    std::vector<int> arrivals(16, 0);
    for (TileId t = 0; t < mesh.numTiles(); ++t)
        mesh.bindSink(t, [&arrivals, t](const noc::MsgPtr &) {
            ++arrivals[size_t(t)];
        });

    std::vector<noc::MsgPtr> sent;
    for (TileId src : {0, 5, 10, 15}) {
        auto multi = std::make_shared<noc::Message>();
        multi->src = src;
        for (TileId t = 0; t < 16; ++t)
            multi->dests.push_back(t);
        multi->payloadBytes = 64;
        auto uni = std::make_shared<noc::Message>();
        uni->src = src;
        uni->dests = {TileId(15 - src)};
        for (Tick when = 1; when <= 40; when += 13) {
            domains.queue().scheduleKeyed(when, domains.nextKey(src),
                                          [&mesh, multi, uni] {
                                              mesh.send(multi);
                                              mesh.send(uni);
                                          });
        }
        sent.push_back(multi);
        sent.push_back(uni);
    }
    EXPECT_EQ(domains.runWindows([] { return false; }, maxTick),
              sim::TileDomains::Exit::Empty);
    for (const auto &m : sent)
        EXPECT_EQ(m.use_count(), 1);
    // 4 multicasts to all tiles, 4 unicasts to 15 - src, 4 times each.
    for (TileId t = 0; t < 16; ++t) {
        bool unicast_dest = t == 15 || t == 10 || t == 5 || t == 0;
        EXPECT_EQ(arrivals[size_t(t)], unicast_dest ? 20 : 16)
            << "tile " << t;
    }
}
