/**
 * @file
 * Allocation budget of the simulation loop: global operator new calls
 * made inside TiledSystem::run, per simulated cycle, on a 2x2 SF
 * conv3d run and a 2x2 stride-prefetch bfs run.
 *
 * The hot event payloads (NoC hops, parked cache accesses, stream
 * fetch contexts, bank latency closures) live in per-tile RecordPools
 * (DESIGN.md §4l), so the run allocates only real payloads: messages,
 * their destination lists, MSHR and directory entries. A closure that
 * outgrows std::function's inline buffer again, or a per-call scratch
 * vector, shows up here as a budget overrun, without the host noise a
 * timing gate carries. The bounds hold about 25% headroom over the
 * counts measured when they were set (see CHANGES.md).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "system/tiled_system.hh"
#include "workload/workload.hh"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_news{0};

void *
countedNew(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedNew(n); }
void *operator new[](std::size_t n) { return countedNew(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace sf;
using namespace sf::sys;

struct Budget
{
    uint64_t news;
    uint64_t cycles;
};

Budget
measure(Machine m, const cpu::CoreConfig &core, const std::string &wl_name,
        double scale)
{
    SystemConfig cfg = SystemConfig::make(m, core, 2, 2);
    TiledSystem sys(cfg);
    workload::WorkloadParams wp;
    wp.numThreads = cfg.numTiles();
    wp.scale = scale;
    wp.useStreams = machineUsesStreams(m);
    auto wl = workload::makeWorkload(wl_name, wp);
    wl->init(sys.addressSpace());
    auto threads = wl->makeAllThreads();

    g_news = 0;
    g_counting = true;
    SimResults r = sys.run(std::move(threads));
    g_counting = false;

    EXPECT_FALSE(r.hitCycleLimit);
    EXPECT_GT(r.cycles, 0u);
    std::printf("%s: %llu operator new calls over %llu cycles "
                "(%.3f per cycle)\n",
                wl_name.c_str(), (unsigned long long)g_news.load(),
                (unsigned long long)r.cycles,
                double(g_news.load()) / double(r.cycles));
    return {g_news.load(), r.cycles};
}

} // namespace

TEST(AllocBudget, CounterSeesOperatorNew)
{
    uint64_t before = g_news;
    g_counting = true;
    auto *p = new std::string(100, 'x');
    g_counting = false;
    EXPECT_GE(g_news - before, 1u);
    delete p;
}

TEST(AllocBudget, StreamFloatingConv3d)
{
    Budget b = measure(Machine::SF, cpu::CoreConfig::ooo8(), "conv3d", 0.02);
    // Measured 2.68 per cycle (3.27 before the incremental stream
    // element path, 20.2 before the pools).
    EXPECT_LE(double(b.news), 3.4 * double(b.cycles));
}

TEST(AllocBudget, StridePrefetchBfs)
{
    Budget b = measure(Machine::StridePf, cpu::CoreConfig::io4(), "bfs", 0.02);
    // Measured 0.471 per cycle (0.50 before the in-place fetch
    // buffer, 2.45 before the pools).
    EXPECT_LE(double(b.news), 0.59 * double(b.cycles));
}
