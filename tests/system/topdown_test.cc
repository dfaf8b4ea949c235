/**
 * @file
 * System-level tests for the --profile top-down cycle accounting:
 * across prefetching, near-stream, and stream-floating machines, the
 * per-core and per-SE stall buckets must sum EXACTLY to the cycles
 * each account covered — no cycle lost, none double-counted — also
 * when a run is cut at its cycle limit, and a deliberately skewed
 * bucket must trip the end-of-run checker.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/profile.hh"
#include "system/tiled_system.hh"
#include "workload/workload.hh"

using namespace sf;
using namespace sf::sys;

namespace {

/** Run one profiled 2x2 sim and hand the live system to @p inspect. */
template <typename Fn>
SimResults
runProfiled(Machine m, const std::string &wl_name, Fn inspect)
{
    SystemConfig cfg =
        SystemConfig::make(m, cpu::CoreConfig::ooo4(), 2, 2);
    cfg.maxCycles = 30'000'000;
    cfg.profile = true;
    TiledSystem sys(cfg);
    workload::WorkloadParams wp;
    wp.numThreads = cfg.numTiles();
    wp.scale = 0.01;
    wp.useStreams = machineUsesStreams(m);
    auto wl = workload::makeWorkload(wl_name, wp);
    wl->init(sys.addressSpace());
    SimResults r = sys.run(wl->makeAllThreads());
    EXPECT_FALSE(r.hitCycleLimit) << machineName(m);
    inspect(sys, r);
    return r;
}

} // namespace

TEST(TopDownSystem, BucketsSumExactlyToCoveredCyclesOnEveryMachine)
{
    // One machine per attribution regime: core-side prefetching,
    // near-stream (SE at L1), indirect floating, and full SF.
    for (Machine m : {Machine::StridePf, Machine::SS, Machine::SFInd,
                      Machine::SF}) {
        runProfiled(m, "pathfinder", [&](TiledSystem &sys,
                                         const SimResults &) {
            prof::Profiler *p = sys.profiler();
            ASSERT_NE(p, nullptr) << machineName(m);
            // run() already finalized every account to end-of-sim and
            // would have died on a violation; re-check explicitly.
            EXPECT_TRUE(p->verifyTopDown().empty()) << machineName(m);
            ASSERT_FALSE(p->topDownAccounts().empty()) << machineName(m);
            bool saw_core = false;
            for (const auto &kv : p->topDownAccounts()) {
                const prof::TopDownAccount &a = kv.second;
                // The invariant under test: buckets partition the
                // covered cycles exactly.
                EXPECT_EQ(a.total(), a.accountedUpTo())
                    << machineName(m) << " " << kv.first;
                EXPECT_GT(a.accountedUpTo(), 0u)
                    << machineName(m) << " " << kv.first;
                if (kv.first.find(".core") != std::string::npos)
                    saw_core = true;
            }
            EXPECT_TRUE(saw_core) << machineName(m);
        });
    }
}

TEST(TopDownSystem, CycleLimitEndsEveryAccountAtTheLimit)
{
    // srad's stores fill the store buffers early, so at a 5000-cycle
    // cut some core sleeps parked on stores; run() must settle it at
    // the limit and close every account there.
    SystemConfig cfg =
        SystemConfig::make(Machine::Base, cpu::CoreConfig::ooo8(), 2, 2);
    cfg.maxCycles = 5000;
    cfg.profile = true;
    TiledSystem sys(cfg);
    workload::WorkloadParams wp;
    wp.numThreads = cfg.numTiles();
    wp.scale = 0.01;
    wp.useStreams = false;
    auto wl = workload::makeWorkload("srad", wp);
    wl->init(sys.addressSpace());
    SimResults r = sys.run(wl->makeAllThreads());

    EXPECT_TRUE(r.hitCycleLimit);
    EXPECT_EQ(r.cycles, 5000u);
    bool parked = false;
    for (TileId t = 0; t < cfg.numTiles(); ++t)
        parked |= sys.core(t).parkedOnStores();
    EXPECT_TRUE(parked);
    // A core's account includes the tick it stops at (a finished
    // core's includes its done tick), here the limit itself.
    const auto &accounts = sys.profiler()->topDownAccounts();
    ASSERT_EQ(accounts.size(), 4u);
    for (const auto &kv : accounts)
        EXPECT_EQ(kv.second.total(), 5001u) << kv.first;
}

TEST(TopDownSystem, StreamMachinesAccountTheirEngines)
{
    runProfiled(Machine::SF, "mv", [](TiledSystem &sys,
                                      const SimResults &) {
        bool saw_se = false;
        for (const auto &kv : sys.profiler()->topDownAccounts()) {
            if (kv.first.find(".se") != std::string::npos)
                saw_se = true;
        }
        EXPECT_TRUE(saw_se);
    });
}

TEST(TopDownSystem, ProfiledRunRecordsLatenciesAndLeaksNothing)
{
    runProfiled(Machine::SF, "pathfinder", [](TiledSystem &sys,
                                              const SimResults &r) {
        prof::Profiler *p = sys.profiler();
        // Drain is complete: every lifecycle record closed, and no
        // component marked through a recycled handle.
        EXPECT_EQ(p->openRecords(), 0u);
        EXPECT_EQ(p->staleMarks(), 0u);
        ASSERT_FALSE(p->aggregates().empty());
        uint64_t total_samples = 0;
        for (const auto &kv : p->aggregates()) {
            const auto &h = kv.second[size_t(prof::Phase::Total)];
            total_samples += h.count();
            // End-to-end latency can never exceed the run length.
            EXPECT_LE(h.max(), r.cycles);
        }
        EXPECT_GT(total_samples, 0u);
    });
}

TEST(TopDownSystem, SkewedBucketTripsTheChecker)
{
    runProfiled(Machine::SS, "pathfinder", [](TiledSystem &sys,
                                              const SimResults &) {
        prof::Profiler *p = sys.profiler();
        ASSERT_TRUE(p->verifyTopDown().empty());
        // Inject the accounting bug the checker exists to catch: one
        // bucket of one account gains a cycle nobody simulated.
        auto it = p->topDownAccounts().begin();
        ASSERT_NE(it, p->topDownAccounts().end());
        std::string victim = it->first;
        p->topDown(victim).rawCyclesForTest()[size_t(
            prof::Bucket::Retired)] += 1;
        auto violations = p->verifyTopDown();
        ASSERT_EQ(violations.size(), 1u);
        EXPECT_NE(violations[0].find(victim), std::string::npos);
    });
}
