/**
 * @file
 * Prefetcher tests: stride detection/degree, Bingo footprint learning
 * and replay, and bulk request grouping.
 */

#include <gtest/gtest.h>

#include "common/test_fabric.hh"
#include "prefetch/bingo.hh"
#include "prefetch/stride.hh"

using namespace sf;
using namespace sf::test;

namespace {

mem::PrefetchObserverIf::DemandInfo
info(Addr pa, uint32_t pc)
{
    return {pa, pa, pc, false, true, true};
}

} // namespace

TEST(Stride, DetectsUnitLineStrideAndIssuesDegree)
{
    sys::TiledSystem f(fabricConfig());
    prefetch::StrideConfig cfg;
    cfg.degree = 8;
    prefetch::StridePrefetcher pf(f.privCache(0), cfg);
    Addr base = 0x10000;
    for (int i = 0; i < 4; ++i)
        pf.observe(info(base + static_cast<Addr>(i) * 64, 42));
    drain(f);
    EXPECT_GT(pf.issued.value(), 0u);
    // Degree-8 line-stride: 8 distinct lines per trained access.
    EXPECT_LE(pf.issued.value(), 8u * 2);
    EXPECT_GT(f.privCache(0).stats().prefetchesIssued.value(), 0u);
}

TEST(Stride, IgnoresRandomAddresses)
{
    sys::TiledSystem f(fabricConfig());
    prefetch::StridePrefetcher pf(f.privCache(0), prefetch::StrideConfig{});
    Rng rng(1);
    for (int i = 0; i < 50; ++i)
        pf.observe(info(rng.next() & 0xfffffc0, 42));
    drain(f);
    EXPECT_EQ(pf.issued.value(), 0u);
}

TEST(Stride, TracksNegativeStride)
{
    sys::TiledSystem f(fabricConfig());
    prefetch::StridePrefetcher pf(f.privCache(0), prefetch::StrideConfig{});
    Addr base = 0x100000;
    for (int i = 0; i < 6; ++i)
        pf.observe(info(base - static_cast<Addr>(i) * 64, 9));
    drain(f);
    EXPECT_GT(pf.issued.value(), 0u);
}

TEST(Stride, PerPcTables)
{
    sys::TiledSystem f(fabricConfig());
    prefetch::StridePrefetcher pf(f.privCache(0), prefetch::StrideConfig{});
    // Interleave two PCs with different strides; both should train.
    for (int i = 0; i < 8; ++i) {
        pf.observe(info(0x10000 + static_cast<Addr>(i) * 64, 1));
        pf.observe(info(0x80000 + static_cast<Addr>(i) * 256, 2));
    }
    drain(f);
    EXPECT_GT(pf.issued.value(), 8u);
}

TEST(Stride, SubLineStridesRunAheadAtLineGranularity)
{
    sys::TiledSystem f(fabricConfig());
    prefetch::StrideConfig cfg;
    cfg.degree = 8;
    prefetch::StridePrefetcher pf(f.privCache(0), cfg);
    // 4B stride: the run-ahead distance must still be `degree` LINES,
    // not degree*4 bytes (a fraction of one line).
    for (int i = 0; i < 32; ++i)
        pf.observe(info(0x20000 + static_cast<Addr>(i) * 4, 5));
    drain(f);
    // Each trained access issues up to `degree` distinct-line targets.
    EXPECT_GT(pf.issued.value(), 32u * 2);
    EXPECT_LE(pf.issued.value(), 32u * 8);
    // The L1 received real line prefetches well beyond the demand foot.
    EXPECT_GT(f.privCache(0).stats().prefetchesIssued.value(), 8u);
}

TEST(Bingo, LearnsFootprintAndReplaysIt)
{
    sys::TiledSystem f(fabricConfig());
    prefetch::BingoConfig cfg;
    cfg.activeRegions = 2; // force quick generation turnover
    prefetch::BingoPrefetcher pf(f.privCache(0), cfg);

    // Region A: touch lines {0, 3, 5} repeatedly with trigger pc 7.
    auto touch_region = [&](Addr region) {
        pf.observe(info(region + 0 * 64, 7));
        pf.observe(info(region + 3 * 64, 8));
        pf.observe(info(region + 5 * 64, 9));
    };
    // Several regions to train the short event (pc+offset), and force
    // retirement by exceeding activeRegions.
    for (int r = 0; r < 8; ++r)
        touch_region(0x100000 + static_cast<Addr>(r) * 2048);
    drain(f);
    // Later regions trigger a replay of the learned footprint.
    EXPECT_GT(pf.issued.value(), 0u);
    EXPECT_GT(pf.shortHits.value() + pf.longHits.value(), 0u);
}

TEST(Bingo, NoPredictionNoPrefetch)
{
    sys::TiledSystem f(fabricConfig());
    prefetch::BingoPrefetcher pf(f.privCache(0), prefetch::BingoConfig{});
    pf.observe(info(0x40000, 3));
    drain(f);
    EXPECT_EQ(pf.issued.value(), 0u);
}

TEST(Bulk, GroupsConsecutiveL2Prefetches)
{
    // Same prefetch pattern with and without bulk grouping: bulk must
    // inject fewer request packets for the same number of prefetches.
    auto run_once = [](bool bulk) {
        sys::SystemConfig opt = fabricConfig();
        opt.nucaInterleave = 1024; // bulk needs >64B interleaving
        sys::TiledSystem f(opt);
        f.privCache(0).setBulkPrefetch(bulk);
        prefetch::StrideConfig cfg;
        cfg.degree = 16;
        cfg.fillLevel = 2;
        prefetch::StridePrefetcher pf(f.privCache(0), cfg);
        mem::AddressSpace &as = f.addressSpace();
        Addr base = as.translate(as.alloc(1 << 20));
        for (int i = 0; i < 8; ++i)
            pf.observe(info(base + static_cast<Addr>(i) * 64, 3));
        drain(f);
        return std::pair<uint64_t, uint64_t>(
            f.mesh().traffic().packets[0],
            f.privCache(0).stats().prefetchesIssued.value());
    };
    auto [pkts_plain, pf_plain] = run_once(false);
    auto [pkts_bulk, pf_bulk] = run_once(true);
    EXPECT_EQ(pf_plain, pf_bulk);
    EXPECT_LT(pkts_bulk, pkts_plain);
}

TEST(Prefetch, UsefulPrefetchCountsOnDemandHit)
{
    sys::TiledSystem f(fabricConfig());
    prefetch::StrideConfig cfg;
    cfg.degree = 4;
    prefetch::StridePrefetcher pf(f.privCache(0), cfg);
    f.privCache(0).setPrefetchers(&pf, nullptr);

    Addr v = f.addressSpace().alloc(1 << 16);
    int done = 0;
    for (int i = 0; i < 40; ++i) {
        demand(f, 0, v + static_cast<Addr>(i) * 64, false, &done);
        drain(f);
    }
    EXPECT_EQ(done, 40);
    EXPECT_GT(f.privCache(0).stats().prefetchesUseful.value(), 0u);
}
