/**
 * @file
 * Unit tests for the latency-attribution profiler (sim/profile.hh):
 * histogram bucketing and percentiles, exact-sum top-down accounting
 * (including the negative case a skewed bucket must trip), lifecycle
 * record open/mark/add/close with stale-handle detection, and the
 * IntervalSampler end-of-sim tail flush the heatmaps depend on.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/event_queue.hh"
#include "sim/interval_sampler.hh"
#include "sim/json.hh"
#include "sim/profile.hh"

using namespace sf;
using namespace sf::prof;

// ---------------------------------------------------------------- LatHist

TEST(LatHist, BucketBoundaries)
{
    EXPECT_EQ(LatHist::bucketOf(0), 0);
    EXPECT_EQ(LatHist::bucketOf(1), 1);
    EXPECT_EQ(LatHist::bucketOf(2), 2);
    EXPECT_EQ(LatHist::bucketOf(3), 2);
    EXPECT_EQ(LatHist::bucketOf(4), 3);
    EXPECT_EQ(LatHist::bucketOf(1024), 11);
    // Every bucket's own bounds round-trip through bucketOf.
    for (int b = 1; b < LatHist::numBuckets; ++b) {
        EXPECT_EQ(LatHist::bucketOf(LatHist::bucketLo(b)), b);
        EXPECT_EQ(LatHist::bucketOf(LatHist::bucketHi(b)), b);
    }
}

TEST(LatHist, CountSumMaxMean)
{
    LatHist h;
    for (uint64_t v : {0ull, 1ull, 2ull, 7ull, 100ull})
        h.sample(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 110u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 22.0);
}

TEST(LatHist, PercentilesInterpolateAndStayOrdered)
{
    LatHist h;
    EXPECT_DOUBLE_EQ(h.p50(), 0.0); // empty
    for (uint64_t v = 1; v <= 100; ++v)
        h.sample(v);
    double p50 = h.p50();
    double p95 = h.p95();
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, double(h.max()));
    // Log2 buckets lose precision but the median of 1..100 must land
    // in the same power-of-two bucket as the exact value 50.
    EXPECT_GE(p50, 33.0);
    EXPECT_LE(p50, 64.0);
}

TEST(LatHist, MergeAddsEverything)
{
    LatHist a, b;
    a.sample(3);
    a.sample(5);
    b.sample(1000);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.sum(), 1008u);
    EXPECT_EQ(a.max(), 1000u);
}

// --------------------------------------------------------- TopDownAccount

TEST(TopDown, BucketsSumExactlyToAccountedCycles)
{
    TopDownAccount td;
    td.tickAt(0, Bucket::Retired);
    td.tickAt(1, Bucket::Retired);
    // Sleep until 10 with a data-stall gap reason.
    td.setGapReason(Bucket::StalledData);
    td.tickAt(10, Bucket::Retired);
    EXPECT_EQ(td.cycles(Bucket::Retired), 3u);
    EXPECT_EQ(td.cycles(Bucket::StalledData), 8u);
    EXPECT_EQ(td.total(), td.accountedUpTo());
    EXPECT_TRUE(td.verify("t").empty());
}

TEST(TopDown, RepeatTicksInOneCycleAreIdempotent)
{
    TopDownAccount td;
    td.tickAt(5, Bucket::Retired);
    td.tickAt(5, Bucket::StalledData); // same cycle: ignored
    td.tickAt(5, Bucket::Idle);        // same cycle: ignored
    EXPECT_EQ(td.cycles(Bucket::Retired), 1u);
    EXPECT_EQ(td.cycles(Bucket::StalledData), 0u);
    EXPECT_EQ(td.total(), 6u); // 5 idle-gap cycles + 1 retired
}

TEST(TopDown, FinalizeChargesTailGap)
{
    TopDownAccount td;
    td.tickAt(0, Bucket::Retired);
    td.setGapReason(Bucket::Idle);
    td.finalize(100);
    EXPECT_EQ(td.cycles(Bucket::Idle), 99u);
    EXPECT_EQ(td.accountedUpTo(), 100u);
    EXPECT_TRUE(td.verify("t").empty());
    // finalize is monotone: shrinking the horizon is a no-op.
    td.finalize(50);
    EXPECT_EQ(td.accountedUpTo(), 100u);
}

TEST(TopDown, SkewedBucketTripsVerifier)
{
    TopDownAccount td;
    td.tickAt(0, Bucket::Retired);
    td.finalize(64);
    ASSERT_TRUE(td.verify("core0").empty());
    // Corrupt one bucket the way an accounting bug would.
    td.rawCyclesForTest()[size_t(Bucket::StalledData)] += 7;
    std::string v = td.verify("core0");
    EXPECT_NE(v.find("core0"), std::string::npos);
    EXPECT_NE(v.find("71"), std::string::npos);
}

// --------------------------------------------------------------- Profiler

TEST(Profiler, LifecyclePhasesPartitionAndTotalMatches)
{
    Profiler p;
    uint32_t id = p.open(2, invalidStream, 100);
    ASSERT_NE(id, 0u);
    EXPECT_EQ(p.openRecords(), 1u);
    p.mark(id, Phase::PrivCache, 103); // 3 cycles in the caches
    p.add(id, Phase::NocReqXfer, 9);   // overlapping sub-interval
    p.mark(id, Phase::Remote, 150);    // 47 cycles remote
    p.close(id, 152);                  // 2 residual cycles -> Fill
    EXPECT_EQ(p.openRecords(), 0u);

    const auto &agg = p.aggregates();
    ASSERT_EQ(agg.size(), 1u);
    const auto &hists = agg.at({2, invalidStream});
    EXPECT_EQ(hists[size_t(Phase::PrivCache)].sum(), 3u);
    EXPECT_EQ(hists[size_t(Phase::Remote)].sum(), 47u);
    EXPECT_EQ(hists[size_t(Phase::Fill)].sum(), 2u);
    EXPECT_EQ(hists[size_t(Phase::NocReqXfer)].sum(), 9u);
    EXPECT_EQ(hists[size_t(Phase::Total)].sum(), 52u);
    // Mark-phases partition [open, close) exactly.
    EXPECT_EQ(hists[size_t(Phase::PrivCache)].sum() +
                  hists[size_t(Phase::Remote)].sum() +
                  hists[size_t(Phase::Fill)].sum(),
              hists[size_t(Phase::Total)].sum());
}

TEST(Profiler, StaleHandleIsCountedNotCorrupting)
{
    Profiler p;
    uint32_t id = p.open(0, 3, 10);
    p.close(id, 20);
    // The slot recycles with a bumped generation: the old handle must
    // resolve to nothing.
    uint32_t id2 = p.open(0, 4, 30);
    ASSERT_NE(id2, 0u);
    p.mark(id, Phase::Remote, 40); // stale
    EXPECT_EQ(p.staleMarks(), 1u);
    p.close(id, 50); // stale close: also ignored
    EXPECT_EQ(p.staleMarks(), 2u);
    EXPECT_EQ(p.openRecords(), 1u);
    p.close(id2, 60);
    const auto &hists = p.aggregates().at({0, 4});
    EXPECT_EQ(hists[size_t(Phase::Total)].count(), 1u);
}

TEST(Profiler, HandleZeroIsIgnoredEverywhere)
{
    Profiler p;
    p.mark(0, Phase::Remote, 5);
    p.add(0, Phase::Mem, 5);
    p.close(0, 5);
    EXPECT_EQ(p.staleMarks(), 0u);
    EXPECT_TRUE(p.aggregates().empty());
}

TEST(Profiler, TopDownRegistryFinalizesEveryAccount)
{
    Profiler p;
    p.topDown("tile0.core").tickAt(0, Bucket::Retired);
    p.topDown("tile1.core").tickAt(4, Bucket::StalledData);
    EXPECT_TRUE(p.finalizeTopDown(10).empty());
    for (const auto &kv : p.topDownAccounts())
        EXPECT_EQ(kv.second.accountedUpTo(), 10u) << kv.first;
    // Skew one account and re-verify without finalizing again.
    p.topDown("tile0.core").rawCyclesForTest()[0] += 1;
    auto v = p.verifyTopDown();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].find("tile0.core"), std::string::npos);
}

TEST(Profiler, StreamLabels)
{
    EXPECT_EQ(streamLabel(invalidStream), "demand");
    EXPECT_EQ(streamLabel(7), "s7");
}

TEST(Profiler, DumpJsonIsValidAndDeterministic)
{
    auto build = []() {
        Profiler p;
        uint32_t a = p.open(1, invalidStream, 0);
        p.mark(a, Phase::PrivCache, 4);
        p.close(a, 10);
        p.topDown("tile1.core").tickAt(0, Bucket::Retired);
        p.finalizeTopDown(10);
        std::ostringstream os;
        json::Writer w(os);
        w.beginObject();
        p.dumpJson(w);
        w.endObject();
        return os.str();
    };
    std::string s1 = build();
    std::string s2 = build();
    EXPECT_EQ(s1, s2);
    EXPECT_NE(s1.find("\"latency\""), std::string::npos);
    EXPECT_NE(s1.find("\"topdown\""), std::string::npos);
    EXPECT_NE(s1.find("\"tile1\""), std::string::npos);
    EXPECT_NE(s1.find("\"demand\""), std::string::npos);
}

// ------------------------------------------------- IntervalSampler tail

TEST(IntervalSampler, FlushesFinalPartialInterval)
{
    EventQueue eq;
    stats::IntervalSampler s("s", eq, 100);
    uint64_t counter = 0;
    s.addValue("ctr", [&]() { return double(counter); });
    s.start();
    // Sim length 250: snapshots at 100 and 200, then a 50-cycle tail
    // that stop() must emit instead of dropping. run(250) leaves the
    // sampler's recurring event (due at 300) queued, like a real sim
    // ending between snapshots.
    eq.schedule(250, [&]() { counter = 42; });
    eq.run(250);
    s.stop();
    ASSERT_EQ(s.ticks().size(), 3u);
    EXPECT_EQ(s.ticks()[0], 100u);
    EXPECT_EQ(s.ticks()[1], 200u);
    EXPECT_EQ(s.ticks()[2], 250u);
    EXPECT_DOUBLE_EQ(s.series()[0].values.back(), 42.0);
    // stop() is idempotent: no duplicate tail sample.
    s.stop();
    EXPECT_EQ(s.ticks().size(), 3u);
}

TEST(IntervalSampler, NoDoubleSampleWhenLengthDivides)
{
    EventQueue eq;
    stats::IntervalSampler s("s", eq, 100);
    s.addValue("ctr", []() { return 1.0; });
    s.start();
    eq.schedule(300, []() {});
    eq.run(300);
    s.stop();
    // 300 divides evenly: the tick-300 snapshot already happened, the
    // tail flush must not add a second sample at the same tick.
    ASSERT_EQ(s.ticks().size(), 3u);
    EXPECT_EQ(s.ticks().back(), 300u);
}

TEST(IntervalSampler, MatrixTailFrameCoversPartialInterval)
{
    EventQueue eq;
    stats::IntervalSampler s("s", eq, 100);
    uint64_t cell = 0;
    s.addMatrix("m", 1, 2, [&](std::vector<uint64_t> &out) {
        out[0] = cell;
        out[1] = 2 * cell;
    });
    s.start();
    eq.schedule(120, [&]() { cell = 5; });
    eq.run(120);
    s.stop();
    const auto &m = s.matrices()[0];
    // Frame 1 covers [0,100) with cell still 0; the tail frame covers
    // [100,120) and carries the delta.
    ASSERT_EQ(m.frames.size(), 2u);
    EXPECT_EQ(m.frames[0][0], 0u);
    EXPECT_EQ(m.frames[1][0], 5u);
    EXPECT_EQ(m.frames[1][1], 10u);
}
