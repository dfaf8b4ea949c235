/** @file Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

using namespace sf::stats;

TEST(Scalar, IncrementAndAdd)
{
    Scalar s;
    EXPECT_EQ(s.value(), 0u);
    ++s;
    s += 10;
    EXPECT_EQ(s.value(), 11u);
    EXPECT_EQ(static_cast<uint64_t>(s), 11u);
}

TEST(Scalar, Reset)
{
    Scalar s;
    s += 5;
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(10, 4); // buckets [0,10) [10,20) [20,30) [30,40) + ovf
    h.sample(5);
    h.sample(15);
    h.sample(35);
    h.sample(1000);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.buckets()[4], 1u); // overflow bucket
}

TEST(Histogram, MeanTracksSamples)
{
    Histogram h(1, 8);
    for (uint64_t v : {1, 2, 3, 4})
        h.sample(v);
    EXPECT_DOUBLE_EQ(h.mean(), 2.5);
}

TEST(StatGroup, RegisterDumpAndFind)
{
    StatGroup g("cache");
    Scalar hits, misses;
    hits += 7;
    misses += 3;
    g.regScalar("hits", &hits);
    g.regScalar("misses", &misses);

    EXPECT_EQ(g.findScalar("hits")->value(), 7u);
    EXPECT_EQ(g.findScalar("nothing"), nullptr);

    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("cache.hits 7"), std::string::npos);
    EXPECT_NE(os.str().find("cache.misses 3"), std::string::npos);
}

TEST(StatGroup, HistogramRegistrationAndDump)
{
    StatGroup g("noc");
    Histogram hops(1, 4);
    hops.sample(1);
    hops.sample(2);
    hops.sample(2);
    g.regHistogram("packetHops", &hops);

    ASSERT_NE(g.findHistogram("packetHops"), nullptr);
    EXPECT_EQ(g.findHistogram("packetHops")->count(), 3u);
    EXPECT_EQ(g.findHistogram("nothing"), nullptr);

    std::ostringstream os;
    g.dump(os);
    std::string s = os.str();
    EXPECT_NE(s.find("noc.packetHops.count 3"), std::string::npos);
    EXPECT_NE(s.find("noc.packetHops.mean "), std::string::npos);
    EXPECT_NE(s.find("noc.packetHops.buckets 0 1 2 0 0"),
              std::string::npos);
}

TEST(StatGroup, FormulaEvaluatedLazilyAtDump)
{
    StatGroup g("core");
    Scalar ops;
    g.regFormula("opsTimesTwo",
                 [&ops]() { return 2.0 * double(ops.value()); });

    ops += 21; // after registration: dump must see the current value
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("core.opsTimesTwo 42"), std::string::npos);
}
