/**
 * @file
 * Observability-layer integration tests: the JSON stat dump must
 * round-trip through a parser and agree with the SimResults aggregates,
 * interval sampling must produce aligned time series, and the
 * stream-lifecycle logs must export a well-formed Chrome trace that a
 * rerun reproduces byte for byte.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "common/test_json.hh"
#include "sim/stream_trace.hh"
#include "system/tiled_system.hh"
#include "workload/workload.hh"

using namespace sf;
using namespace sf::sys;

namespace {

struct RunOutput
{
    SimResults results;
    test_json::Value json;
};

SystemConfig
smallConfig(Machine m)
{
    SystemConfig cfg =
        SystemConfig::make(m, cpu::CoreConfig::ooo4(), 2, 2);
    cfg.maxCycles = 30'000'000;
    return cfg;
}

/** Run @p wl_name at scale 0.02 on @p sys, built from @p cfg. */
SimResults
runOn(TiledSystem &sys, const SystemConfig &cfg, const std::string &wl_name)
{
    workload::WorkloadParams wp;
    wp.numThreads = cfg.numTiles();
    wp.scale = 0.02;
    wp.useStreams = machineUsesStreams(cfg.machine);
    auto wl = workload::makeWorkload(wl_name, wp);
    wl->init(sys.addressSpace());
    SimResults r = sys.run(wl->makeAllThreads());
    EXPECT_FALSE(r.hitCycleLimit);
    return r;
}

RunOutput
runWithJson(Machine m, const std::string &wl_name, Cycles interval)
{
    SystemConfig cfg = smallConfig(m);
    cfg.samplingInterval = interval;
    TiledSystem sys(cfg);
    SimResults r = runOn(sys, cfg, wl_name);

    std::ostringstream os;
    sys.dumpStatsJson(os, r);
    return {r, test_json::parse(os.str())};
}

/** An SF run with stream tracing on; @return its Chrome trace. */
std::string
tracedRun(const std::string &wl_name, SimResults *out)
{
    SystemConfig cfg = smallConfig(Machine::SF);
    cfg.traceStreams = true;
    TiledSystem sys(cfg);
    *out = runOn(sys, cfg, wl_name);
    std::ostringstream os;
    sys.writeStreamTrace(os);
    return os.str();
}

} // namespace

TEST(StatsJson, SchemaAndResultsMatchSimResults)
{
    RunOutput out = runWithJson(Machine::SF, "pathfinder", 2000);
    const auto &j = out.json;

    EXPECT_EQ(j.at("schema").str, "sf-stats");
    EXPECT_EQ(j.at("schemaVersion").number, 1.0);
    EXPECT_EQ(j.at("config").at("machine").str, "SF");

    const auto &res = j.at("results");
    EXPECT_EQ(res.at("cycles").number, double(out.results.cycles));
    EXPECT_EQ(res.at("committedOps").number,
              double(out.results.committedOps));
    EXPECT_EQ(res.at("l2Hits").number, double(out.results.l2Hits));
    EXPECT_EQ(res.at("l3Misses").number, double(out.results.l3Misses));
    EXPECT_EQ(res.at("streamsFloated").number,
              double(out.results.streamsFloated));
    EXPECT_NEAR(res.at("ipc").number, out.results.ipc(), 1e-6);
    EXPECT_EQ(res.at("l3RequestsByClass").array.size(), 5u);
}

TEST(StatsJson, EventQueueGroupAndHostStatsOptIn)
{
    SystemConfig cfg =
        SystemConfig::make(Machine::Base, cpu::CoreConfig::io4(), 2, 2);
    TiledSystem sys(cfg);
    workload::WorkloadParams wp;
    wp.numThreads = cfg.numTiles();
    wp.scale = 0.01;
    auto wl = workload::makeWorkload("mv", wp);
    wl->init(sys.addressSpace());
    SimResults r = sys.run(wl->makeAllThreads());

    // The event kernel's counts describe the host engine, not the
    // simulated machine: they only enter the dump on the host-stats
    // opt-in, so default dumps carry no sim.eventq group.
    std::ostringstream off;
    sys.dumpStatsJson(off, r);
    auto j = test_json::parse(off.str());
    EXPECT_FALSE(j.at("groups").has("sim.eventq"));

    // Host timing is measured on every run but, being wall-clock and
    // hence nondeterministic, only enters the dump on opt-in.
    EXPECT_GT(r.hostSeconds, 0.0);
    EXPECT_GT(r.eventsPerHostSec(), 0.0);
    EXPECT_EQ(off.str().find("\"host\""), std::string::npos);

    sys.includeHostStats(true);
    std::ostringstream on;
    sys.dumpStatsJson(on, r);
    auto j2 = test_json::parse(on.str());
    EXPECT_NEAR(j2.at("groups").at("host").at("seconds").number,
                r.hostSeconds, 1e-9);
    // The dump's throughput counts every event the run executed.
    EXPECT_NEAR(j2.at("groups").at("host").at("eventsPerSec").number,
                r.eventsPerHostSec(), r.eventsPerHostSec() * 1e-8);
    const auto &eq = j2.at("groups").at("sim.eventq");
    EXPECT_GE(eq.at("executed").number, double(r.eventsExecuted));
    EXPECT_GT(eq.at("executed").number, 0.0);
    EXPECT_TRUE(eq.has("pending"));
    EXPECT_GE(eq.at("arenaCapacity").number, 512.0);
}

TEST(StatsJson, EndClockIsCyclesSoNocUtilizationAgrees)
{
    // The run ends with the tick in which the last core finishes, so
    // the clock that divides every utilization is the reported cycles.
    SystemConfig cfg = smallConfig(Machine::SF);
    TiledSystem sys(cfg);
    SimResults r = runOn(sys, cfg, "pathfinder");
    EXPECT_EQ(sys.eventQueue().curTick(), r.cycles);
    double live = double(sys.mesh().liveLinkCount());
    EXPECT_GT(r.traffic.linkBusyCycles, 0u);
    EXPECT_DOUBLE_EQ(r.nocUtilization,
                     double(r.traffic.linkBusyCycles) /
                         (live * double(r.cycles)));
}

TEST(StatsJson, GroupTotalsMatchAggregates)
{
    RunOutput out = runWithJson(Machine::SF, "pathfinder", 0);
    const auto &groups = out.json.at("groups");

    // Summing per-tile group scalars must reproduce the aggregates.
    double l1_hits = 0, floated = 0;
    for (int t = 0; t < 4; ++t) {
        std::string tn = "tile" + std::to_string(t);
        l1_hits += groups.at(tn + ".priv").at("l1Hits").number;
        floated += groups.at(tn + ".seCore").at("streamsFloated").number;
    }
    EXPECT_EQ(l1_hits, double(out.results.l1Hits));
    EXPECT_EQ(floated, double(out.results.streamsFloated));

    // The mesh group carries formulas and the hop histogram.
    const auto &mesh = groups.at("mesh");
    EXPECT_EQ(mesh.at("flitHops.data").number,
              double(out.results.traffic.flitHops[1]));
    EXPECT_GT(mesh.at("packetHops").at("count").number, 0.0);
    EXPECT_EQ(mesh.at("packetHops").at("buckets").array.size(), 17u);
}

TEST(StatsJson, IntervalSeriesAlignedAndPlausible)
{
    RunOutput out = runWithJson(Machine::SF, "pathfinder", 1000);
    const auto &series = out.json.at("series");

    EXPECT_EQ(series.at("interval").number, 1000.0);
    size_t n = series.at("ticks").array.size();
    EXPECT_GT(n, 1u);

    const auto &values = series.at("values");
    // The standard probe set: >= 4 series, all aligned with ticks.
    EXPECT_GE(values.object.size(), 4u);
    for (const char *name :
         {"ipc", "l2HitRate", "l3HitRate", "nocLinkUtilization"}) {
        ASSERT_TRUE(values.has(name)) << name;
        EXPECT_EQ(values.at(name).array.size(), n) << name;
    }
    // Rates are ratios: every point within [0, 1].
    for (const auto &v : values.at("l2HitRate").array) {
        EXPECT_GE(v.number, 0.0);
        EXPECT_LE(v.number, 1.0);
    }
}

TEST(StatsJson, SamplingOffEmitsNoSeries)
{
    RunOutput out = runWithJson(Machine::BingoPf, "pathfinder", 0);
    EXPECT_EQ(out.json.at("series").at("interval").number, 0.0);
    EXPECT_FALSE(out.json.at("series").has("ticks"));
}

TEST(StreamTrace, ChromeTraceExportRoundTrips)
{
    SimResults r;
    test_json::Value j = test_json::parse(tracedRun("pathfinder", &r));
    EXPECT_GT(r.streamsFloated, 0u);
    EXPECT_GT(r.streamTraceEvents, 0u);

    const auto &evs = j.at("traceEvents").array;
    ASSERT_FALSE(evs.empty());
    bool saw_float = false, saw_meta = false;
    size_t stream_events = 0;
    for (const auto &e : evs) {
        const std::string &ph = e.at("ph").str;
        if (ph == "M") {
            saw_meta = true;
            continue;
        }
        ++stream_events;
        // Every non-metadata event sits on a (pid, tid) stream track
        // with a microsecond timestamp and the raw tick in args.
        EXPECT_TRUE(e.has("pid"));
        EXPECT_TRUE(e.has("tid"));
        EXPECT_TRUE(e.has("ts"));
        EXPECT_TRUE(e.at("args").has("tick"));
        if (e.at("name").str == "float")
            saw_float = true;
    }
    EXPECT_TRUE(saw_meta);
    EXPECT_TRUE(saw_float);
    EXPECT_EQ(stream_events, r.streamTraceEvents);
}

TEST(StreamTrace, DisabledTracerRecordsNothing)
{
    RunOutput out = runWithJson(Machine::SF, "pathfinder", 0);
    EXPECT_GT(out.results.streamsFloated, 0u);
    EXPECT_EQ(out.results.streamTraceEvents, 0u);
}

/**
 * Two incarnations of one stream id get separate tracks. The case: a
 * late SE_L3 arrive of generation 1 lands at the tick at which the
 * core configures and floats the stream again (generation 2). Keyed
 * by (core, sid) alone, both would share one track.
 */
TEST(StreamTrace, IncarnationsGetSeparateTracks)
{
    using trace::StreamPhase;
    const GlobalStreamId c0s3{0, 3};
    trace::StreamLog core = {
        {100, c0s3, 1, StreamPhase::Config, 0, {}},
        {100, c0s3, 1, StreamPhase::Float, 0, "config"},
        {5000, c0s3, 1, StreamPhase::End, 0, {}},
        {38350, c0s3, 2, StreamPhase::Config, 0, {}},
        {38350, c0s3, 2, StreamPhase::Float, 0, "config"},
    };
    trace::StreamLog bank = {
        {2000, c0s3, 1, StreamPhase::Arrive, 2, "config"},
        {38350, c0s3, 1, StreamPhase::Arrive, 2, "config"},
        {38357, c0s3, 2, StreamPhase::Arrive, 2, "config"},
    };
    std::ostringstream os;
    trace::writeChromeTrace(os, {core, bank});
    test_json::Value j = test_json::parse(os.str());

    // tid of each (name, tick) record, and the name of each track.
    std::map<std::pair<std::string, double>, double> tidOf;
    std::string endPh;
    std::map<double, std::string> trackName;
    for (const auto &e : j.at("traceEvents").array) {
        if (e.at("name").str == "thread_name") {
            trackName[e.at("tid").number] =
                e.at("args").at("name").str;
        } else if (e.at("ph").str != "M") {
            EXPECT_EQ(e.at("pid").number, 0.0);
            tidOf[{e.at("name").str, e.at("args").at("tick").number}] =
                e.at("tid").number;
            if (e.at("name").str == "end")
                endPh = e.at("ph").str;
        }
    }
    ASSERT_EQ(tidOf.size(), 8u);
    double oldArrive = tidOf.at({"arrive", 38350});
    double newConfig = tidOf.at({"config", 38350});
    EXPECT_NE(oldArrive, newConfig);
    EXPECT_EQ(oldArrive, tidOf.at({"config", 100}));
    EXPECT_EQ(newConfig, tidOf.at({"arrive", 38357}));
    EXPECT_EQ(trackName.at(oldArrive), "s3 gen 1");
    EXPECT_EQ(trackName.at(newConfig), "s3 gen 2");
    // No slice runs from the end into the late arrival behind it.
    EXPECT_EQ(endPh, "i");
}

/** Two runs of one configuration write the same trace. */
TEST(StreamTrace, RerunWritesTheSameTrace)
{
    SimResults r1, r2;
    std::string t1 = tracedRun("conv3d", &r1);
    std::string t2 = tracedRun("conv3d", &r2);
    EXPECT_GT(r1.migrations, 0u);
    EXPECT_GT(r1.streamTraceEvents, 0u);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(t1, t2);
}
