/**
 * @file
 * Unit tests for the protocol-hardening layer: the forward-progress
 * watchdog, the invariant checker, deterministic fault injection, and
 * the fatal()/diagnostic-hook plumbing they report through.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/checker.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/watchdog.hh"

using namespace sf;

namespace {

/** Keep the queue busy with no-op events so only probes decide fate. */
void
scheduleTicks(EventQueue &eq, Tick until, Cycles step = 10)
{
    for (Tick t = step; t <= until; t += step)
        eq.schedule(t, [] {});
}

} // namespace

TEST(Watchdog, NoTripWhileProgressing)
{
    EventQueue eq;
    uint64_t counter = 0;
    // Activity that advances the probe every 10 cycles.
    for (Tick t = 10; t <= 1000; t += 10)
        eq.schedule(t, [&counter] { ++counter; });

    Watchdog wd(eq, 100);
    wd.addProbe("counter", [&counter] { return counter; });
    wd.start();
    EXPECT_NO_THROW(eq.run(1000));
    wd.stop();
    EXPECT_EQ(counter, 100u);
}

TEST(Watchdog, TripsWhenNoProbeAdvances)
{
    EventQueue eq;
    scheduleTicks(eq, 2000);

    Watchdog wd(eq, 50);
    wd.addProbe("stuck", [] { return uint64_t(42); });
    wd.start();
    try {
        eq.run(2000);
        FAIL() << "watchdog did not trip";
    } catch (const FatalError &e) {
        EXPECT_EQ(e.code(), ExitCode::WatchdogTimeout);
        EXPECT_EQ(e.exitStatus(), 64);
        EXPECT_NE(std::string(e.what()).find("no forward progress"),
                  std::string::npos);
    }
    // The trip happens after one full stalled interval.
    EXPECT_LE(eq.curTick(), 150u);
}

TEST(Watchdog, TripsOnceProgressStops)
{
    EventQueue eq;
    uint64_t counter = 0;
    // Progress for the first 500 cycles, then silence.
    for (Tick t = 10; t <= 500; t += 10)
        eq.schedule(t, [&counter] { ++counter; });
    scheduleTicks(eq, 3000);

    Watchdog wd(eq, 100);
    wd.addProbe("counter", [&counter] { return counter; });
    wd.start();
    try {
        eq.run(3000);
        FAIL() << "watchdog did not trip";
    } catch (const FatalError &e) {
        EXPECT_EQ(e.code(), ExitCode::WatchdogTimeout);
    }
    // Progress stopped at 500; the trip needs one stalled interval.
    EXPECT_GE(eq.curTick(), 600u);
    EXPECT_LE(eq.curTick(), 800u);
}

TEST(Watchdog, StopCancelsPendingCheck)
{
    EventQueue eq;
    scheduleTicks(eq, 1000);
    Watchdog wd(eq, 50);
    wd.addProbe("stuck", [] { return uint64_t(0); });
    wd.start();
    wd.stop();
    EXPECT_NO_THROW(eq.run(1000));
    EXPECT_FALSE(wd.running());
}

TEST(FaultConfig, ParseFullSpec)
{
    FaultConfig fc = FaultConfig::parse(
        "seed:7,dropfloat:0.25,dropcredit:0.5,dupend:0.125,dupack:1,"
        "delay:0.1,delaycycles:300,overflow:2,noretry");
    EXPECT_EQ(fc.seed, 7u);
    EXPECT_DOUBLE_EQ(fc.drop[int(FaultClass::FloatRequest)], 0.25);
    EXPECT_DOUBLE_EQ(fc.drop[int(FaultClass::CreditGrant)], 0.5);
    EXPECT_DOUBLE_EQ(fc.dup[int(FaultClass::StreamEnd)], 0.125);
    EXPECT_DOUBLE_EQ(fc.dup[int(FaultClass::StreamAck)], 1.0);
    EXPECT_DOUBLE_EQ(fc.delayProb, 0.1);
    EXPECT_EQ(fc.delayCycles, 300u);
    EXPECT_EQ(fc.overflowEntries, 2);
    EXPECT_TRUE(fc.noRetry);
    EXPECT_TRUE(fc.enabled());
    EXPECT_TRUE(fc.messageFaults());
    EXPECT_FALSE(fc.describe().empty());
}

TEST(FaultConfig, NoneAndDefaultsAreDisabled)
{
    EXPECT_FALSE(FaultConfig().enabled());
    EXPECT_FALSE(FaultConfig::parse("none").enabled());
    EXPECT_FALSE(FaultConfig::parse("").enabled());
    // Structural faults are not message faults.
    FaultConfig fc = FaultConfig::parse("overflow");
    EXPECT_TRUE(fc.enabled());
    EXPECT_FALSE(fc.messageFaults());
    EXPECT_EQ(fc.overflowEntries, 1);
}

TEST(FaultConfig, UnknownTokenIsFatal)
{
    EXPECT_THROW(FaultConfig::parse("dropeverything:1"), FatalError);
    EXPECT_THROW(FaultConfig::parse("dropfloat"), FatalError);
}

TEST(FaultInjector, SameSeedSameSchedule)
{
    FaultConfig fc = FaultConfig::parse(
        "seed:11,dropfloat:0.3,dupcredit:0.2,delay:0.1");
    FaultInjector a(fc), b(fc);
    std::vector<FaultAction> sa, sb;
    for (int i = 0; i < 2000; ++i) {
        auto cls = static_cast<FaultClass>(i % numFaultClasses);
        sa.push_back(a.decide(cls));
        sb.push_back(b.decide(cls));
    }
    EXPECT_EQ(sa, sb);
    EXPECT_GT(a.totalInjected(), 0u);
    EXPECT_EQ(a.totalInjected(), b.totalInjected());
}

TEST(FaultInjector, DifferentSeedDifferentSchedule)
{
    FaultConfig f1 = FaultConfig::parse("seed:1,dropfloat:0.5");
    FaultConfig f2 = FaultConfig::parse("seed:2,dropfloat:0.5");
    FaultInjector a(f1), b(f2);
    bool differ = false;
    for (int i = 0; i < 512 && !differ; ++i) {
        differ = a.decide(FaultClass::FloatRequest) !=
                 b.decide(FaultClass::FloatRequest);
    }
    EXPECT_TRUE(differ);
}

TEST(Checker, LevelGatesChecks)
{
    EventQueue eq;
    Checker ck(eq, CheckLevel::Basic);
    int basic_runs = 0, full_runs = 0;
    ck.addCheck("basic", CheckLevel::Basic,
                [&](std::vector<std::string> &) { ++basic_runs; });
    ck.addCheck("full", CheckLevel::Full,
                [&](std::vector<std::string> &) { ++full_runs; });
    ck.runAll("test");
    EXPECT_EQ(basic_runs, 1);
    EXPECT_EQ(full_runs, 0);

    Checker ck2(eq, CheckLevel::Off);
    ck2.addCheck("basic", CheckLevel::Basic,
                 [&](std::vector<std::string> &) { ++basic_runs; });
    ck2.runAll("test");
    EXPECT_EQ(basic_runs, 1); // Off level runs nothing
}

TEST(Checker, ViolationIsFatalWithDistinctCode)
{
    EventQueue eq;
    Checker ck(eq, CheckLevel::Full);
    ck.addCheck("bad", CheckLevel::Basic,
                [](std::vector<std::string> &v) {
                    v.push_back("the sky is falling");
                });
    try {
        ck.runAll("unit");
        FAIL() << "violation did not throw";
    } catch (const FatalError &e) {
        EXPECT_EQ(e.code(), ExitCode::InvariantViolation);
        EXPECT_EQ(e.exitStatus(), 65);
        EXPECT_NE(std::string(e.what()).find("bad: the sky is falling"),
                  std::string::npos);
    }
    // Drain sweeps report under their own exit code.
    try {
        ck.runAll("drain", ExitCode::DrainFailure);
        FAIL() << "violation did not throw";
    } catch (const FatalError &e) {
        EXPECT_EQ(e.exitStatus(), 66);
    }
}

TEST(Checker, PeriodicSweepCatchesViolation)
{
    EventQueue eq;
    scheduleTicks(eq, 5000, 100);
    Checker ck(eq, CheckLevel::Basic, 1000);
    bool violate = false;
    ck.addCheck("armed", CheckLevel::Basic,
                [&](std::vector<std::string> &v) {
                    if (violate)
                        v.push_back("tripped");
                });
    eq.schedule(2500, [&violate] { violate = true; });
    ck.start();
    EXPECT_THROW(eq.run(5000), FatalError);
    EXPECT_GE(eq.curTick(), 3000u);
    ck.stop();
    EXPECT_GE(ck.checksRun(), 2u);
}

TEST(Checker, CleanRunDrainsQuietly)
{
    EventQueue eq;
    scheduleTicks(eq, 3000, 100);
    Checker ck(eq, CheckLevel::Full, 500);
    ck.addCheck("fine", CheckLevel::Basic,
                [](std::vector<std::string> &) {});
    ck.start();
    EXPECT_NO_THROW(eq.run(3000));
    ck.stop();
    EXPECT_NO_THROW(ck.runAll("drain", ExitCode::DrainFailure));
}

TEST(Diagnostics, HooksReplayOnFatal)
{
    int id = addDiagnosticHook("unit-test", [](std::FILE *f) {
        std::fprintf(f, "unit-test-diagnostic-marker\n");
    });

    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    emitDiagnostics(tmp);
    std::rewind(tmp);
    char buf[4096];
    size_t n = std::fread(buf, 1, sizeof(buf) - 1, tmp);
    buf[n] = '\0';
    EXPECT_NE(std::string(buf).find("unit-test-diagnostic-marker"),
              std::string::npos);
    std::fclose(tmp);

    removeDiagnosticHook(id);
    std::FILE *tmp2 = std::tmpfile();
    ASSERT_NE(tmp2, nullptr);
    emitDiagnostics(tmp2);
    std::rewind(tmp2);
    n = std::fread(buf, 1, sizeof(buf) - 1, tmp2);
    buf[n] = '\0';
    EXPECT_EQ(std::string(buf).find("unit-test-diagnostic-marker"),
              std::string::npos);
    std::fclose(tmp2);
}

TEST(Diagnostics, ThrowingHookDoesNotMaskError)
{
    int id = addDiagnosticHook("explosive", [](std::FILE *) {
        throw std::runtime_error("hook exploded");
    });
    try {
        fatalCode(ExitCode::InvariantViolation, "original error");
        FAIL() << "fatalCode did not throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("original error"),
                  std::string::npos);
        EXPECT_EQ(e.exitStatus(), 65);
    }
    removeDiagnosticHook(id);
}

TEST(ExitCodes, DefaultFatalIsConfigError)
{
    try {
        fatal("plain bad config");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_EQ(e.code(), ExitCode::ConfigError);
        EXPECT_EQ(e.exitStatus(), 1);
    }
}

TEST(CheckLevelParsing, Strings)
{
    EXPECT_EQ(checkLevelFromString("off"), CheckLevel::Off);
    EXPECT_EQ(checkLevelFromString("none"), CheckLevel::Off);
    EXPECT_EQ(checkLevelFromString("basic"), CheckLevel::Basic);
    EXPECT_EQ(checkLevelFromString("1"), CheckLevel::Basic);
    EXPECT_EQ(checkLevelFromString("full"), CheckLevel::Full);
    EXPECT_EQ(checkLevelFromString("strict"), CheckLevel::Full);
    EXPECT_THROW(checkLevelFromString("bogus"), FatalError);
    EXPECT_STREQ(checkLevelName(CheckLevel::Full), "full");
}
