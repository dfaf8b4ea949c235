/**
 * @file
 * sflint unit tests: every rule class detects its seeded fixture
 * violation, suppressions work (and unjustified or retired-rule ones
 * do not), and the text report is byte-stable and pins the full
 * fixture finding list.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sflint.hh"

namespace fs = std::filesystem;
using namespace sflint;

namespace {

Config
fixtureConfig()
{
    Config cfg;
    cfg.root = SFLINT_FIXTURE_ROOT;
    cfg.inputs = {"fixtures"};
    return cfg;
}

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in) << "cannot read " << p;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spit(const fs::path &p, const std::string &text)
{
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << p;
    out << text;
}

/** Non-suppressed findings for @p rule in @p file. */
std::vector<Finding>
newFindings(const AnalysisResult &res, const std::string &rule,
            const std::string &file)
{
    std::vector<Finding> out;
    for (const Finding &fd : res.findings) {
        if (!fd.suppressed && fd.rule == rule && fd.file == file)
            out.push_back(fd);
    }
    return out;
}

} // namespace

TEST(SflintRules, DetectsSeededViolations)
{
    AnalysisResult res = analyze(fixtureConfig());

    EXPECT_EQ(newFindings(res, "D1", "fixtures/d1_unordered.cc").size(),
              1u);
    auto ptrkey = newFindings(res, "D1", "fixtures/d1_ptrkey.cc");
    ASSERT_EQ(ptrkey.size(), 1u);
    EXPECT_NE(ptrkey[0].message.find("pointer-keyed"),
              std::string::npos);
    // Profile-report aggregation maps must stay ordered so
    // profile.json is byte-stable (DESIGN.md §4h).
    auto agg = newFindings(res, "D1", "fixtures/d1_profile_agg.cc");
    ASSERT_EQ(agg.size(), 1u);
    EXPECT_NE(agg[0].message.find("unordered"), std::string::npos);

    EXPECT_EQ(newFindings(res, "D2", "fixtures/d2_banned.cc").size(),
              1u);

    // p1_default.cc seeds both P1 shapes: a default arm and a missing
    // enumerator.
    auto p1 = newFindings(res, "P1", "fixtures/p1_default.cc");
    ASSERT_EQ(p1.size(), 2u);
    EXPECT_NE(p1[0].message.find("missing: Halt"), std::string::npos);
    EXPECT_NE(p1[1].message.find("default arm"), std::string::npos);

    EXPECT_EQ(newFindings(res, "T1", "fixtures/t1_narrow.cc").size(),
              3u);

    // s1_static.cc seeds one namespace-scope and one function-local
    // mutable static; its const/constexpr/thread_local/atomic/mutex/
    // function shapes must all stay silent.
    auto s1 = newFindings(res, "S1", "fixtures/s1_static.cc");
    ASSERT_EQ(s1.size(), 2u);
    EXPECT_EQ(s1[0].context, "fxGlobalCounter");
    EXPECT_EQ(s1[1].context, "fxCache");

    // a1_unknown.cc suppresses a rule id that does not exist and one
    // that was retired (S2).
    auto a1 = newFindings(res, "A1", "fixtures/a1_unknown.cc");
    ASSERT_EQ(a1.size(), 2u);
    EXPECT_EQ(a1[0].context, "D9");
    EXPECT_NE(a1[0].message.find("unknown rule 'D9'"),
              std::string::npos);
    EXPECT_EQ(a1[1].context, "S2");
}

TEST(SflintRules, D2TimedPathReachability)
{
    AnalysisResult res = analyze(fixtureConfig());

    // Host-side reporting code reads the wall clock freely: nothing
    // in d2v2_host.cc is reachable from a timed root, so D2 is
    // silent there (the old path-allowlist would have flagged it).
    for (const Finding &fd : res.findings)
        EXPECT_NE(fd.file, "fixtures/d2v2_host.cc")
            << fd.rule << " " << fd.message;

    // The same primitive inside a scheduler call's argument list is
    // an event handler and therefore on the timed path.
    auto sched = newFindings(res, "D2", "fixtures/d2v2_sched_arg.cc");
    ASSERT_EQ(sched.size(), 1u);
    EXPECT_EQ(sched[0].context, "rand");
    EXPECT_NE(sched[0].message.find("timed simulation path"),
              std::string::npos);

    // And reachability from a named timed root marks callees timed.
    EXPECT_EQ(newFindings(res, "D2", "fixtures/d2_banned.cc").size(),
              1u);
}

TEST(SflintRules, UnjustifiedSuppressionsDoNotSilence)
{
    AnalysisResult res = analyze(fixtureConfig());

    // An `allow(RULE)` with no justification text leaves the finding
    // new and tags it so the report says what is missing.
    int fresh = 0;
    for (const Finding &fd : res.findings) {
        if (fd.file != "fixtures/d2v2_nojustify.cc")
            continue;
        EXPECT_FALSE(fd.suppressed);
        EXPECT_NE(fd.message.find("missing a justification"),
                  std::string::npos);
        ++fresh;
    }
    EXPECT_EQ(fresh, 1);
}

TEST(SflintRules, SuppressionsAndCleanFile)
{
    AnalysisResult res = analyze(fixtureConfig());

    int suppressedSeen = 0;
    for (const Finding &fd : res.findings) {
        SCOPED_TRACE(fd.file + ":" + std::to_string(fd.line));
        if (fd.file.find("_suppressed") != std::string::npos) {
            EXPECT_TRUE(fd.suppressed);
            ++suppressedSeen;
        }
        EXPECT_NE(fd.file, "fixtures/clean.cc");
    }
    // One suppressed case per rule class (D1, D2, P1, S1, T1).
    EXPECT_EQ(suppressedSeen, 5);
}

TEST(SflintRules, RetiredRuleSuppressionIsUnknown)
{
    // E1 (raw `new` of events) is retired: EventQueue::Event is a
    // private nested type, which tests/sim/event_queue_test.cc pins at
    // compile time. A leftover allow(E1, ...) is an A1 finding, and the
    // `new` it sat on is no longer a finding of any rule.
    fs::path tmp = fs::path(::testing::TempDir()) / "sflint_retired";
    fs::create_directories(tmp / "seed");
    spit(tmp / "seed" / "retired.cc",
         "struct FxDrainEvent\n"
         "{\n"
         "    int pad = 0;\n"
         "};\n"
         "\n"
         "inline FxDrainEvent *\n"
         "fxMake()\n"
         "{\n"
         "    // sflint: allow(E1, fixture: off-arena event)\n"
         "    return new FxDrainEvent;\n"
         "}\n");

    Config cfg;
    cfg.root = tmp.string();
    cfg.inputs = {"seed"};
    AnalysisResult res = analyze(cfg);
    ASSERT_EQ(res.findings.size(), 1u);
    EXPECT_EQ(res.findings[0].rule, "A1");
    EXPECT_EQ(res.findings[0].context, "E1");
    EXPECT_EQ(res.findings[0].line, 9);
    EXPECT_FALSE(res.findings[0].suppressed);
}

TEST(SflintLexer, OneCommentCarriesSeveralSuppressions)
{
    // One line carrying findings from two rules is suppressed by two
    // `sflint: allow(...)` groups in a single comment; the lexer must
    // parse every group, not just the first.
    fs::path tmp = fs::path(::testing::TempDir()) / "sflint_shared";
    fs::create_directories(tmp / "seed");
    const std::string body =
        "struct EventQueue\n"
        "{\n"
        "    void run();\n"
        "};\n"
        "\n"
        "void\n"
        "EventQueue::run()\n"
        "{\n"
        "%s"
        "    int t = (int)curTick + rand();\n"
        "}\n";
    auto withComment = [&](const std::string &comment) {
        std::string text = body;
        text.replace(text.find("%s"), 2, comment);
        return text;
    };

    Config cfg;
    cfg.root = tmp.string();
    cfg.inputs = {"seed"};

    spit(tmp / "seed" / "mixed.cc", withComment(""));
    std::set<std::string> rules;
    AnalysisResult before = analyze(cfg);
    for (const Finding &fd : before.findings) {
        EXPECT_FALSE(fd.suppressed);
        rules.insert(fd.rule);
    }
    ASSERT_EQ(rules, (std::set<std::string>{"D2", "T1"}));

    spit(tmp / "seed" / "mixed.cc",
         withComment("    // sflint: allow(D2, fixture: seeded) "
                     "sflint: allow(T1, fixture: seeded)\n"));
    AnalysisResult after = analyze(cfg);
    ASSERT_EQ(after.findings.size(), before.findings.size());
    for (const Finding &fd : after.findings)
        EXPECT_TRUE(fd.suppressed) << fd.rule << " " << fd.message;
}

TEST(SflintOutput, ByteStableAndMatchesGolden)
{
    AnalysisResult a = analyze(fixtureConfig());
    AnalysisResult b = analyze(fixtureConfig());
    EXPECT_EQ(renderText(a, true), renderText(b, true));

    fs::path root(SFLINT_FIXTURE_ROOT);
    EXPECT_EQ(renderText(a, true), slurp(root / "fixtures_golden.txt"));
}
