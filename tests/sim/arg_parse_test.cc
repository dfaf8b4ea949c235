/**
 * @file
 * Unit tests for the shared command-line front end (sim/arg_parse.hh):
 * every value validator over a matrix of accepted and rejected values,
 * and the option table's handling of unknown options, missing values,
 * switches given a value, short aliases, positionals and --help.
 * A rejection is always a UsageError that names the offending flag,
 * never a silent default.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "sim/arg_parse.hh"
#include "sim/logging.hh"
#include "workload/workload.hh"

using namespace sf;

namespace {

/** The FatalError message must name the flag the user typed. */
void
expectFatalNaming(const std::string &value, const char *flag)
{
    try {
        parseThreadCount(value, flag);
        FAIL() << "expected FatalError for '" << value << "'";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
            << "message does not name " << flag << ": " << e.what();
    }
}

} // namespace

TEST(ParseThreadCount, AcceptsPositiveIntegers)
{
    EXPECT_EQ(parseThreadCount("1", "--threads"), 1);
    EXPECT_EQ(parseThreadCount("4", "--threads"), 4);
    EXPECT_EQ(parseThreadCount("64", "-j"), 64);
    EXPECT_EQ(parseThreadCount("4096", "--threads"), 4096);
}

TEST(ParseThreadCount, RejectsZeroAndNegative)
{
    expectFatalNaming("0", "--threads");
    expectFatalNaming("-1", "--threads");
    expectFatalNaming("-4", "-j");
}

TEST(ParseThreadCount, RejectsNonNumeric)
{
    expectFatalNaming("", "--threads");
    expectFatalNaming("four", "--threads");
    expectFatalNaming("4x", "--threads");
    expectFatalNaming("1.5", "-j");
    expectFatalNaming(" 4 ", "--threads");
}

TEST(ParseThreadCount, RejectsOutOfRange)
{
    expectFatalNaming("4097", "--threads");
    expectFatalNaming("99999999999999999999", "--threads");
}

namespace {

/** One validator under test; returns its result as text. */
struct Validator
{
    const char *name;
    std::function<std::string(const std::string &, const std::string &)>
        parse;
    std::vector<std::pair<std::string, std::string>> accepted;
    std::vector<std::string> rejected;
};

std::vector<Validator>
validators()
{
    using S = std::string;
    return {
        {"parseThreadCount",
         [](const S &v, const S &f) {
             return std::to_string(parseThreadCount(v, f));
         },
         {{"1", "1"}, {"4", "4"}, {"64", "64"}, {"4096", "4096"}},
         {"", "0", "-1", "-4", "four", "4x", "abc", "1.5", " 4 ", "+4",
          "4097", "99999999999999999999", "nan"}},
        {"parseMesh",
         [](const S &v, const S &f) {
             auto [nx, ny] = parseMesh(v, f);
             return std::to_string(nx) + "x" + std::to_string(ny);
         },
         {{"4x4", "4x4"}, {"2x2", "2x2"}, {"4x8", "4x8"}, {"1x1", "1x1"}},
         {"", "4x", "x4", "4", "abc", "0x4", "4x0", "-1x4", "4x4x4",
          "4X4", " 4x4", "4x4 ", "4.0x4", "nan", "4097x1"}},
        {"parsePositiveReal",
         [](const S &v, const S &f) {
             return std::to_string(parsePositiveReal(v, f));
         },
         {{"0.5", "0.500000"}, {"1", "1.000000"}, {"2e-2", "0.020000"},
          {".25", "0.250000"}},
         {"", "x", "abc", "0.02x", "0", "-0.5", "-1", "nan", "inf",
          "1e999", " 0.5", "0.5 "}},
        {"parseCount",
         [](const S &v, const S &f) {
             return std::to_string(parseCount(v, f));
         },
         {{"0", "0"}, {"5000", "5000"},
          {"18446744073709551615", "18446744073709551615"}},
         {"", "-1", "abc", "4x", "1e3", "1.5", " 1", "+1",
          "18446744073709551616", "nan"}},
        {"parseSize",
         [](const S &v, const S &f) {
             return std::to_string(parseSize(v, f));
         },
         {{"1", "1"}, {"100000", "100000"},
          {"1099511627776", "1099511627776"}},
         {"", "0", "-1", "abc", "1e3", " 1", "1099511627777",
          "18446744073709551616"}},
        {"parseList",
         [](const S &v, const S &f) {
             S out;
             for (const S &item : parseList(v, f))
                 out += "[" + item + "]";
             return out;
         },
         {{"mv", "[mv]"}, {"mv,bfs", "[mv][bfs]"}, {"a,b,c", "[a][b][c]"}},
         {"", ",", "mv,", ",mv", "mv,,bfs"}},
        {"parseWorkloadName",
         [](const S &v, const S &f) {
             return workload::parseWorkloadName(v, f);
         },
         {{"pathfinder", "pathfinder"}, {"b+tree", "b+tree"},
          {"btree", "btree"}, {"hotspot3D", "hotspot3D"},
          {"hotspot3d", "hotspot3d"}, {"conv3d", "conv3d"}},
         {"", "nope", "Pathfinder", "mv,bfs", "-1", "4x"}},
    };
}

} // namespace

TEST(ArgValidators, AcceptedValuesParse)
{
    for (const Validator &v : validators()) {
        for (const auto &[in, want] : v.accepted)
            EXPECT_EQ(v.parse(in, "--flag"), want) << v.name << "(" << in
                                                   << ")";
    }
}

TEST(ArgValidators, RejectedValuesNameTheFlag)
{
    for (const Validator &v : validators()) {
        for (const std::string &in : v.rejected) {
            try {
                std::string got = v.parse(in, "--flag");
                ADD_FAILURE() << v.name << " accepted '" << in << "' as "
                              << got;
            } catch (const UsageError &e) {
                std::string msg = e.what();
                EXPECT_NE(msg.find("--flag"), std::string::npos)
                    << v.name << ": " << msg;
                EXPECT_NE(msg.find("'" + in + "'"), std::string::npos)
                    << v.name << ": " << msg;
            }
        }
    }
}

namespace {

/** A table with one entry of every kind, recording what was set. */
struct Fixture
{
    std::string stats;
    double scale = 0.06;
    uint64_t interval = 0;
    int threads = 1;
    int nx = 4, ny = 4;
    bool verify = false;
    std::string workload = "pathfinder";
    std::vector<std::string> seen; //!< generic-entry values, in order
    OptionTable table{"/some/dir/prog"};

    Fixture()
    {
        table.bind("workload", "", "benchmark name", workload,
                   workload::parseWorkloadName);
        table.text("--stats-json", "DIR", "stats directory", stats);
        table.bind("--scale", "S", "dataset scale", scale,
                   parsePositiveReal);
        table.bind("--sample-interval", "N", "sampling", interval,
                   parseCount);
        table.bind("--threads", "N", "workers", threads,
                   parseThreadCount);
        table.bind("-j", "N", "same as --threads", threads,
                   parseThreadCount);
        table.add("--cores", "NxM", "mesh size",
                  [this](const std::string &v) {
                      std::tie(nx, ny) = parseMesh(v, "--cores");
                  });
        table.flag("--verify", "oracle", verify);
        table.add("--tag", "T", "generic entry",
                  [this](const std::string &v) { seen.push_back(v); });
    }

    bool apply(const std::vector<std::string> &args)
    {
        return table.apply(args);
    }
};

/** The UsageError message apply() throws for @p args. */
std::string
rejection(const std::vector<std::string> &args)
{
    Fixture f;
    try {
        f.apply(args);
    } catch (const UsageError &e) {
        return e.what();
    }
    return "(accepted)";
}

} // namespace

TEST(OptionTable, AppliesEveryEntryKind)
{
    Fixture f;
    EXPECT_TRUE(f.apply({"mv", "--stats-json=out", "--scale=0.02",
                         "--sample-interval=500", "--threads=3",
                         "--cores=2x8", "--verify", "--tag=a", "--tag=b"}));
    EXPECT_EQ(f.workload, "mv");
    EXPECT_EQ(f.stats, "out");
    EXPECT_DOUBLE_EQ(f.scale, 0.02);
    EXPECT_EQ(f.interval, 500u);
    EXPECT_EQ(f.threads, 3);
    EXPECT_EQ(f.nx, 2);
    EXPECT_EQ(f.ny, 8);
    EXPECT_TRUE(f.verify);
    EXPECT_EQ(f.seen, (std::vector<std::string>{"a", "b"}));
}

TEST(OptionTable, EmptyCommandLineKeepsDefaults)
{
    Fixture f;
    EXPECT_TRUE(f.apply({}));
    EXPECT_EQ(f.workload, "pathfinder");
    EXPECT_DOUBLE_EQ(f.scale, 0.06);
    EXPECT_EQ(f.nx, 4);
    EXPECT_FALSE(f.verify);
}

TEST(OptionTable, ShortOptionTakesAttachedOrNextValue)
{
    Fixture a;
    EXPECT_TRUE(a.apply({"-j4"}));
    EXPECT_EQ(a.threads, 4);
    Fixture b;
    EXPECT_TRUE(b.apply({"-j", "2", "mv"}));
    EXPECT_EQ(b.threads, 2);
    EXPECT_EQ(b.workload, "mv");
    // With no count to take, a trailing -j matches nothing.
    EXPECT_EQ(rejection({"mv", "-j"}), "unknown option '-j'");
    EXPECT_EQ(rejection({"-j0"}),
              "-j must be a positive integer up to 4096, got '0'");
    EXPECT_EQ(rejection({"-j", "abc"}),
              "-j must be a positive integer up to 4096, got 'abc'");
}

TEST(OptionTable, RejectionMatrix)
{
    const struct
    {
        std::vector<std::string> args;
        const char *message;
    } cases[] = {
        {{"--scael=0.5"}, "unknown option '--scael=0.5'"},
        {{"--bogus"}, "unknown option '--bogus'"},
        {{"-x"}, "unknown option '-x'"},
        {{"-0.5"}, "unknown option '-0.5'"},
        {{"--workloads=mv"}, "unknown option '--workloads=mv'"},
        {{"--cores"}, "option '--cores' needs a value (--cores=NxM)"},
        {{"--stats-json", "dir"},
         "option '--stats-json' needs a value (--stats-json=DIR)"},
        {{"--verify=1"}, "option '--verify' takes no value, got "
                         "'--verify=1'"},
        {{"--verify="}, "option '--verify' takes no value, got "
                        "'--verify='"},
        {{"mv", "extra"}, "unexpected argument 'extra'"},
        {{"--cores=abc"}, "--cores must be NxM with both sides in "
                          "1..4096, got 'abc'"},
        {{"--scale=x"}, "--scale must be a positive number, got 'x'"},
        {{"--scale="}, "option '--scale' needs a value (--scale=S)"},
        {{"--sample-interval=-1"},
         "--sample-interval must be a non-negative integer, got '-1'"},
        {{"--stats-json="},
         "option '--stats-json' needs a value (--stats-json=DIR)"},
        {{"nope"}, "workload must be one of conv3d, mv, b+tree, bfs, cfd, "
                   "hotspot, hotspot3D, nn, nw, particlefilter, "
                   "pathfinder, srad, got 'nope'"},
    };
    for (const auto &c : cases)
        EXPECT_EQ(rejection(c.args), c.message) << c.args[0];
}

TEST(OptionTable, FirstBadTokenWinsAndLaterOnesAreNotApplied)
{
    Fixture f;
    EXPECT_THROW(f.apply({"--scale=0.5", "--bogus", "--scale=0.7"}),
                 UsageError);
    EXPECT_DOUBLE_EQ(f.scale, 0.5);
}

TEST(OptionTable, ParseExitsTwoWithUsageAndZeroOnHelp)
{
    OptionTable t("prog");
    double scale = 1;
    t.bind("--scale", "S", "dataset scale", scale, parsePositiveReal);
    // Library parsers report through fatal(); the exit is still 2.
    t.add("--check", "LVL", "level",
          [](const std::string &v) { fatal("unknown level '%s'", v.c_str()); });
    auto run = [&t](std::vector<std::string> args) {
        std::vector<char *> argv = {const_cast<char *>("prog")};
        for (std::string &a : args)
            argv.push_back(a.data());
        t.parse(static_cast<int>(argv.size()), argv.data());
        std::exit(42); // parse() returned: the arguments were accepted
    };
    EXPECT_EXIT(run({"--scale=x"}), ::testing::ExitedWithCode(kUsageExit),
                "prog: --scale must be a positive number, got 'x'\n"
                "usage: prog \\[options\\]");
    EXPECT_EXIT(run({"--check=zz"}), ::testing::ExitedWithCode(kUsageExit),
                "prog: unknown level 'zz'");
    EXPECT_EXIT(run({"--help"}), ::testing::ExitedWithCode(0), "");
    EXPECT_EXIT(run({"--scale=2"}), ::testing::ExitedWithCode(42), "");
}

TEST(OptionTable, HelpStopsParsing)
{
    Fixture f;
    EXPECT_FALSE(f.apply({"--scale=0.5", "--help", "--bogus"}));
    EXPECT_DOUBLE_EQ(f.scale, 0.5);
    Fixture g;
    EXPECT_FALSE(g.apply({"-h"}));
}

TEST(OptionTable, UsageListsEveryRegisteredEntry)
{
    Fixture f;
    std::string u = f.table.usage();
    EXPECT_EQ(u.rfind("usage: prog [workload] [options]\n", 0), 0u) << u;
    for (const char *want :
         {"  workload ", "benchmark name", "--stats-json=DIR",
          "--scale=S", "--sample-interval=N", "--threads=N", "-jN",
          "--cores=NxM", "mesh size", "--verify ", "--tag=T",
          "generic entry", "-h, --help"}) {
        EXPECT_NE(u.find(want), std::string::npos) << want << "\n" << u;
    }
    // One line per entry: usage line, positional, 8 options, help.
    EXPECT_EQ(std::count(u.begin(), u.end(), '\n'), 11);
}
