/**
 * @file
 * Shared benchmark-harness utilities: the command-line options every
 * simulating driver shares, the one simulation runner, and table
 * formatting for the paper-figure reproductions.
 *
 * BenchOptions registers two option groups on a driver's OptionTable
 * (sim/arg_parse.hh): the run options quickstart shares and the grid
 * options of the benches; any driver's --help lists them. A driver
 * sets its own defaults on the struct (else 4x4, scale 0.06, all 12
 * workloads) before parsing and adds its extra options to the same
 * table. A bad option or value prints usage and exits 2 before
 * anything is built.
 */

#ifndef SF_BENCH_BENCH_UTIL_HH
#define SF_BENCH_BENCH_UTIL_HH

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "sim/arg_parse.hh"
#include "sim/output_path.hh"
#include "system/tiled_system.hh"
#include "verify/oracle.hh"
#include "workload/workload.hh"

namespace sf {
namespace bench {

struct BenchOptions
{
    int nx = 4;
    int ny = 4;
    double scale = 0.06;
    std::vector<std::string> workloads = workload::workloadNames();
    /** When non-empty, every runSim() drops a stats.json here. */
    std::string statsJsonDir;
    /** Sampling interval (cycles) for JSON time series; 0 = off. */
    Cycles sampleInterval = 0;
    /** Invariant checker level for every run. */
    CheckLevel check = CheckLevel::Off;
    /** Fault-injection schedule for every run. */
    FaultConfig faults;
    /** Watchdog interval override; ~0 keeps the config default. */
    Tick watchdogCycles = ~0ULL;
    /**
     * Run the functional reference executor alongside every sim and
     * diff the final memory image + stream trip counts (exit 67 on
     * divergence). SF_VERIFY_BUG selects a protocol-bug injection for
     * the oracle's own negative tests.
     */
    bool verify = false;
    /**
     * Latency-attribution profiler (DESIGN.md §4h). Adds the
     * profile.* stat groups to stats.json and, with --stats-json,
     * writes a standalone profile.json + profsum.json per run.
     */
    bool profile = false;

    /** Register the options every simulating driver shares. */
    void
    addRunOptions(OptionTable &t)
    {
        t.text("--stats-json", "DIR", "one stats.json per run into DIR",
               statsJsonDir);
        t.add("--check", "LVL", "invariant checker off|basic|full",
              [this](const std::string &v) {
                  check = checkLevelFromString(v);
              });
        t.add("--faults", "SPEC", "fault injection (sim/fault.hh)",
              [this](const std::string &v) {
                  faults = FaultConfig::parse(v);
              });
        t.bind("--watchdog-cycles", "N", "watchdog interval (0 = off)",
               watchdogCycles, parseCount);
        t.flag("--verify", "diff against the reference executor", verify);
        t.flag("--profile", "latency-attribution profiler", profile);
    }

    /** Register the mesh and dataset grid options of the benches. */
    void
    addGridOptions(OptionTable &t)
    {
        t.add("--cores", "NxM",
              "mesh size (default " + std::to_string(nx) + "x" +
                  std::to_string(ny) + ")",
              [this](const std::string &v) {
                  std::tie(nx, ny) = parseMesh(v, "--cores");
              });
        t.bind("--scale", "S", "dataset scale vs Table IV", scale,
               parsePositiveReal);
        t.add("--workloads", "a,b,c", "subset of the Table IV benchmarks",
              [this](const std::string &v) {
                  workloads = parseList(v, "--workloads");
                  for (const std::string &w : workloads)
                      workload::parseWorkloadName(w, "--workloads");
              });
        t.add("--full", "", "paper fidelity: 8x8 mesh, scale 0.25",
              [this](const std::string &) {
                  nx = ny = 8;
                  scale = 0.25;
              });
        t.bind("--sample-interval", "N", "stats.json sampling interval",
               sampleInterval, parseCount);
    }

    /** Parse a bench command line that has just these two groups. */
    void
    parse(int argc, char **argv)
    {
        OptionTable t(argv[0]);
        addRunOptions(t);
        addGridOptions(t);
        t.parse(argc, argv);
    }
};

/** File stem of one run's artifacts: "<core>_<machine>_<workload>". */
inline std::string
runStem(const cpu::CoreConfig &core, sys::Machine machine,
        const std::string &wl_name)
{
    std::string stem = core.label + "_" + sys::machineName(machine) + "_" +
                       wl_name;
    for (char &c : stem) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return stem;
}

/** Diff @p system's end state against a functional replay of @p wl. */
inline verify::RefResult
checkAgainstReference(sys::TiledSystem &system, workload::Workload &wl,
                      const std::string &what)
{
    auto ref_threads = wl.makeAllThreads();
    std::vector<isa::OpSource *> srcs;
    for (auto &t : ref_threads)
        srcs.push_back(t.get());
    verify::RefResult golden =
        verify::runReference(system.addressSpace(), srcs);
    verify::checkOrDie(*system.verifyPlane(), golden, system.addressSpace(),
                       wl.verifyRegions(), what);
    return golden;
}

/** Adjusts a run's SystemConfig beyond what BenchOptions sets. */
using ConfigHook = std::function<void(sys::SystemConfig &)>;

/**
 * Run one (machine, workload) simulation. SF_STREAM_TRACE=1 (any value
 * but "0") records stream lifecycles, written next to the stats.json
 * as <stem>.trace.json; a non-null @p trace records them too and gets
 * the Chrome trace.
 */
inline sys::SimResults
runSim(sys::Machine machine, const cpu::CoreConfig &core,
       const std::string &wl_name, const BenchOptions &opt,
       const ConfigHook &hook = nullptr, std::ostream *trace = nullptr)
{
    sys::SystemConfig cfg =
        sys::SystemConfig::make(machine, core, opt.nx, opt.ny);
    if (hook)
        hook(cfg);
    if (!opt.statsJsonDir.empty()) {
        // Default to ~100 points over a typical scaled run.
        cfg.samplingInterval =
            opt.sampleInterval ? opt.sampleInterval : 10'000;
    }
    cfg.checkLevel = opt.check;
    cfg.faults = opt.faults;
    if (opt.watchdogCycles != ~0ULL)
        cfg.watchdogCycles = opt.watchdogCycles;
    cfg.verify = opt.verify;
    cfg.profile = opt.profile;
    // sflint: allow(D2, driver copies SF_VERIFY_BUG into SystemConfig)
    if (const char *bug = std::getenv("SF_VERIFY_BUG"))
        cfg.verifyBug = bug;
    // sflint: allow(D2, driver copies SF_STREAM_TRACE into SystemConfig)
    const char *trace_env = std::getenv("SF_STREAM_TRACE");
    cfg.traceStreams = trace || (trace_env && *trace_env &&
                                 std::string(trace_env) != "0");
    sys::TiledSystem system(cfg);

    workload::WorkloadParams wp;
    wp.numThreads = cfg.numTiles();
    wp.scale = opt.scale;
    wp.useStreams = sys::machineUsesStreams(machine);
    auto wl = workload::makeWorkload(wl_name, wp);
    wl->init(system.addressSpace());
    sys::SimResults r = system.run(wl->makeAllThreads());

    if (opt.verify) {
        checkAgainstReference(system, *wl,
                              wl_name + " on " + sys::machineName(machine));
    }

    if (!opt.statsJsonDir.empty()) {
        ensureOutputDir(opt.statsJsonDir, "--stats-json");
        std::string stem = runStem(core, machine, wl_name);
        std::ofstream js = openOutputFile(
            opt.statsJsonDir + "/" + stem + ".stats.json",
            "--stats-json");
        system.dumpStatsJson(js, r);
        if (opt.profile) {
            std::ofstream pf = openOutputFile(
                opt.statsJsonDir + "/" + stem + ".profile.json",
                "--profile");
            system.dumpProfileJson(pf, r);
            std::ofstream ps = openOutputFile(
                opt.statsJsonDir + "/" + stem + ".profsum.json",
                "--profile");
            system.dumpProfileSummaryJson(ps);
        }
        if (r.streamTraceEvents > 0) {
            std::ofstream tr = openOutputFile(
                opt.statsJsonDir + "/" + stem + ".trace.json",
                "--stats-json");
            system.writeStreamTrace(tr);
        }
    }
    if (trace)
        system.writeStreamTrace(*trace);
    return r;
}

inline double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / v.size();
}

inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0;
    for (double x : v)
        s += std::log(std::max(x, 1e-12));
    return std::exp(s / static_cast<double>(v.size()));
}

/** The geomean of each column in @p cols. */
inline std::vector<double>
geomeans(const std::vector<std::vector<double>> &cols)
{
    std::vector<double> out;
    for (const auto &c : cols)
        out.push_back(geomean(c));
    return out;
}

/** Print one row: name followed by fixed-width columns. */
inline void
printRow(const std::string &name, const std::vector<double> &cols,
         const char *fmt = "%10.2f")
{
    std::printf("%-16s", name.c_str());
    for (double c : cols)
        std::printf(fmt, c);
    std::printf("\n");
}

inline void
printHeader(const std::string &name, const std::vector<std::string> &cols)
{
    std::printf("%-16s", name.c_str());
    for (const auto &c : cols)
        std::printf("%10s", c.c_str());
    std::printf("\n");
}

/** Run @p body; a FatalError becomes its exit status, a panic aborts. */
int guardedRun(const char *prog, const std::function<int()> &body);

} // namespace bench
} // namespace sf

/** A driver's body, run by the shared main() in driver_main.cc. */
int driverMain(int argc, char **argv);

#endif // SF_BENCH_BENCH_UTIL_HH
