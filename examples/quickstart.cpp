/**
 * @file
 * Quickstart: build a 4x4 tiled CMP, run one workload on two machine
 * variants (a Bingo-prefetching baseline and full Stream Floating),
 * and print the headline numbers the paper's evaluation revolves
 * around: cycles, NoC traffic, and energy.
 *
 * Usage: quickstart [workload] [scale] [--stats-json=DIR] [--trace=FILE]
 *                   [--check=LVL] [--faults=SPEC] [--watchdog-cycles=N]
 *                   [--verify] [--profile] [--threads=N] [--help]
 *
 *   workload          one of the Table IV names (default pathfinder)
 *   scale             dataset scale, a positive number (default 0.05)
 *   --threads=N       worker threads for the tile-parallel engine
 *                     (results are byte-identical to --threads=1;
 *                     DESIGN.md §4i)
 *
 *   --stats-json=DIR  write one schema-versioned stats.json per machine
 *                     (with interval time series) into DIR
 *   --trace=FILE      write the SF run's stream-lifecycle events as a
 *                     Chrome trace-event file (open in Perfetto)
 *   --profile         latency-attribution profiler (DESIGN.md §4h):
 *                     stats.json gains the profile.* groups and, with
 *                     --stats-json, each machine also writes a
 *                     deterministic profile.json into DIR
 *   --check=LVL       invariant checker level off|basic|full (the
 *                     SF_CHECK env var overrides this)
 *   --faults=SPEC     deterministic fault injection, e.g.
 *                     "seed:7,dropfloat:0.2,delay:0.1" (see fault.hh)
 *   --watchdog-cycles=N  forward-progress watchdog interval (0 = off)
 *   --verify          run the functional reference executor after each
 *                     sim and diff the final memory image (exit 67 on
 *                     divergence; SF_VERIFY_BUG injects protocol bugs)
 *   -h, --help        print the option list and exit 0
 *
 * An unknown option, a third positional argument or a scale that is
 * not a positive number prints the usage to stderr and exits 2 before
 * any machine is built. Otherwise exits with the FatalError exit code
 * on watchdog timeouts (64), invariant violations (65), drain
 * failures (66) and verify divergences (67).
 *
 * Set SF_DEBUG_FLAGS (e.g. StreamFloat,SEL3) to watch components live.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include <vector>

#include "sim/arg_parse.hh"
#include "sim/output_path.hh"
#include "sim/stream_trace.hh"
#include "system/tiled_system.hh"
#include "verify/oracle.hh"
#include "workload/workload.hh"

using namespace sf;

namespace {

/** Robustness knobs shared by both runs. */
struct RobustnessOptions
{
    CheckLevel check = CheckLevel::Off;
    FaultConfig faults;
    Tick watchdogCycles = ~0ULL; //!< ~0 = keep the config default
    bool verify = false;
    bool profile = false;
    int threads = 1;
};

/** Exit status for malformed command lines (no machine was built). */
constexpr int kUsageError = 2;

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: quickstart [workload] [scale] [options]\n"
        "  workload             Table IV benchmark (default pathfinder)\n"
        "  scale                positive dataset scale (default 0.05)\n"
        "  --stats-json=DIR     stats.json per machine into DIR\n"
        "  --trace=FILE         SF stream-lifecycle Chrome trace\n"
        "  --profile            latency-attribution profiler\n"
        "  --check=LVL          invariant checker off|basic|full\n"
        "  --faults=SPEC        deterministic fault injection\n"
        "  --watchdog-cycles=N  watchdog interval (0 = off)\n"
        "  --verify             diff against the reference executor\n"
        "  --threads=N, -jN     tile-parallel worker threads\n"
        "  -h, --help           print this list and exit\n");
}

/** Report a malformed command line; the caller exits kUsageError. */
int
usageError(const char *what, const std::string &arg)
{
    std::fprintf(stderr, "quickstart: %s '%s'\n", what, arg.c_str());
    printUsage(stderr);
    return kUsageError;
}

sys::SimResults
runOne(sys::Machine machine, const std::string &wl_name, double scale,
       const std::string &stats_dir, const RobustnessOptions &rob)
{
    sys::SystemConfig cfg =
        sys::SystemConfig::make(machine, cpu::CoreConfig::ooo8(), 4, 4);
    if (!stats_dir.empty())
        cfg.samplingInterval = 10'000;
    cfg.checkLevel = rob.check;
    cfg.faults = rob.faults;
    if (rob.watchdogCycles != ~0ULL)
        cfg.watchdogCycles = rob.watchdogCycles;
    cfg.verify = rob.verify;
    cfg.profile = rob.profile;
    cfg.threads = rob.threads;
    if (const char *bug = std::getenv("SF_VERIFY_BUG"))
        cfg.verifyBug = bug;
    sys::TiledSystem system(cfg);

    workload::WorkloadParams wp;
    wp.numThreads = cfg.numTiles();
    wp.scale = scale;
    wp.useStreams = sys::machineUsesStreams(machine);
    auto wl = workload::makeWorkload(wl_name, wp);
    wl->init(system.addressSpace());

    sys::SimResults r = system.run(wl->makeAllThreads());

    if (rob.verify) {
        auto ref_threads = wl->makeAllThreads();
        std::vector<isa::OpSource *> srcs;
        for (auto &t : ref_threads)
            srcs.push_back(t.get());
        verify::RefResult golden =
            verify::runReference(system.addressSpace(), srcs);
        verify::checkOrDie(*system.verifyPlane(), golden,
                           system.addressSpace(), wl->verifyRegions(),
                           wl_name + " on " +
                               sys::machineName(machine));
        std::printf("verify: %s on %s OK\n", wl_name.c_str(),
                    sys::machineName(machine));
    }

    if (!stats_dir.empty()) {
        ensureOutputDir(stats_dir, "--stats-json");
        std::string stem = stats_dir + "/" +
                           std::string(sys::machineName(machine)) + "_" +
                           wl_name;
        for (char &c : stem) {
            if (c == '+')
                c = '_';
        }
        std::string path = stem + ".stats.json";
        std::ofstream os = openOutputFile(path, "--stats-json");
        system.dumpStatsJson(os, r);
        std::printf("wrote %s\n", path.c_str());
        if (rob.profile) {
            std::string ppath = stem + ".profile.json";
            std::ofstream ps = openOutputFile(ppath, "--profile");
            system.dumpProfileJson(ps, r);
            std::printf("wrote %s\n", ppath.c_str());
        }
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
try {
    std::string wl = "pathfinder";
    double scale = 0.05;
    std::string stats_dir;
    std::string trace_file;
    RobustnessOptions rob;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            printUsage(stdout);
            return 0;
        } else if (arg.rfind("--stats-json=", 0) == 0) {
            stats_dir = arg.substr(std::strlen("--stats-json="));
        } else if (arg.rfind("--trace=", 0) == 0) {
            trace_file = arg.substr(std::strlen("--trace="));
        } else if (arg.rfind("--check=", 0) == 0) {
            rob.check = checkLevelFromString(
                arg.substr(std::strlen("--check=")));
        } else if (arg.rfind("--faults=", 0) == 0) {
            rob.faults =
                FaultConfig::parse(arg.substr(std::strlen("--faults=")));
        } else if (arg.rfind("--watchdog-cycles=", 0) == 0) {
            rob.watchdogCycles = std::strtoull(
                arg.c_str() + std::strlen("--watchdog-cycles="),
                nullptr, 10);
        } else if (arg == "--verify") {
            rob.verify = true;
        } else if (arg == "--profile") {
            rob.profile = true;
        } else if (arg.rfind("--threads=", 0) == 0) {
            rob.threads = parseThreadCount(
                arg.substr(std::strlen("--threads=")), "--threads");
        } else if (arg.rfind("-j", 0) == 0 && arg != "-j") {
            rob.threads = parseThreadCount(arg.substr(2), "-j");
        } else if (arg == "-j" && i + 1 < argc) {
            rob.threads = parseThreadCount(argv[++i], "-j");
        } else if (arg[0] == '-') {
            return usageError("unknown option", arg);
        } else if (positional == 0) {
            wl = arg;
            ++positional;
        } else if (positional == 1) {
            char *end = nullptr;
            scale = std::strtod(arg.c_str(), &end);
            if (*end != '\0' || !std::isfinite(scale) || scale <= 0)
                return usageError("scale must be a positive number, got",
                                  arg);
            ++positional;
        } else {
            return usageError("unexpected argument", arg);
        }
    }

    // Validate output targets up front: a bad --stats-json or --trace
    // path should fail immediately, not after minutes of simulation.
    if (!stats_dir.empty())
        ensureOutputDir(stats_dir, "--stats-json");
    std::ofstream trace_os;
    if (!trace_file.empty())
        trace_os = openOutputFile(trace_file, "--trace");

    std::printf("stream-floating quickstart: workload=%s scale=%.3f "
                "(4x4 OOO8)\n\n",
                wl.c_str(), scale);

    auto &tracer = trace::StreamLifecycleTracer::instance();
    if (!trace_file.empty())
        tracer.setEnabled(true);

    auto base = runOne(sys::Machine::BingoPf, wl, scale, stats_dir, rob);
    tracer.clear(); // keep only the SF run's stream events
    auto sf_run = runOne(sys::Machine::SF, wl, scale, stats_dir, rob);

    if (!trace_file.empty()) {
        tracer.exportChromeTrace(trace_os);
        std::printf("wrote %s (%zu stream events)\n", trace_file.c_str(),
                    tracer.events().size());
    }

    std::printf("%-22s %15s %15s\n", "", "L1Bingo-L2Stride", "SF");
    std::printf("%-22s %15llu %15llu\n", "cycles",
                (unsigned long long)base.cycles,
                (unsigned long long)sf_run.cycles);
    std::printf("%-22s %15.2f %15.2f\n", "speedup vs Bingo", 1.0,
                double(base.cycles) / double(sf_run.cycles));
    std::printf("%-22s %15llu %15llu\n", "NoC flit-hops",
                (unsigned long long)base.traffic.totalFlitHops(),
                (unsigned long long)sf_run.traffic.totalFlitHops());
    std::printf("%-22s %15.1f%% %14.1f%%\n", "NoC utilization",
                100.0 * base.nocUtilization,
                100.0 * sf_run.nocUtilization);
    std::printf("%-22s %15.1f %15.1f\n", "energy (uJ)",
                base.energyNj / 1000.0, sf_run.energyNj / 1000.0);
    std::printf("%-22s %15llu %15llu\n", "streams floated",
                (unsigned long long)base.streamsFloated,
                (unsigned long long)sf_run.streamsFloated);
    std::printf("%-22s %15llu %15llu\n", "stream migrations",
                (unsigned long long)base.migrations,
                (unsigned long long)sf_run.migrations);
    return 0;
} catch (const FatalError &e) {
    // The message and diagnostic snapshot already went to stderr;
    // surface the distinct exit code (watchdog 64, invariant 65,
    // drain 66, verify 67, config 1) to scripts and ctest.
    return e.exitStatus();
}
