/**
 * @file
 * Shared benchmark-harness utilities: command-line options, simulation
 * runners, and table formatting for the paper-figure reproductions.
 *
 * Every bench binary accepts:
 *   --cores=NxN        mesh size (default 4x4; the paper uses 8x8)
 *   --scale=S          dataset scale vs Table IV (default 0.03)
 *   --workloads=a,b,c  subset of the 12 benchmarks
 *   --full             paper-fidelity mode (8x8, scale 0.25)
 *   --stats-json=DIR   write one schema-versioned stats.json per run
 *   --sample-interval=N  counter snapshot every N cycles (with JSON)
 *   --check=LVL        invariant checker off|basic|full (SF_CHECK env
 *                      overrides)
 *   --faults=SPEC      deterministic fault injection (see sim/fault.hh)
 *   --watchdog-cycles=N  forward-progress watchdog interval (0 = off)
 *   --profile          latency-attribution profiler: stats.json gains
 *                      the profile.* groups and (with --stats-json)
 *                      each run also writes <stem>.profile.json and
 *                      <stem>.profsum.json
 *   --threads=N        worker threads for the tile-parallel engine
 *                      (results byte-identical to one worker;
 *                      DESIGN.md §4i)
 */

#ifndef SF_BENCH_BENCH_UTIL_HH
#define SF_BENCH_BENCH_UTIL_HH

#include <cctype>
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

namespace sf {
namespace bench {

/** Split a comma-separated flag value into its items. */
inline std::vector<std::string>
splitList(const char *v)
{
    std::vector<std::string> out;
    std::string s = v;
    size_t pos = 0;
    while (pos < s.size()) {
        size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

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
    /**
     * Worker threads for the tile-parallel engine (DESIGN.md §4i).
     * Byte-identical results for any value; >1 only changes wall
     * clock.
     */
    int threads = 1;

    static BenchOptions
    parse(int argc, char **argv)
    {
        BenchOptions o;
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto val = [&](const char *key) -> const char * {
                size_t n = std::strlen(key);
                if (arg.compare(0, n, key) == 0)
                    return arg.c_str() + n;
                return nullptr;
            };
            if (const char *v = val("--cores=")) {
                std::sscanf(v, "%dx%d", &o.nx, &o.ny);
            } else if (const char *v = val("--scale=")) {
                o.scale = std::atof(v);
            } else if (const char *v = val("--workloads=")) {
                o.workloads = splitList(v);
            } else if (const char *v = val("--stats-json=")) {
                o.statsJsonDir = v;
            } else if (arg == "--stats-json" && i + 1 < argc) {
                o.statsJsonDir = argv[++i];
            } else if (const char *v = val("--sample-interval=")) {
                o.sampleInterval = std::strtoull(v, nullptr, 10);
            } else if (const char *v = val("--check=")) {
                o.check = checkLevelFromString(v);
            } else if (const char *v = val("--faults=")) {
                o.faults = FaultConfig::parse(v);
            } else if (const char *v = val("--watchdog-cycles=")) {
                o.watchdogCycles = std::strtoull(v, nullptr, 10);
            } else if (arg == "--full") {
                o.nx = o.ny = 8;
                o.scale = 0.25;
            } else if (arg == "--verify") {
                o.verify = true;
            } else if (arg == "--profile") {
                o.profile = true;
            } else if (const char *v = val("--threads=")) {
                o.threads = parseThreadCount(v, "--threads");
            } else if (arg == "--help") {
                std::printf(
                    "options: --cores=NxN --scale=S "
                    "--workloads=a,b,c --full --stats-json=DIR "
                    "--sample-interval=N --check=off|basic|full "
                    "--faults=SPEC --watchdog-cycles=N --verify "
                    "--profile --threads=N\n");
                std::exit(0);
            }
        }
        return o;
    }
};

/** Lower a free-form label into a filename-safe token. */
inline std::string
fileToken(const std::string &s)
{
    std::string t = s;
    for (char &c : t) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return t;
}

/** Run one (machine, workload) simulation. */
inline sys::SimResults
runSim(sys::Machine machine, const cpu::CoreConfig &core,
       const std::string &wl_name, const BenchOptions &opt,
       uint32_t link_bits = 0, uint32_t interleave = 0)
{
    sys::SystemConfig cfg =
        sys::SystemConfig::make(machine, core, opt.nx, opt.ny);
    if (link_bits)
        cfg.noc.linkBits = link_bits;
    if (interleave)
        cfg.nucaInterleave = interleave;
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
    cfg.threads = opt.threads;
    if (const char *bug = std::getenv("SF_VERIFY_BUG"))
        cfg.verifyBug = bug;
    sys::TiledSystem system(cfg);

    auto &tracer = trace::StreamLifecycleTracer::instance();
    tracer.clear();

    workload::WorkloadParams wp;
    wp.numThreads = cfg.numTiles();
    wp.scale = opt.scale;
    wp.useStreams = sys::machineUsesStreams(machine);
    auto wl = workload::makeWorkload(wl_name, wp);
    wl->init(system.addressSpace());
    sys::SimResults r = system.run(wl->makeAllThreads());

    if (opt.verify) {
        // Replay the same program functionally on fresh op sources and
        // diff the end-of-run architectural state.
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
    }

    if (!opt.statsJsonDir.empty()) {
        ensureOutputDir(opt.statsJsonDir, "--stats-json");
        std::string stem = fileToken(core.label) + "_" +
                           fileToken(sys::machineName(machine)) + "_" +
                           fileToken(wl_name);
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
        if (tracer.enabled() && !tracer.events().empty()) {
            std::ofstream tr = openOutputFile(
                opt.statsJsonDir + "/" + stem + ".trace.json",
                "--stats-json");
            tracer.exportChromeTrace(tr);
        }
    }
    return r;
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

} // namespace bench
} // namespace sf

#endif // SF_BENCH_BENCH_UTIL_HH
