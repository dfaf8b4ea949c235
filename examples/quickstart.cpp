/**
 * @file
 * Quickstart: build a 4x4 tiled CMP, run one workload on two machine
 * variants (a Bingo-prefetching baseline and full Stream Floating),
 * and print the headline numbers the paper's evaluation revolves
 * around: cycles, NoC traffic, and energy.
 *
 * Usage: quickstart [workload] [scale] [options]
 *
 *   workload          one of the Table IV names (default pathfinder)
 *   scale             dataset scale, a positive number (default 0.05)
 *
 * Options: the run options every bench shares (bench_util.hh) plus
 * --trace=FILE, the SF run's
 * stream-lifecycle events as a Chrome trace (open in Perfetto); -h
 * lists them. Both runs go through bench::runSim(), so --stats-json=DIR
 * writes e.g. DIR/OOO8_SF_pathfinder.stats.json (plus .profile.json
 * and .profsum.json with --profile, .trace.json with --trace).
 *
 * An unknown option or workload, a third positional argument or a
 * scale that is not a positive number prints the usage to stderr and
 * exits 2 before any machine is built. Otherwise exits with the
 * FatalError exit code on watchdog timeouts (64), invariant
 * violations (65), drain failures (66) and verify divergences (67).
 *
 * Set SF_DEBUG_FLAGS (e.g. StreamFloat,SEL3) to watch components live.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "bench/bench_util.hh"

using namespace sf;

int
main(int argc, char **argv)
try {
    bench::BenchOptions opt;
    opt.scale = 0.05;
    opt.workloads = {"pathfinder"};
    std::string trace_file;
    OptionTable t(argv[0]);
    t.add("workload", "", "Table IV benchmark (default pathfinder)",
          [&](const std::string &v) {
              opt.workloads = {workload::parseWorkloadName(v, "workload")};
          });
    t.bind("scale", "", "positive dataset scale (default 0.05)", opt.scale,
           parsePositiveReal);
    opt.addRunOptions(t);
    t.text("--trace", "FILE", "SF stream-lifecycle Chrome trace",
           trace_file);
    t.parse(argc, argv);
    const std::string &wl = opt.workloads.front();

    // Validate output targets up front: a bad --stats-json or --trace
    // path should fail immediately, not after minutes of simulation.
    if (!opt.statsJsonDir.empty())
        ensureOutputDir(opt.statsJsonDir, "--stats-json");
    std::ofstream trace_os;
    if (!trace_file.empty())
        trace_os = openOutputFile(trace_file, "--trace");

    std::printf("stream-floating quickstart: workload=%s scale=%.3f "
                "(4x4 OOO8)\n\n",
                wl.c_str(), opt.scale);

    const cpu::CoreConfig core = cpu::CoreConfig::ooo8();
    auto base = bench::runSim(sys::Machine::BingoPf, core, wl, opt);
    auto sf_run = bench::runSim(sys::Machine::SF, core, wl, opt, nullptr,
                                trace_file.empty() ? nullptr : &trace_os);

    if (!trace_file.empty()) {
        std::printf("wrote %s (%llu stream events)\n", trace_file.c_str(),
                    (unsigned long long)sf_run.streamTraceEvents);
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
