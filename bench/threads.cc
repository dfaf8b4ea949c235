/**
 * @file
 * Threaded-engine scaling benchmark (DESIGN.md §4i): run one mesh
 * point at several worker counts and report, per count, the wall
 * clock and the deterministic cycle count. The cycle counts double as
 * a determinism fingerprint: they must be identical across worker
 * counts and must match the checked-in baseline
 * (bench/baselines/BENCH_threads.json); only the wall clock may vary
 * between hosts. tests/threads_gate.cmake consumes the JSON report.
 *
 * Defaults to SF-OOO8 conv3d on the paper's 8x8 mesh (the acceptance
 * point for the >=2x-with-4-workers speedup target) rather than
 * bench_util's 4x4 and all 12 workloads; --workloads runs its first
 * entry only.
 *
 * On top of the bench options, --help lists --counts (worker counts),
 * --reps (the wall clock is the minimum over reps) and --out; a bad
 * option or value prints usage and exits 2.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"

using namespace sf;

namespace {

struct Sample
{
    int threads = 1;
    double wallMs = 0.0;
    unsigned long long cycles = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions opt;
    opt.nx = opt.ny = 8;
    opt.workloads = {"conv3d"};
    std::vector<int> counts = {1, 2, 4};
    int reps = 3;
    std::string out_file;
    OptionTable t(argv[0]);
    opt.addRunOptions(t);
    opt.addGridOptions(t);
    t.add("--counts", "1,2,4", "worker counts to run (default 1,2,4)",
          [&](const std::string &v) {
              counts.clear();
              for (const std::string &c : parseList(v, "--counts"))
                  counts.push_back(parseThreadCount(c, "--counts"));
          });
    t.bind("--reps", "N", "best-of-N wall clock per count (default 3)",
           reps, parseThreadCount);
    t.text("--out", "FILE", "also write the JSON report to FILE",
           out_file);
    t.parse(argc, argv);

    const std::string wl = opt.workloads.front();
    const unsigned host_cores = std::thread::hardware_concurrency();

    std::printf("threads scaling: %dx%d SF %s scale=%.3f "
                "(host cores: %u, reps: %d)\n",
                opt.nx, opt.ny, wl.c_str(), opt.scale, host_cores, reps);

    std::vector<Sample> samples;
    for (int n : counts) {
        Sample s;
        s.threads = opt.threads = n;
        s.wallMs = 1e300;
        for (int r = 0; r < reps; ++r) {
            auto t0 = std::chrono::steady_clock::now();
            unsigned long long cycles =
                bench::runSim(sys::Machine::SF, cpu::CoreConfig::ooo8(), wl,
                              opt)
                    .cycles;
            s.wallMs = std::min(
                s.wallMs, std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
            if (r == 0) {
                s.cycles = cycles;
            } else if (cycles != s.cycles) {
                std::fprintf(stderr,
                             "threads=%d rep %d: cycles %llu != %llu — "
                             "the engine is not run-to-run "
                             "deterministic\n",
                             n, r, cycles, s.cycles);
                return 1;
            }
        }
        samples.push_back(s);
        std::printf("  threads=%d  %10.1f ms  cycles=%llu\n", n,
                    s.wallMs, s.cycles);
    }

    // Cross-count determinism: every worker count must simulate the
    // exact same machine, cycle for cycle.
    for (const Sample &s : samples) {
        if (s.cycles != samples.front().cycles) {
            std::fprintf(stderr,
                         "threads=%d: cycles %llu != threads=%d's %llu "
                         "— shard-count variance, engine bug\n",
                         s.threads, s.cycles, samples.front().threads,
                         samples.front().cycles);
            return 1;
        }
    }

    double base_ms = samples.front().wallMs;
    std::string json = "{\n  \"schema\": \"sf.bench.threads.v1\",\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"mesh\": \"%dx%d\",\n  \"workload\": \"%s\",\n"
                  "  \"scale\": %.4f,\n  \"hostCores\": %u,\n"
                  "  \"reps\": %d,\n  \"runs\": [\n",
                  opt.nx, opt.ny, wl.c_str(), opt.scale, host_cores,
                  reps);
    json += buf;
    for (size_t i = 0; i < samples.size(); ++i) {
        const Sample &s = samples[i];
        std::snprintf(buf, sizeof(buf),
                      "    {\"threads\": %d, \"wallMs\": %.2f, "
                      "\"cycles\": %llu, \"speedup\": %.3f}%s\n",
                      s.threads, s.wallMs, s.cycles,
                      base_ms / s.wallMs,
                      i + 1 < samples.size() ? "," : "");
        json += buf;
    }
    json += "  ]\n}\n";

    std::fputs(json.c_str(), stdout);
    if (!out_file.empty()) {
        std::ofstream os = openOutputFile(out_file, "--out");
        os << json;
        std::printf("wrote %s\n", out_file.c_str());
    }
    return 0;
}
