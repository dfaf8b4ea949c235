/**
 * @file
 * Oracle acceptance suite: run every workload under the functional
 * reference executor across the {in-order, out-of-order} x
 * {no-float (SS), float (SF)} config matrix and diff the final
 * architectural state against golden.
 *
 *   ./bench/verify_suite --cores=2x2 --scale=0.01
 *
 * Exits 0 when every point matches the reference; exits 67 with a
 * first-divergence diagnostic on the first mismatch.
 */

#include "bench_util.hh"

using namespace sf;

int
driverMain(int argc, char **argv)
{
    bench::BenchOptions opt;
    opt.parse(argc, argv);
    opt.verify = true;

    int points = 0;
    for (const auto &wl : opt.workloads) {
        for (const char *core : {"io4", "ooo4"}) {
            for (sys::Machine m : {sys::Machine::SS, sys::Machine::SF}) {
                bench::runSim(m, cpu::CoreConfig::fromName(core, "core"),
                              wl, opt);
                std::printf("verify ok: %-12s %-5s %s\n", wl.c_str(),
                            core, sys::machineName(m));
                std::fflush(stdout);
                ++points;
            }
        }
    }
    std::printf("verify suite passed: %d points matched the "
                "reference executor\n", points);
    return 0;
}
