/**
 * @file
 * Ablation: SE_L2 stream-buffer capacity (Table III uses 16 kB) and
 * the credit refresh fraction. Smaller buffers mean a shorter credit
 * window, more flow-control messages, and less latency hiding.
 */

#include "bench/bench_util.hh"

using namespace sf;
using namespace sf::bench;

int
driverMain(int argc, char **argv)
{
    BenchOptions opt;
    // Default to a representative subset; pass --workloads= for all.
    opt.workloads = {"mv", "nn", "pathfinder"};
    opt.parse(argc, argv);
    std::printf("=== Ablation: SE_L2 buffer size / credit cadence "
                "(%dx%d, scale %.3f) ===\n\n",
                opt.nx, opt.ny, opt.scale);
    std::printf("speedup normalized to 16kB buffer, 0.5 refresh\n\n");
    printHeader("workload", {"2kB", "4kB", "16kB", "64kB", "r=0.25",
                             "r=0.9"});

    for (const auto &wl : opt.workloads) {
        // SF-OOO8 with one SE_L2 buffer size and credit refresh point.
        auto run = [&](uint32_t buf_bytes, double refresh) {
            return runSim(sys::Machine::SF, cpu::CoreConfig::ooo8(), wl,
                          opt, [=](sys::SystemConfig &c) {
                              c.sel2.bufferBytes = buf_bytes;
                              c.sel2.creditRefreshFraction = refresh;
                          });
        };
        sys::SimResults ref = run(16 * 1024, 0.5);
        double r = double(ref.cycles);
        std::vector<double> row;
        for (uint32_t kb : {2u, 4u, 16u, 64u})
            row.push_back(r / double(run(kb * 1024, 0.5).cycles));
        for (double fr : {0.25, 0.9})
            row.push_back(r / double(run(16 * 1024, fr).cycles));
        printRow(wl, row);
        sys::SimResults small = run(2 * 1024, 0.5);
        std::printf("%-16s credit msgs: 16kB=%llu 2kB=%llu\n", "",
                    (unsigned long long)ref.creditMessages,
                    (unsigned long long)small.creditMessages);
    }
    return 0;
}
