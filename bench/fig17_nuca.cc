/**
 * @file
 * Figure 17: NUCA interleaving-granularity sensitivity (64B / 256B /
 * 1kB / 4kB) for Bingo and SF, normalized to Bingo-64B. Finer
 * interleaving costs SF stream migrations; coarser interleaving risks
 * bank hotspots. The paper finds SF best at 1kB.
 */

#include "bench/bench_util.hh"

using namespace sf;
using namespace sf::bench;

int
driverMain(int argc, char **argv)
{
    BenchOptions opt;
    // Default to a representative subset; pass --workloads= for all.
    opt.workloads = {"conv3d", "mv", "bfs", "nn", "pathfinder", "srad"};
    opt.parse(argc, argv);
    std::printf("=== Fig. 17: NUCA interleaving, OOO8 "
                "(%dx%d, scale %.3f) ===\n",
                opt.nx, opt.ny, opt.scale);
    std::printf("speedup normalized to Bingo-64B\n\n");
    printHeader("workload",
                {"BG-64", "BG-256", "BG-1k", "BG-4k", "SF-64", "SF-256",
                 "SF-1k", "SF-4k"});

    const uint32_t grans[] = {64, 256, 1024, 4096};
    std::vector<std::vector<double>> all(8);
    std::vector<double> mig_traffic_64, mig_traffic_1k;
    for (const auto &wl : opt.workloads) {
        double bingo64 = 0;
        std::vector<double> row;
        auto interleave = [](uint32_t g) {
            return [g](sys::SystemConfig &c) { c.nucaInterleave = g; };
        };
        for (uint32_t g : grans) {
            sys::SimResults r =
                runSim(sys::Machine::BingoPf, cpu::CoreConfig::ooo8(),
                       wl, opt, interleave(g));
            if (g == 64)
                bingo64 = double(r.cycles);
            row.push_back(bingo64 / double(r.cycles));
        }
        for (uint32_t g : grans) {
            sys::SimResults r = runSim(sys::Machine::SF,
                                       cpu::CoreConfig::ooo8(), wl, opt,
                                       interleave(g));
            row.push_back(bingo64 / double(r.cycles));
            double mgmt_share =
                double(r.traffic.flitHops[2]) /
                std::max<double>(1.0, double(r.traffic.totalFlitHops()));
            if (g == 64)
                mig_traffic_64.push_back(mgmt_share);
            if (g == 1024)
                mig_traffic_1k.push_back(mgmt_share);
        }
        for (size_t i = 0; i < row.size(); ++i)
            all[i].push_back(row[i]);
        printRow(wl, row);
    }
    printRow("geomean", geomeans(all));

    std::printf("\nstream-mgmt traffic share: SF-64B %.1f%%, SF-1kB "
                "%.1f%%\n",
                100 * mean(mig_traffic_64), 100 * mean(mig_traffic_1k));
    std::printf("paper: SF best at 1kB; 64B interleave costs 12%% "
                "stream-control traffic but still cuts total by 22%%\n");
    return 0;
}
