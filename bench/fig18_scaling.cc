/**
 * @file
 * Figure 18: core-count scaling. SF speedup over SS at 2x2 / 4x4 /
 * 4x8 / 8x8 meshes, with the SS L2/L3 hit rates that explain it
 * (floating helps most when data lives in the L3 but misses the L2).
 */

#include "bench/bench_util.hh"

using namespace sf;
using namespace sf::bench;

int
driverMain(int argc, char **argv)
{
    BenchOptions opt;
    // Default to a representative subset; pass --workloads= for all.
    opt.workloads = {"mv", "nn", "hotspot", "pathfinder"};
    opt.parse(argc, argv);
    std::printf("=== Fig. 18: core scaling, SF vs SS, OOO8 "
                "(scale %.3f) ===\n\n",
                opt.scale);
    printHeader("workload", {"2x2", "4x4", "4x8", "L2hit", "L3hit"});

    const std::pair<int, int> meshes[] = {{2, 2}, {4, 4}, {4, 8}};
    std::vector<std::vector<double>> ratios(3);
    for (const auto &wl : opt.workloads) {
        std::vector<double> row;
        double l2hit = 0, l3hit = 0;
        for (size_t m = 0; m < 3; ++m) {
            BenchOptions o = opt;
            o.nx = meshes[m].first;
            o.ny = meshes[m].second;
            sys::SimResults ss =
                runSim(sys::Machine::SS, cpu::CoreConfig::ooo8(), wl, o);
            sys::SimResults sf =
                runSim(sys::Machine::SF, cpu::CoreConfig::ooo8(), wl, o);
            row.push_back(double(ss.cycles) / double(sf.cycles));
            ratios[m].push_back(row.back());
            if (m == 1) {
                l2hit = ss.l2HitRate;
                l3hit = ss.l3HitRate;
            }
        }
        row.push_back(l2hit);
        row.push_back(l3hit);
        printRow(wl, row);
    }
    printRow("geomean", geomeans(ratios));
    std::printf("\npaper: SF/SS grows slightly with system size "
                "(1.30x at 4x4 -> 1.32x at 8x8); gains concentrate "
                "where L3 hits and L2 misses\n");
    return 0;
}
