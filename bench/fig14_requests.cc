/**
 * @file
 * Figure 14: breakdown of requests reaching the L3 on SF-OOO8 into
 * normal core requests, SE_core stream requests, and the floated
 * affine / indirect / confluence requests generated at the SE_L3.
 */

#include "bench/bench_util.hh"

using namespace sf;
using namespace sf::bench;

int
driverMain(int argc, char **argv)
{
    BenchOptions opt;
    opt.parse(argc, argv);
    std::printf("=== Fig. 14: L3 request breakdown, SF-OOO8 "
                "(%dx%d, scale %.3f) ===\n\n",
                opt.nx, opt.ny, opt.scale);
    printHeader("workload",
                {"core", "stream", "affine", "indirect", "confl"});

    std::vector<double> sums(5, 0.0);
    for (const auto &wl : opt.workloads) {
        sys::SimResults r =
            runSim(sys::Machine::SF, cpu::CoreConfig::ooo8(), wl, opt);
        double total = 0;
        for (uint64_t c : r.l3RequestsByClass)
            total += double(c);
        total = std::max(total, 1.0);
        std::vector<double> row;
        for (size_t k = 0; k < 5; ++k) {
            row.push_back(double(r.l3RequestsByClass[k]) / total);
            sums[k] += row.back();
        }
        printRow(wl, row);
    }
    for (auto &s : sums)
        s /= std::max<size_t>(1, opt.workloads.size());
    printRow("mean", sums);
    std::printf("\npaper: ~68%% of requests generated at SE_L3 "
                "(50%% affine, 5%% indirect; conv3d 51%% confluence)\n");
    return 0;
}
