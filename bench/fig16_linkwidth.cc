/**
 * @file
 * Figure 16: SF vs Bingo under 128 / 256 / 512-bit NoC links, speedup
 * normalized to Bingo with 128-bit links. The paper's observation: SF's
 * advantage grows with link width because control-message latency
 * becomes proportionally more important.
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
    std::printf("=== Fig. 16: link-width sensitivity, OOO8 "
                "(%dx%d, scale %.3f) ===\n",
                opt.nx, opt.ny, opt.scale);
    std::printf("speedup normalized to Bingo-128\n\n");
    printHeader("workload", {"BG-128", "BG-256", "BG-512", "SF-128",
                             "SF-256", "SF-512"});

    const uint32_t widths[] = {128, 256, 512};
    std::vector<std::vector<double>> all(6);
    for (const auto &wl : opt.workloads) {
        double bingo128 = 0;
        std::vector<double> row;
        for (sys::Machine m : {sys::Machine::BingoPf, sys::Machine::SF}) {
            for (uint32_t w : widths) {
                sys::SimResults r =
                    runSim(m, cpu::CoreConfig::ooo8(), wl, opt,
                           [w](sys::SystemConfig &c) { c.noc.linkBits = w; });
                if (m == sys::Machine::BingoPf && w == 128)
                    bingo128 = double(r.cycles);
                row.push_back(bingo128 / double(r.cycles));
            }
        }
        for (size_t i = 0; i < row.size(); ++i)
            all[i].push_back(row[i]);
        printRow(wl, row);
    }
    std::vector<double> gm = geomeans(all);
    printRow("geomean", gm);
    std::printf("\nSF over Bingo at same width: 128b %.2fx, 256b %.2fx, "
                "512b %.2fx\n",
                gm[3] / gm[0], gm[4] / gm[1], gm[5] / gm[2]);
    std::printf("paper: SF/Bingo grows from 1.34x (128b) to 1.43x "
                "(512b)\n");
    return 0;
}
