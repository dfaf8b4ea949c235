/**
 * @file
 * Figure 2: the motivation measurements on the Base system.
 *
 *  (a) Fraction of L2 evictions that are clean and were never reused,
 *      and the share of those attributable to compiler-recognizable
 *      streams (the paper reports 72% unreused, 63% stream-covered).
 *  (b) Fraction of injected NoC flits attributable to caching that
 *      unreused data, split into data and coherence-control flits
 *      (the paper reports ~50%, 20% of it control).
 */

#include "bench/bench_util.hh"

using namespace sf;
using namespace sf::bench;

int
driverMain(int argc, char **argv)
{
    BenchOptions opt;
    opt.scale = 0.4; // per-core footprints must exceed the private L2
    opt.parse(argc, argv);
    std::printf("=== Fig. 2 motivation (Base, OOO8, %dx%d, scale %.3f) "
                "===\n\n",
                opt.nx, opt.ny, opt.scale);
    printHeader("workload", {"unreused", "stream", "flitFrac",
                             "ctrlFrac"});

    std::vector<double> unreused_all, stream_all, flit_all, ctrl_all;
    for (const auto &wl : opt.workloads) {
        sys::SimResults r =
            runSim(sys::Machine::Base, cpu::CoreConfig::ooo8(), wl, opt);
        double evictions = std::max<double>(1.0, double(r.l2Evictions));
        double unreused = double(r.l2EvictionsUnreused) / evictions;
        double stream = double(r.l2EvictionsUnreusedStream) / evictions;
        double total_flits = std::max<double>(
            1.0, double(r.traffic.flitsInjected[0] +
                        r.traffic.flitsInjected[1] +
                        r.traffic.flitsInjected[2]));
        double flit_frac =
            double(r.unreusedDataFlits + r.unreusedCtrlFlits) /
            total_flits;
        double ctrl_frac = double(r.unreusedCtrlFlits) / total_flits;
        printRow(wl, {unreused, stream, flit_frac, ctrl_frac});
        unreused_all.push_back(unreused);
        stream_all.push_back(stream);
        flit_all.push_back(flit_frac);
        ctrl_all.push_back(ctrl_frac);
    }
    printRow("mean", {mean(unreused_all), mean(stream_all),
                      mean(flit_all), mean(ctrl_all)});
    std::printf("\npaper:      unreused 0.72, stream-covered 0.63, "
                "flit fraction 0.50, control 0.20\n");
    return 0;
}
