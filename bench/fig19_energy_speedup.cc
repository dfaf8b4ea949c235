/**
 * @file
 * Figure 19: the energy-vs-speedup scatter across core types and
 * machines (geomean over the workload set, normalized to Base-IO4).
 * The paper's headline point: SF-IO4 outperforms SS-OOO8 at a fraction
 * of the energy.
 */

#include "bench/bench_util.hh"

using namespace sf;
using namespace sf::bench;

int
driverMain(int argc, char **argv)
{
    BenchOptions opt;
    // Default to a representative subset; pass --workloads= for all.
    opt.workloads = {"conv3d", "mv", "bfs", "nn", "hotspot", "pathfinder"};
    opt.parse(argc, argv);
    std::printf("=== Fig. 19: energy vs speedup (norm. to Base-IO4, "
                "%dx%d, scale %.3f) ===\n\n",
                opt.nx, opt.ny, opt.scale);
    printHeader("config", {"speedup", "energy"});

    const std::vector<std::pair<sys::Machine, const char *>> machines = {
        {sys::Machine::Base, "Base"},
        {sys::Machine::StridePf, "Stride"},
        {sys::Machine::BingoPf, "Bingo"},
        {sys::Machine::SS, "SS"},
        {sys::Machine::SF, "SF"},
    };

    // Reference: Base-IO4 per workload.
    std::vector<double> base_cycles, base_energy;
    for (const auto &wl : opt.workloads) {
        sys::SimResults r =
            runSim(sys::Machine::Base, cpu::CoreConfig::io4(), wl, opt);
        base_cycles.push_back(double(r.cycles));
        base_energy.push_back(r.energyNj);
    }

    for (const cpu::CoreConfig &core :
         {cpu::CoreConfig::io4(), cpu::CoreConfig::ooo4(),
          cpu::CoreConfig::ooo8()}) {
        for (const auto &[m, mname] : machines) {
            std::vector<double> sp, en;
            for (size_t w = 0; w < opt.workloads.size(); ++w) {
                sys::SimResults r =
                    runSim(m, core, opt.workloads[w], opt);
                sp.push_back(base_cycles[w] / double(r.cycles));
                en.push_back(r.energyNj / base_energy[w]);
            }
            std::string label =
                std::string(mname) + "-" + core.label;
            printRow(label, {geomean(sp), geomean(en)});
        }
    }
    std::printf("\npaper's headline: SF-IO4 beats SS-OOO8 in both "
                "performance and energy\n");
    return 0;
}
