/**
 * @file
 * Figure 13: overall speedup and energy efficiency of
 * L1Stride-L2Stride, L1Bingo-L2Stride, SS, and SF over a no-prefetch
 * Base, for IO4 / OOO4 / OOO8 cores across the 12 workloads.
 *
 * Speedup = cycles(Base) / cycles(config).
 * Energy efficiency = energy(Base) / energy(config).
 */

#include "bench/bench_util.hh"

using namespace sf;
using namespace sf::bench;

namespace {

const std::vector<std::pair<sys::Machine, const char *>> configs = {
    {sys::Machine::StridePf, "Stride"},
    {sys::Machine::BingoPf, "Bingo"},
    {sys::Machine::SS, "SS"},
    {sys::Machine::SF, "SF"},
};

void
runCore(const cpu::CoreConfig &core, const BenchOptions &opt)
{
    std::printf("\n=== Fig. 13 (%s, %dx%d, scale %.3f) ===\n",
                core.label.c_str(), opt.nx, opt.ny, opt.scale);
    std::vector<std::string> headers = {"Stride", "Bingo", "SS", "SF"};

    std::printf("\n-- speedup over Base-%s --\n", core.label.c_str());
    printHeader("workload", headers);
    std::vector<std::vector<double>> speedups(configs.size());
    std::vector<std::vector<double>> effs(configs.size());

    std::vector<std::vector<double>> eff_rows;
    for (const auto &wl : opt.workloads) {
        sys::SimResults base =
            runSim(sys::Machine::Base, core, wl, opt);
        std::vector<double> row, eff_row;
        for (size_t c = 0; c < configs.size(); ++c) {
            sys::SimResults r = runSim(configs[c].first, core, wl, opt);
            double sp = double(base.cycles) / double(r.cycles);
            double ef = base.energyNj / r.energyNj;
            row.push_back(sp);
            eff_row.push_back(ef);
            speedups[c].push_back(sp);
            effs[c].push_back(ef);
        }
        printRow(wl, row);
        eff_rows.push_back(eff_row);
    }
    printRow("geomean", geomeans(speedups));

    std::printf("\n-- energy efficiency over Base-%s --\n",
                core.label.c_str());
    printHeader("workload", headers);
    for (size_t w = 0; w < opt.workloads.size(); ++w)
        printRow(opt.workloads[w], eff_rows[w]);
    printRow("geomean", geomeans(effs));
}

} // namespace

int
driverMain(int argc, char **argv)
{
    BenchOptions opt;
    opt.parse(argc, argv);
    for (const cpu::CoreConfig &core :
         {cpu::CoreConfig::io4(), cpu::CoreConfig::ooo4(),
          cpu::CoreConfig::ooo8()}) {
        runCore(core, opt);
    }
    return 0;
}
