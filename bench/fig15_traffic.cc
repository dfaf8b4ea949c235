/**
 * @file
 * Figure 15: NoC traffic (flit-hops, normalized to Base) broken into
 * coherence control / data / stream-management classes, plus average
 * network utilization — for the prefetchers (with and without bulk
 * request grouping), SS, and the SF ablation ladder (affine only,
 * +indirect, +confluence).
 */

#include "bench/bench_util.hh"

using namespace sf;
using namespace sf::bench;

namespace {

const std::vector<std::pair<sys::Machine, const char *>> configs = {
    {sys::Machine::StridePf, "Stride"},
    {sys::Machine::StrideBulk, "Str+Bulk"},
    {sys::Machine::BingoPf, "Bingo"},
    {sys::Machine::BingoBulk, "Bng+Bulk"},
    {sys::Machine::SS, "SS"},
    {sys::Machine::SFAff, "SF-Aff"},
    {sys::Machine::SFInd, "SF-Ind"},
    {sys::Machine::SF, "SF"},
};

} // namespace

int
driverMain(int argc, char **argv)
{
    BenchOptions opt;
    opt.parse(argc, argv);
    std::printf("=== Fig. 15: NoC traffic vs Base, OOO8 "
                "(%dx%d, scale %.3f) ===\n",
                opt.nx, opt.ny, opt.scale);
    std::printf("columns: total flit-hops normalized to Base\n\n");

    std::vector<std::string> headers;
    for (auto &[m, n] : configs)
        headers.push_back(n);
    printHeader("workload", headers);

    std::vector<std::vector<double>> ratios(configs.size());
    std::vector<double> base_util, sf_util, bingo_util;
    for (const auto &wl : opt.workloads) {
        sys::SimResults base =
            runSim(sys::Machine::Base, cpu::CoreConfig::ooo8(), wl, opt);
        double base_hops =
            std::max<double>(1.0, double(base.traffic.totalFlitHops()));
        base_util.push_back(base.nocUtilization);
        std::vector<double> row;
        for (size_t c = 0; c < configs.size(); ++c) {
            sys::SimResults r =
                runSim(configs[c].first, cpu::CoreConfig::ooo8(), wl,
                       opt);
            row.push_back(double(r.traffic.totalFlitHops()) / base_hops);
            ratios[c].push_back(row.back());
            if (configs[c].first == sys::Machine::SF)
                sf_util.push_back(r.nocUtilization);
            if (configs[c].first == sys::Machine::BingoPf)
                bingo_util.push_back(r.nocUtilization);
        }
        printRow(wl, row);
    }
    printRow("geomean", geomeans(ratios));

    // Detailed class breakdown for the full SF configuration.
    std::printf("\n-- SF traffic class shares (of SF total) --\n");
    printHeader("workload", {"ctrl", "data", "streamMgmt"});
    for (const auto &wl : opt.workloads) {
        sys::SimResults r =
            runSim(sys::Machine::SF, cpu::CoreConfig::ooo8(), wl, opt);
        double tot =
            std::max<double>(1.0, double(r.traffic.totalFlitHops()));
        printRow(wl, {double(r.traffic.flitHops[0]) / tot,
                      double(r.traffic.flitHops[1]) / tot,
                      double(r.traffic.flitHops[2]) / tot});
    }

    std::printf("\navg network utilization: Base %.1f%%, Bingo %.1f%%, "
                "SF %.1f%%\n",
                100 * mean(base_util), 100 * mean(bingo_util),
                100 * mean(sf_util));
    std::printf("paper: Bingo +34%% traffic; SF -36%%; utilization "
                "35%% (Bingo) -> 25%% (SF); stream mgmt ~2%%\n");
    return 0;
}
