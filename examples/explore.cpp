/**
 * @file
 * Configuration explorer: run any (machine, core, mesh, workload,
 * scale) combination and print the full statistics report — the
 * command-line front door to the whole library.
 *
 *   explore --machine=SF --core=io4 --cores=8x8 --workload=bfs
 *
 * --help lists the options. An unknown option or a malformed value
 * (including an unknown machine, core or workload) prints usage to
 * stderr and exits 2 before anything is built.
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <tuple>

#include "sim/arg_parse.hh"
#include "system/report.hh"
#include "system/tiled_system.hh"
#include "workload/workload.hh"

using namespace sf;

int
driverMain(int argc, char **argv)
{
    sys::Machine machine = sys::Machine::SF;
    cpu::CoreConfig core = cpu::CoreConfig::ooo8();
    std::string workload = "pathfinder";
    int nx = 4, ny = 4;
    double scale = 0.05;
    uint64_t link = 0, interleave = 0;
    uint64_t seed = 1;
    bool dump_stats = false;

    OptionTable t(argv[0]);
    t.bind("--machine", "M", "base|stride|bingo|ss|sf|... (default SF)",
           machine, sys::machineFromName);
    t.bind("--core", "C", "io4|ooo4|ooo8 (default ooo8)", core,
           cpu::CoreConfig::fromName);
    t.add("--cores", "NxM", "mesh size (default 4x4)",
          [&](const std::string &v) {
              std::tie(nx, ny) = parseMesh(v, "--cores");
          });
    t.bind("--workload", "W", "Table IV benchmark (default pathfinder)",
           workload, workload::parseWorkloadName);
    t.bind("--scale", "S", "dataset scale (default 0.05)", scale,
           parsePositiveReal);
    t.bind("--link", "BITS", "NoC link width (0 = Table III)", link,
           parseCount);
    t.bind("--interleave", "BYTES", "NUCA interleaving (0 = Table III)",
           interleave, parseCount);
    t.bind("--seed", "N", "dataset seed (default 1)", seed,
           parseCount);
    t.flag("--stats", "also print every component's statistics",
           dump_stats);
    t.parse(argc, argv);

    sys::SystemConfig cfg = sys::SystemConfig::make(machine, core, nx, ny);
    if (link)
        cfg.noc.linkBits = static_cast<uint32_t>(link);
    if (interleave)
        cfg.nucaInterleave = static_cast<uint32_t>(interleave);

    sys::TiledSystem system(cfg);
    workload::WorkloadParams wp;
    wp.numThreads = cfg.numTiles();
    wp.scale = scale;
    wp.seed = seed;
    wp.useStreams = sys::machineUsesStreams(cfg.machine);
    auto wl = workload::makeWorkload(workload, wp);
    wl->init(system.addressSpace());

    sys::SimResults r = system.run(wl->makeAllThreads());
    writeReport(std::cout, r,
                workload + " on " + machineName(cfg.machine) + "-" +
                    cfg.core.label);
    if (dump_stats) {
        std::cout << "\n=== full per-component statistics ===\n";
        system.dumpStats(std::cout);
    }
    return 0;
}
