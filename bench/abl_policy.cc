/**
 * @file
 * Ablation: the §IV-D floating-policy knobs. Sweeps the history
 * decision threshold and the miss-ratio requirement, and compares
 * against "float everything" and "float nothing" extremes, showing
 * why the paper gates floating on observed reuse/miss behaviour.
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
    std::printf("=== Ablation: floating policy (%dx%d, scale %.3f) "
                "===\n\n",
                opt.nx, opt.ny, opt.scale);
    std::printf("cycles normalized to the default policy "
                "(thresh=64, miss>=0.6, reuse<=0.05)\n\n");
    printHeader("workload", {"default", "eager", "greedy", "late",
                             "strict"});

    for (const auto &wl : opt.workloads) {
        // SF-OOO8 under one history threshold / miss / reuse policy.
        auto run = [&](uint64_t decision_reqs, double miss_ratio,
                       double reuse_ratio) {
            return runSim(sys::Machine::SF, cpu::CoreConfig::ooo8(), wl,
                          opt, [=](sys::SystemConfig &c) {
                              c.seCore.floatDecisionRequests =
                                  decision_reqs;
                              c.seCore.floatMissRatio = miss_ratio;
                              c.seCore.floatReuseRatio = reuse_ratio;
                          });
        };
        // default
        sys::SimResults def = run(64, 0.6, 0.05);
        double d = double(def.cycles);
        // eager: decide after only 8 requests
        sys::SimResults eager = run(8, 0.6, 0.05);
        // greedy: float regardless of reuse/miss behaviour
        sys::SimResults greedy = run(8, 0.0, 1.0);
        // late: very conservative decision point
        sys::SimResults late = run(1024, 0.6, 0.05);
        // strict: nearly impossible to float by history
        sys::SimResults strict = run(64, 0.99, 0.0);
        printRow(wl, {1.0, d / double(eager.cycles),
                      d / double(greedy.cycles),
                      d / double(late.cycles),
                      d / double(strict.cycles)});
        std::printf("%-16s floats: def=%llu eager=%llu greedy=%llu "
                    "late=%llu strict=%llu; sinks def=%llu "
                    "greedy=%llu\n",
                    "", (unsigned long long)def.streamsFloated,
                    (unsigned long long)eager.streamsFloated,
                    (unsigned long long)greedy.streamsFloated,
                    (unsigned long long)late.streamsFloated,
                    (unsigned long long)strict.streamsFloated,
                    (unsigned long long)def.streamsSunk,
                    (unsigned long long)greedy.streamsSunk);
    }
    return 0;
}
