/**
 * @file
 * Aggregated results of one simulation run: everything the paper's
 * figures plot.
 */

#ifndef SF_SYSTEM_RESULTS_HH
#define SF_SYSTEM_RESULTS_HH

#include <array>
#include <cstdint>

#include "energy/energy_model.hh"
#include "noc/mesh.hh"

namespace sf {
namespace sys {

struct SimResults
{
    /** Parallel-region completion time in cycles. */
    Tick cycles = 0;
    bool hitCycleLimit = false;
    uint64_t committedOps = 0;

    // NoC (Fig. 15 / 16 / 2b).
    noc::TrafficStats traffic;
    double nocUtilization = 0.0;

    // Private caches (Fig. 2 telemetry, Fig. 18 dots).
    uint64_t l1Hits = 0, l1Misses = 0;
    uint64_t l2Hits = 0, l2Misses = 0;
    uint64_t l2Evictions = 0;
    uint64_t l2EvictionsUnreused = 0;
    uint64_t l2EvictionsUnreusedStream = 0;
    uint64_t unreusedDataFlits = 0, unreusedCtrlFlits = 0;
    double l2HitRate = 0.0;

    // L3 (Fig. 14, Fig. 18 dots).
    uint64_t l3Hits = 0, l3Misses = 0;
    std::array<uint64_t, 5> l3RequestsByClass = {0, 0, 0, 0, 0};
    double l3HitRate = 0.0;

    // Memory.
    uint64_t dramReads = 0, dramWrites = 0;

    // Stream machinery.
    uint64_t streamsFloated = 0, streamsSunk = 0;
    uint64_t fetchesIssued = 0, floatedFetchesIssued = 0;
    uint64_t migrations = 0;
    uint64_t confluenceMerges = 0, confluenceRequests = 0;
    uint64_t creditMessages = 0;
    uint64_t seL3LineRequests = 0, seL3IndirectRequests = 0;
    /** Stream-lifecycle events recorded (SystemConfig::traceStreams). */
    uint64_t streamTraceEvents = 0;

    // Prefetchers.
    uint64_t prefetchesIssued = 0, prefetchesUseful = 0;

    // Energy (Fig. 13 / 19): the model's event counts and its output.
    energy::EnergyEvents energyEvents;
    energy::EnergyBreakdown energy;
    double energyNj = 0.0;

    // Host-side throughput (simulator speed, not simulated speed;
    // nondeterministic — never part of byte-compared outputs).
    double hostSeconds = 0.0;
    uint64_t eventsExecuted = 0;

    double
    ipc() const
    {
        return cycles ? double(committedOps) / double(cycles) : 0.0;
    }

    double
    eventsPerHostSec() const
    {
        return hostSeconds > 0.0 ? double(eventsExecuted) / hostSeconds
                                 : 0.0;
    }
};

} // namespace sys
} // namespace sf

#endif // SF_SYSTEM_RESULTS_HH
