/**
 * @file
 * Whole-system configuration (Table III) and the evaluated machine
 * variants (§VI: Base, L1Stride-L2Stride, L1Bingo-L2Stride, SS, SF and
 * the SF-Aff / SF-Ind ablations plus bulk prefetching).
 */

#ifndef SF_SYSTEM_CONFIG_HH
#define SF_SYSTEM_CONFIG_HH

#include <strings.h>

#include <cstddef>
#include <iterator>
#include <string>

#include "cpu/core_config.hh"
#include "sim/arg_parse.hh"
#include "sim/checker.hh"
#include "sim/fault.hh"
#include "flt/se_l2.hh"
#include "flt/se_l3.hh"
#include "mem/dram.hh"
#include "mem/l3_bank.hh"
#include "mem/priv_cache.hh"
#include "noc/mesh.hh"
#include "stream/se_core.hh"

namespace sf {
namespace sys {

/**
 * The machine variants compared throughout the evaluation, each
 * described by its machineSpecs row below. SF stays last: the rows'
 * static_assert counts up to it.
 */
enum class Machine
{
    Base,        //!< no prefetching
    StridePf,    //!< L1 stride + L2 stride
    BingoPf,     //!< L1 Bingo + L2 stride
    StrideBulk,  //!< stride prefetchers + bulk request grouping
    BingoBulk,   //!< Bingo + L2 stride + bulk request grouping
    SS,          //!< stream-specialized core, no floating
    SFAff,       //!< stream floating, affine only
    SFInd,       //!< + indirect floating, no confluence
    SF,          //!< full stream floating
};

/** The L1 prefetcher of a machine variant; each adds an L2 stride. */
enum class L1Prefetcher
{
    None,
    Stride,
    Bingo,
};

/** Everything that tells one machine variant apart from the others. */
struct MachineSpec
{
    Machine machine;
    /** Name in reports, stats.json and file stems. */
    const char *name;
    /** Driver flag spellings, any case; the second may be null. */
    const char *cliNames[2];
    bool streams;        //!< SE_core on every tile
    bool floats;         //!< SE_L2 + SE_L3 (stream floating)
    bool floatIndirects; //!< indirect streams float with their base
    bool confluence;     //!< SE_L3 merges confluent streams
    /** Static-NUCA interleaving granularity in bytes. */
    uint32_t nucaInterleave;
    L1Prefetcher l1Prefetcher;
    bool bulk;           //!< bulk prefetch request grouping
};

/**
 * One row per Machine, in enumerator order. SF and its ablations use
 * 1 kB NUCA interleaving; bulk grouping needs more than 64 B.
 */
inline constexpr MachineSpec machineSpecs[] = {
    // machine, name, CLI names, streams, floats, floatIndirects,
    // confluence, interleave, L1 prefetcher, bulk
    {Machine::Base, "Base", {"base"}, false, false, false, false, 64,
     L1Prefetcher::None, false},
    {Machine::StridePf, "L1Stride-L2Stride", {"stride", "stridepf"},
     false, false, false, false, 64, L1Prefetcher::Stride, false},
    {Machine::BingoPf, "L1Bingo-L2Stride", {"bingo", "bingopf"}, false,
     false, false, false, 64, L1Prefetcher::Bingo, false},
    {Machine::StrideBulk, "Stride+Bulk", {"stride-bulk"}, false, false,
     false, false, 1024, L1Prefetcher::Stride, true},
    {Machine::BingoBulk, "Bingo+Bulk", {"bingo-bulk"}, false, false,
     false, false, 1024, L1Prefetcher::Bingo, true},
    {Machine::SS, "SS", {"ss"}, true, false, false, false, 64,
     L1Prefetcher::None, false},
    {Machine::SFAff, "SF-Aff", {"sf-aff"}, true, true, false, false,
     1024, L1Prefetcher::None, false},
    {Machine::SFInd, "SF-Ind", {"sf-ind"}, true, true, true, false, 1024,
     L1Prefetcher::None, false},
    {Machine::SF, "SF", {"sf"}, true, true, true, true, 1024,
     L1Prefetcher::None, false},
};

constexpr bool
machineSpecsInOrder()
{
    size_t n = std::size(machineSpecs);
    for (size_t i = 0; i < n; ++i) {
        if (static_cast<size_t>(machineSpecs[i].machine) != i)
            return false;
    }
    return n == static_cast<size_t>(Machine::SF) + 1;
}
static_assert(machineSpecsInOrder(),
              "machineSpecs needs one row per Machine, in order");

inline const MachineSpec &
machineSpec(Machine m)
{
    return machineSpecs[static_cast<size_t>(m)];
}

inline const char *
machineName(Machine m)
{
    return machineSpec(m).name;
}

/**
 * The machine a driver flag names, in any case: one of the rows'
 * cliNames (base, stride(pf), bingo(pf), stride-bulk, bingo-bulk, ss,
 * sf-aff, sf-ind or sf). Throws a UsageError naming @p flag otherwise.
 */
inline Machine
machineFromName(const std::string &name, const std::string &flag)
{
    std::string choices;
    for (const MachineSpec &s : machineSpecs) {
        for (const char *n : s.cliNames) {
            if (n && strcasecmp(name.c_str(), n) == 0)
                return s.machine;
        }
        choices += std::string(s.cliNames[0]) + ", ";
    }
    throw UsageError(flag + " must be one of " + choices + "got '" +
                     name + "'");
}

inline bool
machineUsesStreams(Machine m)
{
    return machineSpec(m).streams;
}

inline bool
machineFloats(Machine m)
{
    return machineSpec(m).floats;
}

/** Full system configuration. */
struct SystemConfig
{
    int nx = 4;
    int ny = 4;
    cpu::CoreConfig core = cpu::CoreConfig::ooo8();
    Machine machine = Machine::Base;

    noc::MeshConfig noc;
    /** Static-NUCA interleaving granularity in bytes. */
    uint32_t nucaInterleave = 64;
    mem::PrivCacheConfig priv;
    mem::L3BankConfig l3;
    mem::DramConfig dram;
    flt::SEL2Config sel2;
    flt::SEL3Config sel3;
    stream::SECoreConfig seCore;

    /** Safety bound on simulated cycles. */
    Tick maxCycles = 500'000'000;
    /**
     * Interval (cycles) between counter snapshots for the time-series
     * section of the JSON stat dump; 0 disables sampling.
     */
    Cycles samplingInterval = 0;

    /**
     * Worker count of the deleted tile-parallel engine, still set by
     * perfbench. The simulator runs one execution context; TiledSystem
     * ignores any value above 1 with a one-time warning.
     */
    int threads = 1;

    /**
     * Stream-lifecycle tracing: every SE_core and SE_L3 keeps a log of
     * its streams' transitions for TiledSystem::writeStreamTrace().
     * Off by default.
     */
    bool traceStreams = false;

    /**
     * Latency-attribution profiler (--profile): per-request lifecycle
     * records, top-down cycle accounting per core/SE, and NoC heatmap
     * sampling. Off by default; when off, no Profiler object exists
     * and every hook is a null-pointer check.
     */
    bool profile = false;

    // --- robustness layer ---
    /** Invariant-checker level (off/basic/full; set by --check). */
    CheckLevel checkLevel = CheckLevel::Off;
    /** Cycles between periodic invariant sweeps. */
    Cycles checkInterval = 50'000;
    /**
     * Forward-progress watchdog: fatal(WatchdogTimeout) when no core
     * retires, no stream element is served, and no NoC flit moves for
     * this many cycles. 0 disables the watchdog.
     */
    Cycles watchdogCycles = 2'000'000;
    /** Deterministic fault-injection schedule (off by default). */
    FaultConfig faults;

    // --- verify (architectural correctness oracle) ---
    /**
     * Attach the verify data plane: byte images ride the protocol's
     * own data movements and the driver diffs the final architectural
     * state against the functional reference executor. Off by default
     * (plain timing runs carry no data bytes).
     */
    bool verify = false;
    /**
     * Deterministic protocol-bug injection for the verify negative
     * tests ("stale-getu", "drop-putm-data"); see L3Bank::setVerifyBug.
     */
    std::string verifyBug;

    int numTiles() const { return nx * ny; }

    /**
     * Build the default configuration for one machine variant: wires
     * Table III parameters and the variant's machineSpecs row.
     */
    static SystemConfig
    make(Machine m, const cpu::CoreConfig &core, int nx = 4, int ny = 4)
    {
        const MachineSpec &spec = machineSpec(m);
        SystemConfig c;
        c.nx = nx;
        c.ny = ny;
        c.noc.nx = nx;
        c.noc.ny = ny;
        c.core = core;
        c.machine = m;
        c.nucaInterleave = spec.nucaInterleave;

        c.seCore.fifoBytes = core.seFifoBytes;
        c.seCore.maxStreams = core.seMaxStreams;
        c.seCore.l2CapacityBytes = c.priv.l2Size;
        c.seCore.floatIndirects = spec.floatIndirects;
        c.sel3.enableConfluence = spec.confluence;
        return c;
    }
};

} // namespace sys
} // namespace sf

#endif // SF_SYSTEM_CONFIG_HH
