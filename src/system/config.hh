/**
 * @file
 * Whole-system configuration (Table III) and the evaluated machine
 * variants (§VI: Base, L1Stride-L2Stride, L1Bingo-L2Stride, SS, SF and
 * the SF-Aff / SF-Ind ablations plus bulk prefetching).
 */

#ifndef SF_SYSTEM_CONFIG_HH
#define SF_SYSTEM_CONFIG_HH

#include <strings.h>

#include <string>
#include <utility>

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

/** The machine variants compared throughout the evaluation. */
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

inline const char *
machineName(Machine m)
{
    switch (m) {
      case Machine::Base: return "Base";
      case Machine::StridePf: return "L1Stride-L2Stride";
      case Machine::BingoPf: return "L1Bingo-L2Stride";
      case Machine::StrideBulk: return "Stride+Bulk";
      case Machine::BingoBulk: return "Bingo+Bulk";
      case Machine::SS: return "SS";
      case Machine::SFAff: return "SF-Aff";
      case Machine::SFInd: return "SF-Ind";
      case Machine::SF: return "SF";
    }
    return "?";
}

/**
 * The machine a driver flag names, in any case: base, stride(pf),
 * bingo(pf), stride-bulk, bingo-bulk, ss, sf-aff, sf-ind or sf.
 * Throws a UsageError naming @p flag otherwise.
 */
inline Machine
machineFromName(const std::string &name, const std::string &flag)
{
    static const std::pair<const char *, Machine> names[] = {
        {"base", Machine::Base}, {"stride", Machine::StridePf},
        {"stridepf", Machine::StridePf}, {"bingo", Machine::BingoPf},
        {"bingopf", Machine::BingoPf}, {"stride-bulk", Machine::StrideBulk},
        {"bingo-bulk", Machine::BingoBulk}, {"ss", Machine::SS},
        {"sf-aff", Machine::SFAff}, {"sf-ind", Machine::SFInd},
        {"sf", Machine::SF}};
    for (const auto &[n, m] : names) {
        if (strcasecmp(name.c_str(), n) == 0)
            return m;
    }
    throw UsageError(flag + " must be one of base, stride, bingo, " +
                     "stride-bulk, bingo-bulk, ss, sf-aff, sf-ind, sf, " +
                     "got '" + name + "'");
}

inline bool
machineUsesStreams(Machine m)
{
    return m == Machine::SS || m == Machine::SFAff ||
           m == Machine::SFInd || m == Machine::SF;
}

inline bool
machineFloats(Machine m)
{
    return m == Machine::SFAff || m == Machine::SFInd ||
           m == Machine::SF;
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

    /** Deterministic seed for replacement policies / datasets. */
    uint64_t seed = 1;
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
     * Table III parameters and the variant-specific settings (SF uses
     * 1 kB NUCA interleaving, bulk variants need >64 B interleaving).
     */
    static SystemConfig
    make(Machine m, const cpu::CoreConfig &core, int nx = 4, int ny = 4)
    {
        SystemConfig c;
        c.nx = nx;
        c.ny = ny;
        c.noc.nx = nx;
        c.noc.ny = ny;
        c.core = core;
        c.machine = m;

        c.seCore.fifoBytes = core.seFifoBytes;
        c.seCore.maxStreams = core.seMaxStreams;
        c.seCore.l2CapacityBytes = c.priv.l2Size;
        c.seCore.enableFloating = machineFloats(m);

        switch (m) {
          case Machine::SF:
          case Machine::SFInd:
          case Machine::SFAff:
            c.nucaInterleave = 1024;
            c.sel3.enableConfluence = m == Machine::SF;
            c.seCore.floatIndirects = m != Machine::SFAff;
            break;
          case Machine::StrideBulk:
          case Machine::BingoBulk:
            c.nucaInterleave = 1024;
            break;
          default:
            c.nucaInterleave = 64;
            break;
        }
        return c;
    }
};

} // namespace sys
} // namespace sf

#endif // SF_SYSTEM_CONFIG_HH
