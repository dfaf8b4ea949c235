/**
 * @file
 * TiledSystem: assembles the full CMP from a SystemConfig - mesh,
 * per-tile core + SE_core + L1/L2 + SE_L2 + L3 bank + SE_L3, corner
 * memory controllers, prefetchers per machine variant - runs a
 * workload to completion, and aggregates SimResults.
 */

#ifndef SF_SYSTEM_TILED_SYSTEM_HH
#define SF_SYSTEM_TILED_SYSTEM_HH

#include <functional>
#include <ostream>
#include <memory>
#include <vector>

#include "cpu/barrier.hh"
#include "cpu/core.hh"
#include "flt/se_l2.hh"
#include "flt/se_l3.hh"
#include "isa/op_source.hh"
#include "mem/l3_bank.hh"
#include "mem/mem_ctrl.hh"
#include "mem/phys_mem.hh"
#include "mem/priv_cache.hh"
#include "mem/tlb.hh"
#include "noc/mesh.hh"
#include "prefetch/bingo.hh"
#include "prefetch/stride.hh"
#include "sim/checker.hh"
#include "sim/fault.hh"
#include "sim/interval_sampler.hh"
#include "sim/profile.hh"
#include "sim/stat_registry.hh"
#include "sim/stream_trace.hh"
#include "sim/watchdog.hh"
#include "system/config.hh"
#include "system/results.hh"
#include "verify/data_plane.hh"

namespace sf {
namespace sys {

/** One fully assembled simulated machine. */
class TiledSystem
{
  public:
    explicit TiledSystem(const SystemConfig &cfg);
    ~TiledSystem();

    /** The shared address space all workload threads run in. */
    mem::AddressSpace &addressSpace() { return *_as; }
    /** The event queue every component and service runs on. */
    EventQueue &eventQueue() { return _eq; }
    const SystemConfig &config() const { return _cfg; }
    noc::Mesh &mesh() { return *_mesh; }

    /**
     * Attach one op source per tile (workload threads) and run to
     * completion (or the cycle limit).
     */
    SimResults run(
        const std::vector<std::shared_ptr<isa::OpSource>> &threads);

    /**
     * Write the full per-component statistics dump (the gem5
     * stats-file equivalent) to @p os.
     */
    void dumpStats(std::ostream &os) const;

    /**
     * Register every component's statistics with @p reg, one group per
     * component (tileN.core, tileN.priv, ..., mesh). Rebuilt on demand
     * because cores only exist once run() has been called.
     */
    void buildStatRegistry(stats::StatRegistry &reg) const;

    /**
     * Schema-versioned JSON stat dump: run config, SimResults
     * aggregates, every registered stat group, and the interval
     * sampler's time series (when sampling was enabled).
     */
    void dumpStatsJson(std::ostream &os, const SimResults &r) const;

    /** Interval sampler of the last run(); null when sampling is off. */
    const stats::IntervalSampler *sampler() const { return _sampler.get(); }

    /** The --profile latency profiler; null unless cfg.profile. */
    prof::Profiler *profiler() { return _prof.get(); }

    /**
     * Standalone profile report (requires cfg.profile): per-(tile,
     * stream, phase) latency histograms, per-component top-down cycle
     * accounts, and the NoC heatmaps (interval frames when sampling
     * was on, end-of-run totals always). Deterministic: repeated runs
     * byte-compare.
     */
    void dumpProfileJson(std::ostream &os, const SimResults &r) const;

    /**
     * Compact profile summary for the sweep merge: aggregate top-down
     * split plus per-phase p95 across all tiles and streams.
     */
    void dumpProfileSummaryJson(std::ostream &os) const;

    /**
     * Chrome trace of the stream lifecycles (requires
     * cfg.traceStreams), merged from the per-component logs.
     */
    void writeStreamTrace(std::ostream &os) const;

    /** Component access for tests. */
    mem::TlbHierarchy &tlb(TileId t) { return *_tlbs[t]; }
    mem::NucaMap &nuca() { return *_nuca; }
    mem::PrivCache &privCache(TileId t) { return *_priv[t]; }
    mem::L3Bank &l3Bank(TileId t) { return *_l3[t]; }
    /** Tile @p t's memory controller; null off the mesh corners. */
    mem::MemCtrl *memCtrl(TileId t) { return _memCtrls[t].get(); }
    cpu::Core &core(TileId t) { return *_cores[t]; }
    stream::SECore *seCore(TileId t) { return _seCores[t].get(); }
    flt::SEL2 *seL2(TileId t) { return _seL2[t].get(); }
    flt::SEL3 *seL3(TileId t) { return _seL3[t].get(); }

    CheckLevel checkLevel() const { return _cfg.checkLevel; }
    Checker *checker() { return _checker.get(); }
    Watchdog *watchdog() { return _watchdog.get(); }

    /** The --verify data plane; null unless cfg.verify is set. */
    verify::DataPlane *verifyPlane() { return _verify.get(); }

    /** Host wall-clock seconds spent in the last run()'s event loop. */
    double hostSeconds() const { return _hostSeconds; }

    /**
     * Include the nondeterministic `host` stat group (wall-clock and
     * events/sec) in dumps. Off by default: stats.json is part of the
     * determinism contract (repeated runs byte-compare, the sweep
     * merges per-point dumps), so wall-clock numbers only appear when
     * a consumer opts in (SimResults always carries them regardless).
     */
    void includeHostStats(bool on) { _hostStatsInJson = on; }

  private:
    void buildTiles();
    /** Mesh sink: hands @p msg to @p tile's component. */
    void dispatch(TileId tile, const noc::MsgPtr &msg);
    /** Create the interval sampler and register its standard probes. */
    void startSampler();
    SimResults collect(bool hit_limit);

    /**
     * Assemble the robustness layer: fault-injecting mesh send
     * interceptor, invariant checker with the protocol checks,
     * forward-progress watchdog, and the diagnostic hooks fatal()
     * replays.
     */
    void setupRobustness();
    void registerInvariantChecks();
    void registerDiagnostics();
    /**
     * After the cores finish, pump the remaining events so in-flight
     * writebacks / stream ends complete, then verify nothing is stuck:
     * MSHRs, delayed evictions, directory transactions, resident
     * stream contexts and tracked NoC packets must all be gone, and
     * every registered invariant must still hold. Only runs when
     * checking is enabled, so default runs stay cycle-identical.
     */
    void drainAndCheck();

    SystemConfig _cfg;
    /**
     * The one event queue. Destroyed after the components (declared
     * before them).
     */
    EventQueue _eq;
    mem::PhysMem _physMem;
    std::unique_ptr<mem::AddressSpace> _as;
    std::unique_ptr<noc::Mesh> _mesh;
    std::unique_ptr<mem::NucaMap> _nuca;
    std::unique_ptr<cpu::BarrierController> _barrier;
    /**
     * Stream-lifecycle logs, empty unless cfg.traceStreams: [2t] is
     * tile t's SE_core, [2t+1] its SE_L3; the merged trace folds them
     * in this order. Declared before the components that point into
     * it.
     */
    std::vector<trace::StreamLog> _streamLogs;

    std::vector<std::unique_ptr<mem::TlbHierarchy>> _tlbs;
    std::vector<std::unique_ptr<mem::PrivCache>> _priv;
    std::vector<std::unique_ptr<mem::L3Bank>> _l3;
    std::vector<std::unique_ptr<mem::MemCtrl>> _memCtrls; // by tile
    std::vector<std::unique_ptr<stream::SECore>> _seCores;
    std::vector<std::unique_ptr<flt::SEL2>> _seL2;
    std::vector<std::unique_ptr<flt::SEL3>> _seL3;
    std::vector<std::unique_ptr<mem::PrefetchObserverIf>> _l1Pf;
    std::vector<std::unique_ptr<mem::PrefetchObserverIf>> _l2Pf;
    std::vector<std::unique_ptr<cpu::Core>> _cores;
    std::vector<std::shared_ptr<isa::OpSource>> _threads;
    std::unique_ptr<stats::IntervalSampler> _sampler;
    /** Latency-attribution profiler; null unless cfg.profile. */
    std::unique_ptr<prof::Profiler> _prof;

    std::unique_ptr<verify::DataPlane> _verify;
    std::unique_ptr<FaultInjector> _faults;
    std::unique_ptr<Checker> _checker;
    std::unique_ptr<Watchdog> _watchdog;
    /** Diagnostic-hook ids to unregister on destruction. */
    std::vector<int> _diagHooks;

    /** Incremented as cores drain; the last one ends the run. */
    int _coresDone = 0;
    double _hostSeconds = 0.0;
    bool _hostStatsInJson = false;
};

} // namespace sys
} // namespace sf

#endif // SF_SYSTEM_TILED_SYSTEM_HH
