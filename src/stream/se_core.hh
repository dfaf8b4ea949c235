/**
 * @file
 * SE_core: the in-core stream engine (§III-B) plus the floating /
 * sinking policy of §IV-D.
 *
 * The engine holds up to 12 stream definitions, runs ahead of the core
 * filling per-stream FIFO windows (issuing line-coalesced fetches
 * through the private cache, or tagged floated fetches served by the
 * SE_L2 buffer), tracks the PEB aliasing window against committed
 * stores, maintains the stream history table, and decides when to
 * float a stream into the cache hierarchy and when to sink it back.
 */

#ifndef SF_STREAM_SE_CORE_HH
#define SF_STREAM_SE_CORE_HH

#include <cstdio>
#include <functional>
#include <map>
#include <vector>

#include "cpu/stream_engine_if.hh"
#include "mem/phys_mem.hh"
#include "mem/priv_cache.hh"
#include "mem/tlb.hh"
#include "sim/profile.hh"
#include "sim/record_pool.hh"
#include "sim/ring.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/stream_trace.hh"
#include "stream/float_if.hh"
#include "stream/history.hh"

namespace sf {

namespace verify {
class DataPlane;
} // namespace verify

namespace stream {

struct SECoreConfig
{
    /** Total load-FIFO capacity shared by all streams (Table III). */
    uint32_t fifoBytes = 1024;
    int maxStreams = 12;

    // --- floating policy (§IV-D); SE_core floats only with an SE_L2 ---
    /** Float indirect streams along with their base (SF vs SF-Aff). */
    bool floatIndirects = true;
    /** Private L2 capacity; known footprints above this float at once. */
    uint64_t l2CapacityBytes = 256 * 1024;
    /** Requests to accumulate before a history-based float decision. */
    uint64_t floatDecisionRequests = 64;
    /** Float when miss ratio exceeds this... */
    double floatMissRatio = 0.6;
    /** ...and reuse ratio stays below this. */
    double floatReuseRatio = 0.05;
    /** Sink after this many consecutive private-cache hits (§IV-D). */
    int sinkCacheHitThreshold = 8;
};

struct SECoreStats
{
    stats::Scalar configures, ends;
    stats::Scalar fetchesIssued, floatedFetchesIssued;
    stats::Scalar elementsConsumed;
    stats::Scalar streamsFloated, streamsSunk;
    stats::Scalar aliasFlushes;
    stats::Scalar footprintFloats, historyFloats;

    /** Register every counter with @p g for report dumping. */
    void
    regStats(stats::StatGroup &g) const
    {
        g.regScalar("configures", &configures);
        g.regScalar("ends", &ends);
        g.regScalar("fetchesIssued", &fetchesIssued);
        g.regScalar("floatedFetchesIssued", &floatedFetchesIssued);
        g.regScalar("elementsConsumed", &elementsConsumed);
        g.regScalar("streamsFloated", &streamsFloated);
        g.regScalar("streamsSunk", &streamsSunk);
        g.regScalar("aliasFlushes", &aliasFlushes);
        g.regScalar("footprintFloats", &footprintFloats);
        g.regScalar("historyFloats", &historyFloats);
    }
};

/**
 * The core-side stream engine. Implements the pipeline-facing
 * interface (cpu::StreamEngineIf).
 */
class SECore : public SimObject, public cpu::StreamEngineIf
{
  public:
    SECore(const std::string &name, EventQueue &eq, TileId tile,
           const SECoreConfig &cfg, mem::PrivCache &cache,
           mem::TlbHierarchy &tlb, mem::AddressSpace &as);

    /** Attach the floating controller (SE_L2); null disables SF. */
    void setFloatController(FloatControllerIf *fc) { _floatCtrl = fc; }

    /** Invoked to wake the core when FIFO data lands. */
    void setWakeHook(std::function<void()> hook) { _wake = std::move(hook); }

    /**
     * Enable latency attribution: stream fetches get lifecycle records
     * keyed (tile, sid) and the engine's activity lands in its own
     * top-down account (null = off, the default).
     */
    void
    setProfiler(prof::Profiler *p)
    {
        _prof = p;
        _td = p ? &p->topDown(name()) : nullptr;
    }

    /**
     * Attach the --verify data plane. Element byte values are captured
     * when FIFO data lands (onFetchDone) by observing the protocol-
     * routed line image, and folded per stream_load at commit.
     */
    void setVerify(verify::DataPlane *v) { _verify = v; }

    /** Append stream transitions to @p log (null = off, the default). */
    void setStreamLog(trace::StreamLog *log) { _streamLog = log; }

    // --- cpu::StreamEngineIf ---
    void noteConfigDispatched(
        const std::vector<isa::StreamConfig> &group) override;
    void configure(const std::vector<isa::StreamConfig> &group) override;
    void end(StreamId sid) override;
    uint64_t requestElems(StreamId sid, uint16_t elems,
                          std::function<void()> on_ready) override;
    void step(StreamId sid, uint16_t elems) override;
    void releaseAtCommit(StreamId sid, uint16_t elems) override;
    Addr storeAddr(StreamId sid) override;
    void storeCommitted(Addr vaddr, uint16_t size) override;
    bool canAcceptUse(StreamId sid) const override;
    uint64_t verifyFoldElems(StreamId sid, uint64_t first,
                             uint16_t elems) override;

    // --- notifications from the memory system / SE_L2 ---
    /** A line this stream filled was reused in the private cache. */
    void notifyStreamReuse(StreamId sid);
    /** A floated fetch hit in the private cache (sink candidate). */
    void notifyFloatedCacheHit(StreamId sid);
    /** A floated fetch was served from the SE_L2 buffer. */
    void notifyFloatedBufferServe(StreamId sid);
    /** SE_L2 asks us to sink (deadlock breaker, §IV-E). */
    void requestSink(StreamId sid);

    /**
     * Context switch (§IV-E "Precise State and Context Switch"):
     * stream floating adds no architectural state, so on a switch all
     * floating streams are discarded; on switching back, streams
     * restart not-floating and may refloat on their own merits.
     */
    void contextSwitchFlush();

    SECoreStats &stats() { return _stats; }
    const StreamHistoryTable &history() const { return _history; }
    bool isFloating(StreamId sid) const;

    /** Dump live stream state (debugging aid). */
    void debugDump(std::FILE *f) const;

  private:
    struct ElemRec
    {
        Addr vaddr = 0;
        bool fetched = false; //!< request issued
        bool ready = false;   //!< data in FIFO
    };

    struct Use
    {
        uint64_t endElem;
        std::function<void()> cb;
    };

    /**
     * One in-flight fetch, parked in a pool record so its completion
     * callback captures only `[this, FetchCtx *]` (DESIGN.md §4l).
     */
    struct FetchCtx
    {
        StreamId sid = invalidStream;
        uint64_t first = 0;
        uint16_t count = 0;
        /** Stream epoch at issue; a stale completion is dropped. */
        uint32_t epoch = 0;
        /** Latency-attribution record (0 = untracked). */
        uint32_t pid = 0;
        /** Written by the cache before completion (Table II "miss"). */
        bool missed = false;
    };

    struct StreamState
    {
        bool active = false;
        isa::StreamConfig cfg;
        /** Walks cfg.affine for the run-ahead addresses. */
        isa::AffineCursor cursor;
        /** Dependent indirect streams configured with this one. */
        std::vector<StreamId> children;
        StreamId parent = invalidStream;

        uint64_t dispatchIter = 0; //!< iteration map position
        uint64_t commitBase = 0;   //!< first live FIFO element
        /** Records of elements [commitBase, commitBase + size()). It
         *  grows past the quota when run-ahead covers a requested use,
         *  and keeps its buffer across reconfigurations. */
        sim::Ring<ElemRec> window;
        /** Conservative cover [windowLo, windowHi) of the bytes of
         *  every window element; stores outside it cannot alias. */
        Addr windowLo = ~Addr(0);
        Addr windowHi = 0;
        uint64_t readyUpTo = 0; //!< contiguous ready prefix (absolute)
        uint64_t nextFetch = 0; //!< first element with no request yet
        std::vector<Use> waiters;

        bool floating = false;
        /** Sunk once: do not refloat this configuration (§IV-D). */
        bool noRefloat = false;
        /** Elements >= this index are fetched via the floated path. */
        uint64_t floatFromElem = ~0ULL;
        bool aliasDisabled = false; //!< prefetch disabled after alias
        /** With prefetch disabled, fetch only up to requested uses. */
        uint64_t demandEnd = 0;
        int consecutiveCacheHits = 0;
        uint64_t quotaElems = 8;
        /** Guards stale fetch callbacks across reconfigurations. */
        uint32_t epoch = 0;
        /** Float generation this incarnation's trace records carry
         *  (trace::StreamEvent::gen; set only while tracing). */
        uint32_t traceGen = 0;
        /** --verify: observed element bytes, keyed by absolute index
         *  (ordered — the commit-time sweep iterates it). */
        std::map<uint64_t, std::vector<uint8_t>> vElems;
    };

    /** The live entry of @p sid (asserted). */
    StreamState &state(StreamId sid);
    /** The live entry of @p sid, or null. */
    StreamState *find(StreamId sid);
    const StreamState *find(StreamId sid) const;
    /** The entry of @p sid, live or ended; null past the table. */
    StreamState *slot(StreamId sid);

    /** Run-ahead: allocate + fetch elements for @p sid. */
    void pump(StreamId sid, uint64_t min_end = 0);
    /** Issue one line-coalesced fetch starting at @p first_idx. */
    void issueFetch(StreamId sid, uint64_t first_idx, uint16_t count);
    /** Completion of @p ctx: recycles it, then onFetchDone(). */
    void fetchDone(FetchCtx *ctx);
    void onFetchDone(StreamId sid, uint64_t first_idx, uint16_t count,
                     bool missed);
    void advanceReady(StreamState &s);
    void fireWaiters(StreamState &s);

    /** Indirect element @p idx's address, once its index value has
     *  reached the core; false before. */
    bool indirectAddr(StreamState &s, uint64_t idx, Addr &out);

    /** --verify: capture element @p idx's bytes from the data plane. */
    const std::vector<uint8_t> &verifyBindElem(StreamState &s,
                                               uint64_t idx);

    void recomputeQuotas();

    /** §IV-D float decision; @return true if the stream floated. */
    bool maybeFloat(StreamId sid, uint64_t start_elem, bool at_config);
    /** Pull a floated stream back to the core; @p reason is trace-only. */
    void sink(StreamId sid, const char *reason);

    SECoreConfig _cfg;
    TileId _tile;
    mem::PrivCache &_cache;
    mem::TlbHierarchy &_tlb;
    mem::AddressSpace &_as;
    FloatControllerIf *_floatCtrl = nullptr;
    std::function<void()> _wake;
    verify::DataPlane *_verify = nullptr;
    prof::Profiler *_prof = nullptr;
    prof::TopDownAccount *_td = nullptr;
    trace::StreamLog *_streamLog = nullptr;

    // Indexed by StreamId (sids are small), so iteration is in sid
    // order: quota recomputation, context-switch flushes and debug
    // dumps iterate this table, and their order feeds message emission
    // (sflint D1). An ended stream keeps its entry (and its epoch).
    std::vector<StreamState> _streams;
    /** Sids ever configured (the live-stream limit counts these). */
    int _configuredSids = 0;
    /** Dispatched-but-uncommitted stream_cfg count, indexed by sid. */
    std::vector<int> _pendingCfgs;
    StreamHistoryTable _history;
    SECoreStats _stats;
    sim::RecordPool<FetchCtx> _fetchPool;
    /** fireWaiters()'s ready list, kept for its capacity. */
    std::vector<std::function<void()>> _readyScratch;
};

} // namespace stream
} // namespace sf

#endif // SF_STREAM_SE_CORE_HH
