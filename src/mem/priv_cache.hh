/**
 * @file
 * Per-tile private cache hierarchy: L1D + L2 with a single MESI
 * protocol endpoint at the L2.
 *
 * The L1 and L2 arrays are modelled with their own sizes, latencies and
 * evictions (L2 inclusive of L1); the coherence protocol (GetS / GetM /
 * GetU / PutS / PutM and the forward/invalidate handshakes) terminates
 * at the L2, as in the paper's tiled CMP. The controller exposes the
 * hooks stream floating needs: a stream-buffer interface (SE_L2) that
 * intercepts floated-stream fetches and DataU responses, per-line
 * fill-stream tags for the reuse history table (§IV-D), and the Fig. 2
 * telemetry for lines evicted clean without reuse.
 */

#ifndef SF_MEM_PRIV_CACHE_HH
#define SF_MEM_PRIV_CACHE_HH

#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/cache_array.hh"
#include "mem/mem_msg.hh"
#include "mem/nuca.hh"
#include "noc/mesh.hh"
#include "sim/record_pool.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace sf {

namespace verify {
class DataPlane;
struct StoreRec;
} // namespace verify

namespace mem {

/** Kind of access arriving at the private hierarchy. */
enum class AccessKind : uint8_t
{
    Demand,       //!< core load/store
    StreamFetch,  //!< SE_core fetch for a non-floated stream (allocates)
    FloatedFetch, //!< SE_core fetch for a floated stream (tag check
                  //!< only; served by the SE_L2 stream buffer on miss)
    Prefetch,     //!< hardware prefetcher fill request
};

/** One request into the private hierarchy. */
struct Access
{
    AccessKind kind = AccessKind::Demand;
    Addr vaddr = 0;
    Addr paddr = 0;
    uint16_t size = 4;
    bool isWrite = false;
    uint32_t pc = 0;
    /** Op came from a compiler-recognized stream (Fig. 2a telemetry). */
    bool streamEligible = false;
    /** Stream tagging for Stream/Floated fetches. */
    GlobalStreamId stream;
    uint64_t elemIdx = 0;
    /** Prefetch target level: 1 fills L1+L2, 2 fills L2 only. */
    int prefetchLevel = 1;
    /** Completion callback (may be empty for prefetches). */
    std::function<void()> onDone;
    /** --verify: store record applied when the write performs. */
    std::shared_ptr<verify::StoreRec> vstore;
    /**
     * If set, written before onDone: true when the access missed the
     * private hierarchy (stream history "miss" column, Table II).
     */
    bool *missOut = nullptr;
    /** Latency-attribution record handle; 0 = untracked. */
    uint32_t profId = 0;
};

/**
 * Interface to the colocated SE_L2 stream buffer (implemented in
 * src/flt). Keeps mem/ free of a dependency on flt/.
 */
class StreamBufferIf
{
  public:
    virtual ~StreamBufferIf() = default;

    /**
     * A floated-stream fetch missed in L1/L2 tags; the stream buffer
     * takes ownership and will invoke the access's callback (moved
     * out of @p access) when the element arrives. @return false, with
     * @p access untouched, if the stream is unknown (e.g. just sunk)
     * and the cache should fall back to a demand fetch.
     */
    virtual bool handleFloatedFetch(Access &access) = 0;

    /** A floated-stream fetch hit in the private cache (§IV-A). */
    virtual void onFloatedHitInCache(const GlobalStreamId &stream,
                                     uint64_t elem_idx) = 0;

    /** Uncached stream data arrived from a remote SE_L3. */
    virtual void recvDataU(const MemMsgPtr &msg) = 0;

    /**
     * The L2 is evicting a dirty line; search the stream buffer for an
     * aliasing floated load (§IV-E second window).
     */
    virtual void onDirtyEviction(Addr line_addr) = 0;

    /**
     * An L1 dirty line passed down to the L2; returns the current
     * credit head sequence number to tag the line with (§IV-E third
     * window), and whether eviction of this line must be delayed.
     */
    virtual uint16_t currentCreditHead() = 0;

    /** True if a line tagged @p seq_num must still be held back. */
    virtual bool mustDelayEviction(uint16_t seq_num) = 0;

    /**
     * Too many dirty evictions are being delayed; the SE should sink a
     * stream to break the potential deadlock cycle (§IV-E).
     */
    virtual void onEvictionPressure() {}
};

/** Observation interface for hardware prefetchers (src/prefetch). */
class PrefetchObserverIf
{
  public:
    struct DemandInfo
    {
        Addr paddr;
        Addr vaddr;
        uint32_t pc;
        bool isWrite;
        bool l1Miss;
        bool l2Miss;
    };

    virtual ~PrefetchObserverIf() = default;
    virtual void observe(const DemandInfo &info) = 0;
};

/** Callback used to notify SE_core of private-cache stream reuse. */
using StreamReuseHook = std::function<void(StreamId)>;

struct PrivCacheConfig
{
    uint64_t l1Size = 32 * 1024;
    uint32_t l1Ways = 8;
    Cycles l1Latency = 2;
    uint64_t l2Size = 256 * 1024;
    uint32_t l2Ways = 16;
    Cycles l2Latency = 16;
    ReplPolicy l1Policy = ReplPolicy::LRU;
    ReplPolicy l2Policy = ReplPolicy::LRU;
    uint32_t numMshrs = 32;
    /**
     * L1 MSHRs: outstanding demand misses. This is the classic MLP
     * bottleneck that makes prefetching pay off on wide OOO cores;
     * SE / prefetcher fills have their own request budgets and are
     * not charged against it.
     */
    uint32_t l1Mshrs = 12;
    /** Max retained delayed dirty evictions before forcing a sink. */
    uint32_t maxDelayedEvictions = 8;
};

/** Statistics exported for the paper's figures. */
struct PrivCacheStats
{
    stats::Scalar l1Hits, l1Misses;
    stats::Scalar l2Hits, l2Misses;
    stats::Scalar l2Evictions;
    /** Clean + never reused (Fig. 2a numerator). */
    stats::Scalar l2EvictionsUnreused;
    /** ... of which the fill came from a stream-eligible access. */
    stats::Scalar l2EvictionsUnreusedStream;
    /** Flits attributable to caching unreused lines (Fig. 2b). */
    stats::Scalar unreusedDataFlits, unreusedCtrlFlits;
    stats::Scalar prefetchesIssued, prefetchesUseful;
    stats::Scalar floatedHitsInCache;
    stats::Scalar writebacks;
    /** Forwards held until an in-flight fill arrived (early-fwd race). */
    stats::Scalar fwdsDeferred;
    /** Parked dirty evictions re-installed by a subsequent miss. */
    stats::Scalar writebacksResurrected;

    /** Register every counter with @p g for report dumping. */
    void
    regStats(stats::StatGroup &g) const
    {
        g.regScalar("l1Hits", &l1Hits);
        g.regScalar("l1Misses", &l1Misses);
        g.regScalar("l2Hits", &l2Hits);
        g.regScalar("l2Misses", &l2Misses);
        g.regScalar("l2Evictions", &l2Evictions);
        g.regScalar("l2EvictionsUnreused", &l2EvictionsUnreused);
        g.regScalar("l2EvictionsUnreusedStream",
                    &l2EvictionsUnreusedStream);
        g.regScalar("prefetchesIssued", &prefetchesIssued);
        g.regScalar("prefetchesUseful", &prefetchesUseful);
        g.regScalar("floatedHitsInCache", &floatedHitsInCache);
        g.regScalar("writebacks", &writebacks);
        g.regScalar("fwdsDeferred", &fwdsDeferred);
        g.regScalar("writebacksResurrected", &writebacksResurrected);
    }
};

/**
 * The per-tile L1+L2 controller and MESI endpoint.
 */
class PrivCache : public SimObject
{
  public:
    PrivCache(const std::string &name, EventQueue &eq, TileId tile,
              const PrivCacheConfig &cfg, noc::Mesh &mesh,
              const NucaMap &nuca);

    /** Issue an access from the core / SE_core / prefetcher side. */
    void access(Access a);

    /** Handle a protocol message delivered by the mesh. */
    void recvMsg(const MemMsgPtr &msg);

    /** Attach the colocated SE_L2 stream buffer. */
    void setStreamBuffer(StreamBufferIf *sb) { _streamBuf = sb; }

    /** Attach L1/L2 prefetchers (observers). */
    void
    setPrefetchers(PrefetchObserverIf *l1, PrefetchObserverIf *l2)
    {
        _l1Prefetcher = l1;
        _l2Prefetcher = l2;
    }

    /** Hook invoked when a line filled by a stream is reused. */
    void setStreamReuseHook(StreamReuseHook h) { _reuseHook = std::move(h); }

    /** Group up to 4 consecutive L2 prefetch requests (bulk, §VI). */
    void setBulkPrefetch(bool enable) { _bulkPrefetch = enable; }

    /** Attach the --verify data plane (null = verify off). */
    void setVerify(verify::DataPlane *v) { _verify = v; }

    /** Attach the latency profiler (null = profiling off). */
    void setProfiler(prof::Profiler *p) { _prof = p; }

    /** Visit parked delayed dirty evictions (verify dirty scan). */
    void
    forEachDelayedEviction(
        const std::function<void(const CacheLine &)> &fn) const
    {
        for (const auto &l : _delayedEvictions)
            fn(l);
    }

    TileId tile() const { return _tile; }
    const PrivCacheConfig &config() const { return _cfg; }
    PrivCacheStats &stats() { return _stats; }
    const PrivCacheStats &stats() const { return _stats; }

    /** L2 demand hit rate (Fig. 18 dots). */
    double
    l2HitRate() const
    {
        uint64_t total = _stats.l2Hits + _stats.l2Misses;
        return total ? double(_stats.l2Hits.value()) / total : 0.0;
    }

    /** Number of in-use MSHRs (for backpressure in the core). */
    size_t mshrsInUse() const { return _mshrs.size(); }
    bool mshrAvailable() const { return _mshrs.size() < _cfg.numMshrs; }

    // --- introspection for the invariant checker / drain checks ---
    /** L2 tag array (read-only MESI walks; do not mutate lines). */
    CacheArray &l2Array() { return _l2; }
    /** Residual work that must be empty once the system drains. */
    size_t delayedEvictions() const { return _delayedEvictions.size(); }
    size_t mshrWaiters() const
    {
        return _mshrWaiters.size() + _l1MissWaiters.size();
    }

    /** Dump outstanding transactions (debugging aid). */
    void debugDump(std::FILE *f) const;

  private:
    struct Mshr
    {
        Addr lineAddr = 0;
        bool pendingM = false; //!< GetM outstanding
        bool needsM = false;   //!< escalate to GetM after DataS
        bool demandSeen = false;
        bool streamFetchSeen = false;
        int fillLevel = 2; //!< 1 fills L1 too
        bool prefetched = true;
        StreamId fillStream = invalidStream;
        bool streamEligible = false;
        std::vector<Access> waiters;
        /**
         * Forwards that arrived while the fill was still in flight
         * (the directory granted us ownership and then forwarded a
         * later request before our data landed). Replayed on fill.
         */
        std::vector<MemMsgPtr> deferredFwds;
    };

    /**
     * Run @p Phase on @p a after @p delay cycles. The access waits in
     * a pool record, so the event captures only `[this, Access *]`
     * (DESIGN.md §4l).
     */
    template <void (PrivCache::*Phase)(Access)>
    void park(Cycles delay, Access &&a);

    /** Second phase of access() after the L1 lookup latency. */
    void accessL1(Access a);
    /** L2 phase. */
    void accessL2(Access a, bool l1_was_miss);
    /** L2 phase of an access that missed the L1. */
    void accessL2Missed(Access a) { accessL2(std::move(a), true); }

    /** Floated fetch: L2 tag check, else the SE_L2 stream buffer. */
    void handleFloatedAccess(Access a);

    /**
     * Completion of a demand L1 miss: frees its L1 MSHR, then runs the
     * requester's callback parked in @p user_done.
     */
    void l1MissDone(std::function<void()> *user_done);

    /** Send a request to the home L3 bank. */
    void sendRequest(MemMsgType type, Addr line_addr,
                     uint16_t bulk_lines = 1,
                     std::shared_ptr<std::array<uint8_t, lineBytes>>
                         vdata = nullptr);

    void handleData(const MemMsgPtr &msg);
    void handleInv(const MemMsgPtr &msg);
    void handleFwd(const MemMsgPtr &msg);

    /** Fill the L2 (and optionally L1); emits eviction messages. */
    CacheLine &fillL2(const Mshr &m, LineState state);
    void fillL1(Addr line_addr, bool dirty);

    /** Evict an L2 victim: telemetry + PutS/PutM. */
    void evictL2Line(const CacheLine &victim);
    /**
     * Re-install a parked dirty eviction on a miss to the same line.
     * The directory still records this tile as owner, so re-requesting
     * would race the stale parked PutM; the parked copy IS the line.
     * @return true when the line was resurrected (the miss now hits).
     */
    bool resurrectParkedLine(Addr line_addr);
    /** Evict an L1 victim: fold dirty data into the L2 line. */
    void evictL1Line(const CacheLine &victim);

    void recordReuse(CacheLine &line, bool is_demand);

    /** Complete one waiting access (adds the L1 fill latency). */
    void finishWaiter(Access &w);

    /** Re-issue accesses that were blocked on a full MSHR file. */
    void retryMshrWaiters();

    /** Drain queued demand misses while L1 MSHRs are available. */
    void schedulePumpL1Waiters();

  public:
    /** Try to drain delayed dirty evictions (§IV-E third window).
     *  Called by the SE_L2 when its credit tail advances. */
    void drainDelayedEvictions();

  private:

    TileId homeBank(Addr paddr) const { return _nuca.bankOf(paddr); }

    PrivCacheConfig _cfg;
    TileId _tile;
    noc::Mesh &_mesh;
    const NucaMap &_nuca;

    CacheArray _l1;
    CacheArray _l2;
    std::unordered_map<Addr, Mshr> _mshrs;
    /** Accesses waiting for a free MSHR. */
    std::deque<Access> _mshrWaiters;
    /** Demand misses in flight below the L1 (bounded by l1Mshrs). */
    uint32_t _l1MissInFlight = 0;
    /** Demand accesses waiting for a free L1 MSHR. */
    std::deque<Access> _l1MissWaiters;
    bool _l1PumpScheduled = false;
    /** Dirty evictions held back by in-flight credit windows. */
    std::deque<CacheLine> _delayedEvictions;
    /**
     * Lines with a PutS/PutM sent (or parked) but not yet PutAck'd.
     * While a put is outstanding the directory's owner field may be
     * stale, so a Fwd for a missing line must answer FwdMiss; with no
     * put outstanding, an open MSHR means a grant is in flight and the
     * Fwd is deferred until the data arrives.
     */
    std::unordered_map<Addr, uint32_t> _pendingPuts;

    StreamBufferIf *_streamBuf = nullptr;
    verify::DataPlane *_verify = nullptr;
    prof::Profiler *_prof = nullptr;
    PrefetchObserverIf *_l1Prefetcher = nullptr;
    PrefetchObserverIf *_l2Prefetcher = nullptr;
    StreamReuseHook _reuseHook;
    bool _bulkPrefetch = false;

    /** Pending L2-prefetch lines buffered for bulk grouping. */
    std::vector<Addr> _bulkPending;

    /** Accesses waiting out a lookup latency (park()). */
    sim::RecordPool<Access> _accessPool;
    /** Requester callbacks of demand L1 misses in flight. */
    sim::RecordPool<std::function<void()>> _missDonePool;

    PrivCacheStats _stats;
};

} // namespace mem
} // namespace sf

#endif // SF_MEM_PRIV_CACHE_HH
