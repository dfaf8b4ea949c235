/**
 * @file
 * SE_L2: the requesting-tile stream engine (Fig. 9).
 *
 * Buffers uncached floated-stream data arriving as DataU, matches it
 * against the SE_core's tagged fetch requests, runs the coarse-grained
 * credit-based flow control toward remote SE_L3s, and implements the
 * §IV-E memory-disambiguation machinery (dirty-eviction search and the
 * head/tail credit sequence window).
 */

#ifndef SF_FLT_SE_L2_HH
#define SF_FLT_SE_L2_HH

#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "flt/arrival_window.hh"
#include "flt/stream_msg.hh"
#include "mem/nuca.hh"
#include "mem/phys_mem.hh"
#include "mem/priv_cache.hh"
#include "mem/tlb.hh"
#include "noc/mesh.hh"
#include "sim/record_pool.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "stream/float_if.hh"
#include "stream/se_core.hh"

namespace sf {

namespace verify {
class DataPlane;
} // namespace verify

namespace flt {

struct SEL2Config
{
    /** Stream buffer capacity (Table III: 16 kB). */
    uint32_t bufferBytes = 16 * 1024;
    int maxStreams = 12;
    /** Send a credit refresh when at least this fraction is free. */
    double creditRefreshFraction = 0.5;
    /**
     * §IV-B constant-offset reuse: when streams A[i] and A[i+K] float
     * together and K fits in the buffer, the remote engine sends the
     * overlap once and the SE_L2 serves the lagging stream from the
     * leading stream's data.
     */
    bool enableStencilReuse = true;

    // --- robustness: graceful degradation under lost control msgs ---
    /**
     * Master switch for the retry/fallback machinery below. Off, a
     * lost float request or credit grant wedges the stream (the
     * forward-progress watchdog then catches the hang) — used by the
     * `noretry` fault spec to prove the watchdog works.
     */
    bool retryEnabled = true;
    /** Resend an unacked float config after this many cycles. */
    Cycles floatAckTimeout = 8192;
    /** Config resends (ack timeouts + stall recoveries) before the
     *  stream is sunk back to core-fetch for good. */
    int maxFloatRetries = 3;
    /** A floated stream with waiters and no arrivals/acks for this
     *  long is considered stuck and enters recovery. */
    Cycles progressTimeout = 100'000;
};

struct SEL2Stats
{
    stats::Scalar floats, unfloats;
    stats::Scalar configsSent, endsSent, creditsSent;
    stats::Scalar dataArrived, dataDropped;
    stats::Scalar servedFetches;
    stats::Scalar dirtyEvictionSearches, dirtyEvictionAliases;
    stats::Scalar evictionPressureSinks;
    /** §IV-B constant-offset merges and element serves. */
    stats::Scalar stencilMerges, stencilServes;
    /** Robustness: acks/NACKs received and the recovery paths taken. */
    stats::Scalar acksReceived, floatNacks;
    stats::Scalar floatRetries, floatFallbacks;

    /** Register every counter with @p g for report dumping. */
    void
    regStats(stats::StatGroup &g) const
    {
        g.regScalar("floats", &floats);
        g.regScalar("unfloats", &unfloats);
        g.regScalar("configsSent", &configsSent);
        g.regScalar("endsSent", &endsSent);
        g.regScalar("creditsSent", &creditsSent);
        g.regScalar("dataArrived", &dataArrived);
        g.regScalar("dataDropped", &dataDropped);
        g.regScalar("servedFetches", &servedFetches);
        g.regScalar("dirtyEvictionSearches", &dirtyEvictionSearches);
        g.regScalar("dirtyEvictionAliases", &dirtyEvictionAliases);
        g.regScalar("evictionPressureSinks", &evictionPressureSinks);
        g.regScalar("stencilMerges", &stencilMerges);
        g.regScalar("stencilServes", &stencilServes);
        g.regScalar("acksReceived", &acksReceived);
        g.regScalar("floatNacks", &floatNacks);
        g.regScalar("floatRetries", &floatRetries);
        g.regScalar("floatFallbacks", &floatFallbacks);
    }
};

/** The per-tile L2 stream engine. */
class SEL2 : public SimObject,
             public mem::StreamBufferIf,
             public stream::FloatControllerIf
{
  public:
    SEL2(const std::string &name, EventQueue &eq, TileId tile,
         const SEL2Config &cfg, noc::Mesh &mesh,
         const mem::NucaMap &nuca, mem::PrivCache &cache,
         mem::TlbHierarchy &tlb, mem::AddressSpace &as,
         stream::SECore &se_core);

    // --- stream::FloatControllerIf (calls from SE_core) ---
    bool floatStream(const stream::FloatRequest &req) override;
    void unfloatStream(StreamId sid) override;
    void fetchFloatedElems(StreamId sid, uint64_t first_idx,
                           uint16_t count,
                           std::function<void()> on_ready,
                           uint32_t prof_id = 0) override;

    // --- mem::StreamBufferIf (calls from the private cache) ---
    bool handleFloatedFetch(mem::Access &access) override;
    void onFloatedHitInCache(const GlobalStreamId &stream,
                             uint64_t elem_idx) override;
    void recvDataU(const mem::MemMsgPtr &msg) override;
    void onDirtyEviction(Addr line_paddr) override;

    /** Float ack / NACK from an SE_L3 bank (via the mesh). */
    void recvFloatAck(const std::shared_ptr<StreamAckMsg> &msg);
    uint16_t currentCreditHead() override;
    bool mustDelayEviction(uint16_t seq_num) override;
    void onEvictionPressure() override;

    SEL2Stats &stats() { return _stats; }

    /** Attach the --verify data plane (null = verify off). */
    void setVerify(verify::DataPlane *v) { _verify = v; }

    /** Enable latency attribution (null = off, the default). */
    void setProfiler(prof::Profiler *p) { _prof = p; }

    /** Dump buffered stream state (debugging aid). */
    void debugDump(std::FILE *f) const;

    // --- introspection for the invariant checker / drain checks ---
    size_t numFloated() const { return _floated.size(); }
    /**
     * The §IV-A credit window: an independent base stream's granted
     * horizon never runs more than one buffer capacity ahead of
     * consumption. Children share the base's credits and aliased
     * streams ride a leader's window, so only independent base
     * streams are bounded this way. Appends one message per violation.
     */
    void checkCreditWindow(std::vector<std::string> &out) const;
    /** Latest generation ever issued for @p sid (0 = never floated). */
    uint32_t
    latestGen(StreamId sid) const override
    {
        auto it = _genCounter.find(sid);
        return it == _genCounter.end() ? 0 : it->second;
    }


  private:
    struct Waiter
    {
        uint64_t endElem;
        std::function<void()> cb;
        /** Latency-attribution record (0 = untracked) + park tick. */
        uint32_t profId = 0;
        Tick parkTick = 0;
    };

    struct FloatedStream
    {
        isa::StreamConfig cfg;
        uint32_t gen = 0;
        StreamId baseSid = invalidStream; //!< valid for indirect children
        std::vector<StreamId> children;

        uint64_t startElem = 0;
        /** Arrival frontier (arrival.next(): contiguous data received
         *  below it) and the elements received beyond it. */
        ArrivalWindow arrival;
        /** Consumption frontier (served to SE_core / cache hits). */
        uint64_t consumedUpTo = 0;
        /** Credit horizon granted to the SE_L3. */
        uint64_t grantedUpTo = 0;
        uint64_t capacityElems = 0;

        // --- §IV-B constant-offset reuse ---
        /** Leading stream whose data covers ours (invalid if none). */
        StreamId aliasRoot = invalidStream;
        /** Our element i equals root element i + aliasOffset. */
        uint64_t aliasOffset = 0;
        /** Our elements >= tailStart come from our own remote tail. */
        uint64_t tailStart = 0;
        /** Lagging streams served from our buffer. */
        std::vector<StreamId> aliasedBy;

        std::vector<Waiter> waiters;

        // --- robustness bookkeeping ---
        /** Some bank acknowledged our config/migration. */
        bool acked = false;
        /** Config resends so far (ack timeout + stall recovery). */
        int retries = 0;
        /** Last arrival/ack/serve for this stream. */
        Tick lastProgress = 0;
    };

    /** Outstanding credit grant for the §IV-E seq window. */
    struct Grant
    {
        uint16_t seq;
        StreamId sid;
        uint32_t gen;
        uint64_t endElem;
    };

    FloatedStream *find(StreamId sid);
    const FloatedStream *findConst(StreamId sid) const;

    /**
     * §IV-B: try to alias the incoming stream onto an already-floated
     * leading stream with the same pattern at a constant element
     * offset. @return the element index the remote engine must still
     * produce from (the uncovered tail), or @p start when no match.
     */
    uint64_t tryStencilAlias(FloatedStream &s, uint64_t start);

    /** Contiguous element availability, including via the alias root. */
    uint64_t availableUpTo(const FloatedStream &s);

    void serveWaiters(StreamId sid, FloatedStream &s);
    /** Run (and recycle) a batch of served fetch callbacks. */
    void fireServed(std::vector<std::function<void()>> *batch);
    void maybeGrantCredits(StreamId sid, FloatedStream &s);
    void advanceTail();

    /** Virtual address of one element (functional indirect chase). */
    Addr elemVaddr(const FloatedStream &s, uint64_t idx);

    /** Re-issue an unserved fetch through the cache (after a sink). */
    void reissueThroughCache(StreamId sid, const FloatedStream &s,
                             uint64_t first, uint16_t count,
                             std::function<void()> cb);

    TileId bankOfElem(const FloatedStream &s, uint64_t idx);

    /**
     * Send @p base's config packet, with its indirect children, to the
     * home bank of @p next_elem, granting credit up to @p credit.
     * @return the bank it went to.
     */
    TileId sendConfig(StreamId sid, const FloatedStream &base,
                      uint64_t next_elem, uint64_t credit);

    // --- robustness: ack timeout, stall recovery, fallback ---
    /** Resend the config for @p sid from its arrival frontier. */
    void resendConfig(StreamId sid, FloatedStream &base);
    /** Ack-timeout check for (sid, gen); retries or falls back. */
    void checkAck(StreamId sid, uint32_t gen);
    void armAckCheck(StreamId sid, uint32_t gen);
    /** Periodic stuck-stream scan; self-stops when nothing floats. */
    void scheduleProgressScan();
    void progressScan();
    /** True when the stream group is blocking the core right now. */
    bool groupHasWaiters(const FloatedStream &base) const;

    SEL2Config _cfg;
    TileId _tile;
    noc::Mesh &_mesh;
    const mem::NucaMap &_nuca;
    mem::PrivCache &_cache;
    mem::TlbHierarchy &_tlb;
    mem::AddressSpace &_as;
    stream::SECore &_seCore;
    verify::DataPlane *_verify = nullptr;
    prof::Profiler *_prof = nullptr;

    // Ordered by StreamId: these tables are iterated on paths that
    // emit messages and pick alias leaders, where hash order would
    // break the determinism contract (sflint D1).
    std::map<StreamId, FloatedStream> _floated;
    std::map<StreamId, uint32_t> _genCounter;

    std::deque<Grant> _grants;
    uint16_t _headSeq = 0;
    uint16_t _tailSeq = 0;
    /** Progress scan: recurring while streams are floated. */
    RecurringEvent _scan;
    /** Served callbacks waiting out their one-cycle deferral. */
    sim::RecordPool<std::vector<std::function<void()>>> _servedPool;

    SEL2Stats _stats;
};

} // namespace flt
} // namespace sf

#endif // SF_FLT_SE_L2_HH
