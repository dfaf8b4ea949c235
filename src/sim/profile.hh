/**
 * @file
 * Latency-attribution profiler (DESIGN.md §4h).
 *
 * Three cooperating pieces, all strictly opt-in (`--profile`):
 *
 *  - lifecycle records: every demand miss and stream element gets a
 *    compact record at issue time; components mark phase transitions
 *    (priv-cache lookup, NoC queue/transfer per hop, L3 bank queue and
 *    service, DRAM, SE-buffer park) and the deltas fold into
 *    per-(tile, stream, phase) log2-bucketed latency histograms;
 *
 *  - top-down cycle accounting: one TopDownAccount per core and per
 *    SE splits every simulated cycle into
 *    retired / stalled-on-data / stalled-on-sebuf / stalled-on-credit /
 *    idle. The split is exact by construction (gaps between ticks are
 *    charged to the reason recorded when the component quiesced) and
 *    verified by an invariant check at end of sim;
 *
 *  - report rendering: the aggregates serialize deterministically
 *    (ordered maps, integer state, fixed bucket boundaries) into the
 *    `profile.*` stat groups and the standalone profile.json.
 *
 * When profiling is off no Profiler exists: components hold a null
 * pointer and every hook is a single branch on the hot path.
 */

#ifndef SF_SIM_PROFILE_HH
#define SF_SIM_PROFILE_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/stat_registry.hh"
#include "sim/types.hh"

namespace sf {
namespace prof {

/**
 * Lifecycle phases of a tracked request/element. Mark-phases
 * (PrivCache, Remote, Fill, SEBuffer) partition a record's life;
 * add-phases (the NoC/L3/Mem set) are measured sub-intervals of
 * Remote attributed by the components the request passes through, so
 * per-phase histograms are attribution detail, not a second partition.
 */
enum class Phase : uint8_t
{
    /** Core/SE issue to the point the private caches resolve or
     *  escalate the access (hit serve, MSHR park, or GetS/GetM send). */
    PrivCache = 0,
    /** Waiting on the remote side: request sent until data returned. */
    Remote,
    /** Data arrival to requester completion (fill + L1 latency). */
    Fill,
    /** Floated element parked at the SE buffer until data arrival. */
    SEBuffer,
    /** Request-path NoC: cycles queued behind busy links. */
    NocReqQueue,
    /** Request-path NoC: router + serialization + link traversal. */
    NocReqXfer,
    /** L3 bank: parked behind a blocked line (directory txn). */
    L3Queue,
    /** L3 bank: fixed lookup/service latency. */
    L3Service,
    /** Directory memory fetch: MemRead issue to MemData return. */
    Mem,
    /** Response-path NoC: cycles queued behind busy links. */
    NocRspQueue,
    /** Response-path NoC: router + serialization + link traversal. */
    NocRspXfer,
    /** End-to-end: open() to close(). */
    Total,
    NumPhases,
};

constexpr size_t numPhases = static_cast<size_t>(Phase::NumPhases);

const char *phaseName(Phase p);

/**
 * Log2-bucketed latency histogram: bucket 0 holds zero-cycle samples,
 * bucket i >= 1 holds [2^(i-1), 2^i). Integer state only; the p50/p95
 * accessors interpolate inside the hit bucket, so repeated runs render
 * identical bytes.
 */
class LatHist
{
  public:
    static constexpr int numBuckets = 33;

    void
    sample(uint64_t v)
    {
        ++_count;
        _sum += v;
        if (v > _max)
            _max = v;
        ++_buckets[bucketOf(v)];
    }

    uint64_t count() const { return _count; }
    uint64_t sum() const { return _sum; }
    uint64_t max() const { return _max; }
    double mean() const { return _count ? double(_sum) / _count : 0.0; }
    const std::array<uint64_t, numBuckets> &buckets() const
    {
        return _buckets;
    }

    /** Interpolated percentile, q in [0, 1]; 0 when empty. */
    double percentile(double q) const;
    double p50() const { return percentile(0.50); }
    double p95() const { return percentile(0.95); }

    void
    merge(const LatHist &o)
    {
        _count += o._count;
        _sum += o._sum;
        if (o._max > _max)
            _max = o._max;
        for (int i = 0; i < numBuckets; ++i)
            _buckets[i] += o._buckets[i];
    }

    static int
    bucketOf(uint64_t v)
    {
        return v ? 64 - __builtin_clzll(v) : 0;
    }

    /** Inclusive [lo, hi] value range of one bucket. */
    static uint64_t bucketLo(int b) { return b ? 1ull << (b - 1) : 0; }
    static uint64_t
    bucketHi(int b)
    {
        return b ? (1ull << b) - 1 : 0;
    }

  private:
    uint64_t _count = 0;
    uint64_t _sum = 0;
    uint64_t _max = 0;
    std::array<uint64_t, numBuckets> _buckets{};
};

/** Top-down stall taxonomy (Fig. 2 of the paper). */
enum class Bucket : uint8_t
{
    /** At least one op/element retired this cycle. */
    Retired = 0,
    /** Head of window waits on memory data (demand or stream fetch). */
    StalledData,
    /** Head stream use waits on an element the SE buffer lacks. */
    StalledSebuf,
    /** Dispatch/issue blocked by SE flow-control credits. */
    StalledCredit,
    /** Nothing to do (drained, source exhausted, or between phases). */
    Idle,
    NumBuckets,
};

constexpr size_t numBuckets = static_cast<size_t>(Bucket::NumBuckets);

const char *bucketName(Bucket b);

/**
 * Exact-sum cycle accounting for one core or SE. Active components
 * call tickAt(now, bucket) on every executed cycle; quiesced spans
 * between ticks are charged to the reason recorded when the component
 * went to sleep. By construction the buckets always sum to the number
 * of accounted cycles, which finalize() extends to end-of-sim; the
 * verify() recomputation exists to catch accounting bugs (and powers
 * the negative test that skews a bucket on purpose).
 */
class TopDownAccount
{
  public:
    /** Charge cycle @p now to @p b and the gap since the previous
     *  accounted cycle to the current gap reason. */
    void
    tickAt(Tick now, Bucket b)
    {
        if (now < _upTo)
            return;
        _cycles[size_t(_gap)] += now - _upTo;
        _cycles[size_t(b)] += 1;
        _upTo = now + 1;
    }

    /** Record why upcoming un-ticked cycles should be charged. */
    void setGapReason(Bucket b) { _gap = b; }
    Bucket gapReason() const { return _gap; }

    /** Charge the tail gap so the account covers exactly [0, end). */
    void
    finalize(Tick end)
    {
        if (end > _upTo) {
            _cycles[size_t(_gap)] += end - _upTo;
            _upTo = end;
        }
    }

    uint64_t
    cycles(Bucket b) const
    {
        return _cycles[size_t(b)];
    }

    uint64_t
    total() const
    {
        uint64_t t = 0;
        for (uint64_t c : _cycles)
            t += c;
        return t;
    }

    /** First cycle not yet accounted ( == total cycles covered). */
    Tick accountedUpTo() const { return _upTo; }

    /** Empty string when consistent, else a violation description. */
    std::string verify(const std::string &name) const;

    /** Direct bucket access for the negative invariant test. */
    std::array<uint64_t, numBuckets> &rawCyclesForTest()
    {
        return _cycles;
    }

  private:
    std::array<uint64_t, numBuckets> _cycles{};
    Tick _upTo = 0;
    Bucket _gap = Bucket::Idle;
};

/**
 * The profiler: per-tile record arenas for in-flight lifecycle
 * tracking plus the per-(tile, stream, phase) aggregates and top-down
 * accounts. Components receive a `Profiler *` (null when profiling is
 * off) and guard every hook with a single null check.
 *
 * Record handles are 32-bit: 8-bit owner tile, 16-bit arena slot, and
 * an 8-bit generation, so a stale mark on a recycled slot is detected
 * and counted instead of corrupting another record. Handle 0 is "no
 * record" and is ignored by every entry point.
 *
 * Cross-tile ops (DESIGN.md §4i): every mutable structure is owned by
 * the tile encoded in the handle. mark/add/close take the calling
 * tile; with setDeferCrossTile(true) (the window loop) an op touching
 * another tile's record is queued on the calling tile and applied
 * after the window in (tile, FIFO) order. Two tiles never touch one
 * record in the same window — consecutive touches are separated by at
 * least the NoC lookahead — so deferral never reorders the ops on one
 * record.
 */
class Profiler
{
  public:
    Profiler() = default;

    /**
     * Pre-size the per-tile arenas (at most 256 tiles). Required
     * before deferred (engine) operation so no structure reallocates
     * mid-run; optional for serial standalone use, where tiles grow on
     * first open().
     */
    void configureTiles(int numTiles);

    /**
     * Defer cross-tile mark/add/close ops to flushDeferred() instead
     * of applying them inline. TiledSystem turns this on; standalone
     * users leave it off.
     */
    void setDeferCrossTile(bool on) { _deferCrossTile = on; }

    /** Apply queued cross-tile ops in (tile, FIFO) order. Call
     *  between windows. */
    void flushDeferred();

    /** Begin tracking one request/element on @p tile (the calling
     *  tile). sid == invalidStream means a plain demand access.
     *  Returns 0 when the tile's arena is full. */
    uint32_t open(TileId tile, StreamId sid, Tick now);

    /** Fold [lastMark, now) into @p p and advance the mark. @p exec
     *  is the calling tile. */
    void
    mark(TileId exec, uint32_t id, Phase p, Tick now)
    {
        if (!id)
            return;
        if (_deferCrossTile && tileOf(id) != exec) {
            _tiles[size_t(exec)].deferred.push_back(
                {id, OpKind::Mark, p, Phase::Fill, now});
            return;
        }
        markNow(id, p, now);
    }

    /** Attribute @p cycles to @p p without moving the phase mark
     *  (overlapping sub-interval, e.g. one NoC hop). */
    void
    add(TileId exec, uint32_t id, Phase p, uint64_t cycles)
    {
        if (!id)
            return;
        if (_deferCrossTile && tileOf(id) != exec) {
            _tiles[size_t(exec)].deferred.push_back(
                {id, OpKind::Add, p, Phase::Fill, cycles});
            return;
        }
        addNow(id, p, cycles);
    }

    /** Finish a record: residual time becomes @p residual, the
     *  end-to-end latency lands in Phase::Total, the slot recycles. */
    void
    close(TileId exec, uint32_t id, Tick now,
          Phase residual = Phase::Fill)
    {
        if (!id)
            return;
        if (_deferCrossTile && tileOf(id) != exec) {
            _tiles[size_t(exec)].deferred.push_back(
                {id, OpKind::Close, Phase::Total, residual, now});
            return;
        }
        closeNow(id, now, residual);
    }

    /** Live records over all tiles (folded in tile order). */
    size_t
    openRecords() const
    {
        size_t n = 0;
        for (const TileState &t : _tiles)
            n += t.open;
        return n;
    }

    /** Stale-handle touches over all tiles (folded in tile order). */
    uint64_t
    staleMarks() const
    {
        uint64_t n = 0;
        for (const TileState &t : _tiles)
            n += t.stale;
        return n;
    }

    /** Get-or-create the named top-down account (ordered by name). */
    TopDownAccount &topDown(const std::string &name);

    /** finalize() every account to @p end, then verify. */
    std::vector<std::string> finalizeTopDown(Tick end);

    /** Re-check every account without mutating (negative tests). */
    std::vector<std::string> verifyTopDown() const;

    const std::map<std::string, TopDownAccount> &topDownAccounts() const
    {
        return _topDown;
    }

    using PhaseHists = std::array<LatHist, numPhases>;
    /** Aggregates keyed (tile, sid), assembled from the per-tile maps
     *  in tile order; ordered for deterministic dumps. */
    std::map<std::pair<TileId, StreamId>, PhaseHists> aggregates() const;

    /** Register `profile.tile{N}` stat groups with p50/p95/max/mean
     *  formulas per (stream, phase); the profiler must outlive @p reg. */
    void registerStats(stats::StatRegistry &reg) const;

    /** Emit the "latency" / "topdown" / diagnostic members into an
     *  open JSON object. */
    void dumpJson(json::Writer &w) const;

    /** One-line summary object for the sweep merge: aggregate
     *  top-down split plus per-phase p95 across all tiles/streams. */
    void dumpSummaryJson(json::Writer &w) const;

  private:
    struct Rec
    {
        Tick openTick = 0;
        Tick lastMark = 0;
        PhaseHists *agg = nullptr;
        uint8_t gen = 0;
        bool live = false;
    };

    enum class OpKind : uint8_t { Mark, Add, Close };

    /** A cross-tile op captured at issue, applied at the barrier. */
    struct DeferredOp
    {
        uint32_t id;
        OpKind kind;
        Phase phase;    //!< mark/add target (unused for close)
        Phase residual; //!< close residual phase
        uint64_t value; //!< mark/close: now; add: cycles
    };

    /** All state owned by one tile. */
    struct TileState
    {
        std::vector<Rec> recs;
        std::vector<uint32_t> freeSlots;
        size_t open = 0;
        uint64_t stale = 0;
        std::map<StreamId, PhaseHists> agg;
        /** Ops this tile issued against other tiles' records. */
        std::vector<DeferredOp> deferred;
    };

    // Handle layout: [31:24] owner tile, [23:8] slot+1, [7:0] gen.
    static constexpr uint32_t tileShift = 24;
    static constexpr uint32_t slotShift = 8;
    static constexpr uint32_t slotMask = 0xffff;
    static constexpr uint32_t genMask = 0xff;
    static constexpr uint32_t maxTiles = 256;

    static TileId
    tileOf(uint32_t id)
    {
        return TileId(id >> tileShift);
    }

    Rec *
    resolve(uint32_t id)
    {
        if (!id)
            return nullptr;
        TileState &t = _tiles[size_t(tileOf(id))];
        uint32_t slot = ((id >> slotShift) & slotMask) - 1;
        if (slot >= t.recs.size() || !t.recs[slot].live ||
            t.recs[slot].gen != (id & genMask)) {
            ++t.stale;
            return nullptr;
        }
        return &t.recs[slot];
    }

    void markNow(uint32_t id, Phase p, Tick now);
    void addNow(uint32_t id, Phase p, uint64_t cycles);
    void closeNow(uint32_t id, Tick now, Phase residual);

    std::vector<TileState> _tiles;
    bool _deferCrossTile = false;
    std::map<std::string, TopDownAccount> _topDown;
};

/** Stable stream label used in stat groups and profile.json:
 *  "demand" for invalidStream, else "s<id>". */
std::string streamLabel(StreamId sid);

} // namespace prof
} // namespace sf

#endif // SF_SIM_PROFILE_HH
