/**
 * @file
 * Execution-driven core models: a scoreboarded in-order core (IO4) and
 * a dataflow-scheduled out-of-order core (OOO4 / OOO8).
 *
 * The core consumes the stream-annotated op sequence of one OpSource.
 * Dependences are explicit (relative back-references), so the OOO model
 * issues any ready op inside its ROB window subject to IQ/LQ/SQ/FU and
 * width limits, while the in-order model issues strictly in program
 * order with overlapping completion (loads stall at first use).
 *
 * Decoupled-stream semantics follow §III: the iteration map advances at
 * dispatch (program order), stream FIFO data is consumed by
 * stream_load, and architectural effects (configure, end, FIFO
 * release, store alias checks) happen at commit.
 */

#ifndef SF_CPU_CORE_HH
#define SF_CPU_CORE_HH

#include <array>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cpu/barrier.hh"
#include "cpu/core_config.hh"
#include "cpu/stream_engine_if.hh"
#include "isa/op_source.hh"
#include "mem/priv_cache.hh"
#include "mem/tlb.hh"
#include "sim/profile.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace sf {

namespace verify {
class DataPlane;
struct StoreRec;
} // namespace verify

namespace cpu {

struct CoreStats
{
    stats::Scalar committedOps;
    stats::Scalar committedLoads, committedStores;
    stats::Scalar committedStreamLoads, committedStreamStores;
    stats::Scalar intOps, fpOps;
    stats::Scalar barriers;
    /** Cycle the core finished its op stream. */
    Tick doneTick = 0;
    stats::Scalar robFullStalls, sbFullStalls;

    /** Register every counter with @p g for report dumping. */
    void
    regStats(stats::StatGroup &g) const
    {
        g.regScalar("committedOps", &committedOps);
        g.regScalar("committedLoads", &committedLoads);
        g.regScalar("committedStores", &committedStores);
        g.regScalar("committedStreamLoads", &committedStreamLoads);
        g.regScalar("committedStreamStores", &committedStreamStores);
        g.regScalar("intOps", &intOps);
        g.regScalar("fpOps", &fpOps);
        g.regScalar("barriers", &barriers);
        g.regScalar("robFullStalls", &robFullStalls);
        g.regScalar("sbFullStalls", &sbFullStalls);
    }
};

/** One hardware thread's pipeline. */
class Core : public SimObject
{
  public:
    Core(const std::string &name, EventQueue &eq, TileId tile,
         const CoreConfig &cfg, mem::PrivCache &cache,
         mem::TlbHierarchy &tlb, mem::AddressSpace &as,
         BarrierController *barrier, isa::OpSource *source);

    /** Attach the SE_core (required when the source emits stream ops). */
    void setStreamEngine(StreamEngineIf *se) { _se = se; }

    /**
     * Enable latency attribution: demand accesses get lifecycle
     * records and every pipeline cycle lands in this core's top-down
     * account (null = off, the default).
     */
    void
    setProfiler(prof::Profiler *p)
    {
        _prof = p;
        _td = p ? &p->topDown(name()) : nullptr;
    }

    /**
     * Attach the --verify data plane. Commit then runs an in-order
     * shadow interpreter: every op's value is computed at commit in
     * program order (verify/value.hh semantics), stores enter the
     * plane's overlay, and loads observe protocol-routed bytes.
     */
    void setVerify(verify::DataPlane *v);

    /** Begin execution (schedules the first pipeline tick). */
    void start();

    bool done() const { return _done; }
    CoreStats &stats() { return _stats; }
    const CoreStats &stats() const { return _stats; }
    TileId tile() const { return _tile; }
    const CoreConfig &config() const { return _cfg; }

    /** Invoked once when the op stream fully commits. */
    std::function<void()> onDone;

    /** Dump pipeline state (debugging aid). */
    void debugDump(std::FILE *f) const;

    /**
     * Wake the pipeline from quiescence (called by completion paths;
     * public so the stream engine can wake the core on FIFO refills).
     */
    void wake();

    /**
     * True while the core sleeps with stores in flight, standing in for
     * a core that polls every cycle until they drain (DESIGN.md §4k).
     */
    bool parkedOnStores() const { return _parkedAt != maxTick; }

    /**
     * A run cut at the current tick: charge the per-cycle stall
     * counters and top-down account for the polls a core parked on
     * stores skipped, up to and including this cycle.
     */
    void settle();

  private:
    struct RobEntry
    {
        isa::Op op;
        uint64_t seq = 0;
        /**
         * Issue blockers still open: producers not yet completed, plus
         * one for a StreamLoad whose FIFO data has not arrived. The
         * entry joins the ready set when this reaches zero.
         */
        int waiting = 0;
        bool completed = false;
        /** StreamLoad: FIFO data available. */
        bool dataReady = false;
        /** StreamStore/Store resolved virtual address. */
        Addr storeVaddr = 0;
        /** StreamLoad: first element index consumed (--verify). */
        uint64_t streamFirstElem = 0;
    };

    void tick();

    /** Returns true if any op was committed. */
    bool commitStage();
    /** Returns true if any op issued. */
    bool issueStage();
    /** Returns true if any op dispatched. */
    bool dispatchStage();
    /** Drain one store-buffer entry to the L1; true if one issued. */
    bool drainStoreBuffer();

    bool tryIssue(RobEntry &e);

    /** Live ROB entries: seqs [_headSeq, _nextSeq). */
    uint64_t robCount() const { return _nextSeq - _headSeq; }
    /** The live entry with sequence number @p seq (O(1) ring lookup). */
    RobEntry &robAt(uint64_t seq);
    const RobEntry &robAt(uint64_t seq) const;
    /** Close one of @p e's issue blockers; ready when none is left. */
    void release(RobEntry &e);
    /**
     * First ready seq in [@p seq, _nextSeq), or _nextSeq if none; adds
     * the unissued entries passed over on the way to @p skipped.
     */
    uint64_t nextReady(uint64_t seq, int &skipped) const;

    /** Top-down bucket for the cycle that just executed. */
    prof::Bucket classifyCycle(bool committed) const;

    /**
     * Issue a demand access, splitting on virtual line boundaries
     * (physical frames are scrambled, so each virtual line translates
     * independently).
     */
    void issueMemAccess(Addr vaddr, uint16_t size, bool is_write,
                        uint32_t pc, bool stream_eligible,
                        std::function<void()> on_done,
                        std::shared_ptr<verify::StoreRec> vrec = nullptr);

    /** --verify: value of @p e under the shared value semantics. */
    uint64_t verifyValueFor(const RobEntry &e);
    /**
     * @p e finishes executing @p extra_latency cycles from now: at once
     * for 0, else at the start of that cycle's tick (the completion
     * ring, DESIGN.md §4k).
     */
    void complete(RobEntry &e, Cycles extra_latency);
    /** @p seq finished executing: wake the consumers chained on it. */
    void markCompleted(uint64_t seq);
    /**
     * Tick a sleeping core at @p when (at most dueSlots - 1 ahead): one
     * ClockTick event per tick, a no-op if a wake() got there first.
     */
    void wakeAt(Tick when);
    /** Earliest tick with a ring completion queued (_dueMask != 0). */
    Tick nextDue() const;
    /** Add @p polls skipped cycles to the stall counters of the park. */
    void chargeParkedPolls(uint64_t polls);

    void refillFetchBuffer();
    void finishIfDrained();

    /** FU availability this cycle. */
    struct FuState
    {
        int intAluUsed = 0;
        int multDivUsed = 0;
        int fpAluUsed = 0;
        int fpDivUsed = 0;
        int memPortsUsed = 0;
        /** Non-pipelined divider busy-until horizons. */
        std::vector<Tick> intDivBusy;
        std::vector<Tick> fpDivBusy;
    };

    bool fuAvailable(isa::OpKind kind, Tick now, Tick &earliest);
    void fuOccupy(isa::OpKind kind, Tick now);

    CoreConfig _cfg;
    TileId _tile;
    mem::PrivCache &_cache;
    mem::TlbHierarchy &_tlb;
    mem::AddressSpace &_as;
    BarrierController *_barrier;
    isa::OpSource *_source;
    StreamEngineIf *_se = nullptr;

    /**
     * ROB ring: seq s lives in slot s & _robMask. The ring has at least
     * robSize + 1 slots (a power of two, >= 64), and seqs are
     * contiguous, so a live entry is found by seq in O(1).
     */
    std::vector<RobEntry> _rob;
    uint64_t _robMask = 0;
    uint64_t _headSeq = 1;
    uint64_t _nextSeq = 1;

    /**
     * Wakeup chains, allocation-free: link l = consumerSlot * maxSrcs +
     * srcIndex. _waitHead[p] is the first link waiting on the producer
     * in slot p (-1 = none) and _waitNext[l] the link after l.
     */
    std::vector<int32_t> _waitHead;
    std::vector<int32_t> _waitNext;

    /**
     * Issue window bitsets over ROB slots: every dispatched,
     * not-yet-issued entry, and the subset with no open blocker.
     */
    std::vector<uint64_t> _unissued;
    std::vector<uint64_t> _ready;

    /** Fetched ops; those from _fetchHead on await dispatch. */
    std::vector<isa::Op> _fetchBuf;
    size_t _fetchHead = 0;
    bool _sourceExhausted = false;

    /** Committed stores waiting to drain from the store buffer. */
    struct PendingStore
    {
        Addr vaddr;
        uint16_t size;
        /** --verify: overlay record to apply at the write point. */
        std::shared_ptr<verify::StoreRec> vrec;
    };
    std::deque<PendingStore> _pendingStores;

    /** --verify: committed value per seq, indexed by seq % 2^16 (the
     *  largest back-reference). */
    verify::DataPlane *_verify = nullptr;
    std::vector<uint64_t> _valueRing;

    /** In-flight load/store queue occupancy (freed at commit). */
    int _lqInUse = 0;
    int _sqInUse = 0;
    /** Store buffer entries draining to L1. */
    int _sbInUse = 0;

    FuState _fu;

    /**
     * Completion ring: the seqs whose fixed latency ends at tick t wait
     * in slot t % dueSlots until that tick's pipeline tick. Latencies
     * are below dueSlots, so a slot never holds two ticks.
     */
    static constexpr unsigned dueSlots = 16;
    std::array<std::vector<uint64_t>, dueSlots> _due;
    /** Slots of _due that hold seqs. */
    uint16_t _dueMask = 0;
    /** Slots with a wakeAt() tick queued for their tick. */
    uint16_t _wakeMask = 0;

    /**
     * Tick of the no-progress pipeline tick after which the core went
     * to sleep with stores in flight (maxTick when not parked), and
     * which per-cycle stall limits that tick hit. A core polling every
     * cycle would hit the same limits in each cycle it sleeps through.
     */
    Tick _parkedAt = maxTick;
    bool _parkedRobFull = false;
    bool _parkedSbFull = false;

    /** Cycle of the most recent pipeline tick (one tick per cycle). */
    Tick _lastTickAt = maxTick;
    bool _ticking = false;
    bool _sleeping = false;
    bool _done = false;

    prof::Profiler *_prof = nullptr;
    prof::TopDownAccount *_td = nullptr;
    /** Dispatch broke on SE flow-control credits this cycle. */
    bool _dispatchCreditStall = false;

    CoreStats _stats;
};

} // namespace cpu
} // namespace sf

#endif // SF_CPU_CORE_HH
