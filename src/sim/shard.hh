/**
 * @file
 * Tile-parallel conservative-lookahead PDES on top of the calendar-
 * wheel kernel (DESIGN.md §4i).
 *
 * The mesh's minimum cross-tile latency (router + link + 1 head flit)
 * defines a safe synchronization quantum: an event executing at tick
 * t on one tile can only create events on *other* tiles at t +
 * lookahead or later. Tiles are therefore partitioned into shards,
 * each with its own EventQueue, and all shards run independently
 * inside a window [start, E) with
 *
 *     E = min(earliest shard event + lookahead, earliest global
 *             service event + 1)
 *
 * computed from the union of all queues — a partition-independent
 * quantity, so window boundaries are identical for any shard count,
 * including 1. At the window barrier the main thread merges cross-
 * shard NoC messages (each carrying a canonical (src-tile, seq) key,
 * see EventQueue::scheduleKeyed), applies deferred global-service
 * operations in (when, src-tile) order, runs the global service
 * queue (watchdog / checker / sampler / barrier controller), and
 * releases the next window.
 *
 * Determinism argument (short form; full version in DESIGN.md §4i):
 * per-tile event sequences are shard-count-invariant by induction —
 * a tile's next event depends only on its own state and on messages
 * whose arrival keys are canonical — and every mutable structure is
 * either tile-owned, folded over tiles in fixed order at read time,
 * or deferred to the barrier and applied in a canonical order.
 * `--threads=N` is therefore byte-identical to `--threads=1`, which
 * the smoke_threads ctest enforces end to end.
 */

#ifndef SF_SIM_SHARD_HH
#define SF_SIM_SHARD_HH

#include <barrier>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/annotations.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace sf {
namespace sim {

/**
 * Shard partition, per-shard event queues, and the quantum-barrier
 * window loop. One instance per TiledSystem; components are wired to
 * queueOf(tile) at construction and the window loop replaces the
 * serial step loop in TiledSystem::run().
 *
 * With shards == 1 the same engine runs single-threaded (no worker
 * threads, no synchronization), so the serial and threaded paths are
 * literally the same code — identity by construction, not by luck.
 */
class TileDomains
{
  public:
    using Handler = EventQueue::Handler;

    /**
     * @param global  queue for tile-agnostic services (watchdog,
     *                checker, sampler, barrier controller, drivers)
     * @param numTiles  tiles in the system; tile t lives on shard
     *                t % shards
     * @param shards  worker count (>= 1)
     * @param lookahead  minimum cross-tile event-creation distance in
     *                cycles (router + link + 1); must be >= 1
     */
    TileDomains(EventQueue &global, int numTiles, int shards,
                Cycles lookahead);
    ~TileDomains();

    TileDomains(const TileDomains &) = delete;
    TileDomains &operator=(const TileDomains &) = delete;

    int shards() const { return int(_shardQ.size()); }
    int numTiles() const { return _numTiles; }
    Cycles lookahead() const { return _lookahead; }

    int shardOf(TileId t) const { return int(t) % shards(); }
    EventQueue &queueOf(TileId t) { return *_shardQ[shardOf(t)]; }
    EventQueue &shardQueue(int s) { return *_shardQ[s]; }
    EventQueue &globalQueue() { return _global; }

    /**
     * Canonical same-tick ordering key for an event scheduled by
     * @p tile: (tile, per-tile counter). Call only from @p tile's own
     * execution context (its shard thread).
     */
    uint64_t
    nextKey(TileId tile) SF_SHARD_LOCAL
    {
        return (uint64_t(tile) + 1) << 40 | _keyCnt[tile]++;
    }

    /**
     * Schedule onto @p target tile's queue from any execution
     * context. Same-shard (or outside a parallel window) the event is
     * inserted directly; cross-shard it is appended to the calling
     * shard's outbox and merged at the window barrier. Either way the
     * canonical @p key makes the resulting execution order identical.
     */
    void scheduleTile(TileId target, Tick when, uint64_t key,
                      Handler fn,
                      EventPriority prio = EventPriority::Delivery);

    /**
     * Defer a global-service operation (e.g. a BarrierController
     * arrive/retire) to the window barrier, where all deferred ops are
     * applied in ascending (when, srcTile) order — a canonical order
     * no shard interleaving can perturb. @p when must be the acting
     * tile's current tick.
     */
    void postGlobal(Tick when, TileId srcTile, std::function<void()> op);

    /**
     * Defer a callback into @p tile's queue at the current window
     * boundary (global services only; used by the barrier controller
     * to wake waiters at the release tick).
     */
    void deferWake(TileId tile, Handler fn);

    /**
     * Hook run on the main thread at every window barrier, before the
     * global queue's slice (the profiler's cross-tile op flush).
     */
    void setBarrierHook(std::function<void()> fn) { _barrierHook = std::move(fn); }

    /** True while shards are executing a window concurrently. */
    bool inParallelWindow() const { return _inWindow; }

    /** Earliest live event over all shard queues (maxTick if none). */
    Tick earliestShardTick();

    /** Why runWindows() returned. */
    enum class Exit
    {
        Stopped, //!< stop() returned true at a window boundary
        Empty,   //!< every queue (shards + global) drained
        Limit,   //!< the next event anywhere lies beyond the limit
    };

    /**
     * Run quantum windows until @p stop returns true (checked at
     * window boundaries), every queue drains, or the earliest pending
     * event exceeds @p limit. On return all queues have executed
     * everything up to the final window boundary and the global queue
     * clock is advanced to that boundary (deterministically).
     */
    Exit runWindows(const std::function<bool()> &stop, Tick limit);

    /** Events executed across all shard queues. */
    uint64_t
    shardEventsExecuted() const
    {
        uint64_t n = 0;
        for (const auto &q : _shardQ)
            n += q->numExecuted();
        return n;
    }

    /** Live pending events across all shard queues. */
    uint64_t
    shardEventsPending() const
    {
        uint64_t n = 0;
        for (const auto &q : _shardQ)
            n += q->numPending();
        return n;
    }

  private:
    struct OutboxEntry
    {
        TileId target;
        Tick when;
        uint64_t key;
        EventPriority prio;
        Handler fn;
    };

    struct GlobalOp
    {
        Tick when;
        TileId srcTile;
        std::function<void()> op;
    };

    /** Run one shard's queue up to the window end, capturing errors. */
    void runShardSlice(int shard) SF_SHARD_LOCAL;
    void workerLoop(int shard) SF_SHARD_LOCAL;
    void startWorkers();
    void stopWorkers();
    /** Merge outboxes / global ops / wakes; run the global slice. */
    void windowBarrier(Tick windowEnd) SF_BARRIER_ONLY;
    void rethrowWorkerError();

    EventQueue &_global;
    int _numTiles;
    Cycles _lookahead;
    std::vector<std::unique_ptr<EventQueue>> _shardQ;
    /** Per-tile canonical key counters (owned by the tile's shard). */
    std::vector<uint64_t> _keyCnt SF_SHARD_LOCAL;

    /** Per-shard cross-shard outboxes (owner-append, barrier-drain). */
    std::vector<std::vector<OutboxEntry>> _outbox;
    /** Per-shard deferred global-service ops. */
    std::vector<std::vector<GlobalOp>> _postGlobal;
    /** Barrier-phase wakes to insert at the window boundary. */
    std::vector<std::pair<TileId, Handler>> _wakes;
    std::function<void()> _barrierHook;

    // --- worker pool (only with shards > 1) ---
    std::vector<std::thread> _workers;
    std::unique_ptr<std::barrier<>> _startBarrier;
    std::unique_ptr<std::barrier<>> _endBarrier;
    std::vector<std::exception_ptr> _errors;
    Tick _windowEnd = 0;
    bool _inWindow = false;
    bool _shutdown = false;
    bool _workersStarted = false;
};

} // namespace sim
} // namespace sf

#endif // SF_SIM_SHARD_HH
