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
 * including 1. Every host thread, the main thread included, loops
 * "arrive at the one window barrier, then run my shard if a window is
 * open". The barrier's completion step runs once all have arrived:
 * it merges cross-shard NoC messages (each carrying a canonical
 * (src-tile, seq) key, see EventQueue::scheduleKeyed), applies
 * deferred global-service operations in (when, src-tile) order, runs
 * the global service queue (watchdog / checker / sampler / barrier
 * controller), and opens the next window.
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
 * One std::barrier sized to the shard count separates windows. The
 * S-1 workers start with the object, park at the barrier between
 * runWindows() calls and stop with the object; the calling thread is
 * the shard-0 participant. With shards == 1 the barrier has that one
 * participant, so the serial and threaded paths are literally the
 * same code — identity by construction, not by luck.
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
     * @param shards  worker count (>= 1; clamped to @p numTiles)
     * @param lookahead  minimum cross-tile event-creation distance in
     *                cycles (router + link + 1); must be >= 1
     */
    TileDomains(EventQueue &global, int numTiles, int shards,
                Cycles lookahead);
    ~TileDomains();

    TileDomains(const TileDomains &) = delete;
    TileDomains &operator=(const TileDomains &) = delete;

    int shards() const { return int(_shardQ.size()); }

    int shardOf(TileId t) const { return int(t) % shards(); }
    EventQueue &queueOf(TileId t) { return *_shardQ[shardOf(t)]; }
    EventQueue &shardQueue(int s) { return *_shardQ[s]; }

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
     * context. Same-shard (or outside a parallel window, e.g. from
     * the global queue) the event is inserted directly; cross-shard
     * it is appended to the calling shard's outbox and merged at the
     * window barrier. Either way the canonical @p key makes the
     * resulting execution order identical.
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
     * Hook run at every window barrier, before the global queue's
     * slice (the profiler's cross-tile op flush).
     */
    void setBarrierHook(std::function<void()> fn) { _barrierHook = std::move(fn); }

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
     * clock is advanced to that boundary (deterministically). An
     * exception thrown by a shard event or a global service stops the
     * run and is rethrown here (the lowest shard's first, if several).
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

    /** The barrier's completion step (std::barrier needs noexcept). */
    struct WindowStep
    {
        TileDomains *domains;
        void operator()() noexcept { domains->completeWindow(); }
    };

    /** Run one shard's queue up to the window end, capturing errors. */
    void runShardSlice(int shard) SF_SHARD_LOCAL;
    /** Worker thread body: arrive, then run the shard's slice. */
    void workerLoop(int shard) SF_SHARD_LOCAL;
    /** Release every worker from the barrier and join it. */
    void stopWorkers();
    /**
     * Runs on one thread while every other participant waits at the
     * barrier: close the window that just ran (collect errors, merge),
     * then open the next one or end the run.
     */
    void completeWindow() noexcept SF_BARRIER_ONLY;
    /** Merge outboxes / global ops; run the global slice. */
    void windowBarrier(Tick windowEnd) SF_BARRIER_ONLY;
    /** Set _windowEnd for the next window, or _exit if there is none. */
    bool openWindow() SF_BARRIER_ONLY;

    EventQueue &_global;
    Cycles _lookahead;
    std::vector<std::unique_ptr<EventQueue>> _shardQ;
    /** Per-tile canonical key counters (owned by the tile's shard). */
    std::vector<uint64_t> _keyCnt SF_SHARD_LOCAL;

    /** Per-shard cross-shard outboxes (owner-append, barrier-drain). */
    std::vector<std::vector<OutboxEntry>> _outbox;
    /** Per-shard deferred global-service ops. */
    std::vector<std::vector<GlobalOp>> _postGlobal;
    /** Per-shard slice exceptions (owner-write, barrier-read). */
    std::vector<std::exception_ptr> _errors;
    std::function<void()> _barrierHook;

    // Requests from the calling thread, written before it arrives.
    const std::function<bool()> *_stop = nullptr;
    Tick _limit = maxTick;
    bool _quitRequested = false;

    // Window state: written only by the completion step, while every
    // participant waits, and read by all of them after it.
    Tick _windowEnd = 0;
    bool _inWindow = false;
    bool _quit = false;
    Exit _exit = Exit::Empty;
    std::exception_ptr _error;

    std::barrier<WindowStep> _barrier;
    std::vector<std::thread> _workers;
};

} // namespace sim
} // namespace sf

#endif // SF_SIM_SHARD_HH
