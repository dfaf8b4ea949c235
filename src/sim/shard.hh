/**
 * @file
 * The window loop: one tile queue and the global-service queue on top
 * of the calendar-wheel kernel (DESIGN.md §4i).
 *
 * Every tile event runs on one queue, in windows [start, E) with
 *
 *     E = min(earliest tile event + lookahead, earliest global
 *             service event + 1)
 *
 * where the lookahead is the mesh's minimum cross-tile latency
 * (router + link + 1 head flit). Between windows the loop runs the
 * barrier hook (the profiler's cross-tile flush), applies deferred
 * global-service operations in (when, src-tile) order, and runs the
 * global service queue (watchdog / checker / sampler / barrier
 * controller) up to the window's last tick. Mesh events carry a
 * canonical (src-tile, per-tile counter) key (EventQueue::scheduleKeyed),
 * so their same-tick order is a pure function of simulated history.
 */

#ifndef SF_SIM_SHARD_HH
#define SF_SIM_SHARD_HH

#include <functional>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace sf {
namespace sim {

/**
 * The tile queue and the window loop. One instance per TiledSystem;
 * components are wired to queue() at construction and runWindows()
 * replaces a plain step loop in TiledSystem::run().
 */
class TileDomains
{
  public:
    /**
     * @param global  queue for tile-agnostic services (watchdog,
     *                checker, sampler, barrier controller, drivers)
     * @param numTiles  tiles in the system (one key counter each)
     * @param lookahead  minimum cross-tile event-creation distance in
     *                cycles (router + link + 1); must be >= 1
     */
    TileDomains(EventQueue &global, int numTiles, Cycles lookahead);

    TileDomains(const TileDomains &) = delete;
    TileDomains &operator=(const TileDomains &) = delete;

    /** The queue every tile event runs on. */
    EventQueue &queue() { return _tiles; }

    /**
     * Canonical same-tick ordering key for an event scheduled by
     * @p tile: (tile, per-tile counter).
     */
    uint64_t
    nextKey(TileId tile)
    {
        return (uint64_t(tile) + 1) << 40 | _keyCnt[tile]++;
    }

    /**
     * Defer a global-service operation (e.g. a BarrierController
     * arrive/retire) to the end of the window, where all deferred ops
     * are applied in ascending (when, srcTile) order. @p when must be
     * the acting tile's current tick.
     */
    void postGlobal(Tick when, TileId srcTile, std::function<void()> op);

    /**
     * Hook run after every window, before the global queue's slice
     * (the profiler's cross-tile op flush).
     */
    void setBarrierHook(std::function<void()> fn) { _barrierHook = std::move(fn); }

    /** Why runWindows() returned. */
    enum class Exit
    {
        Stopped, //!< stop() returned true at a window boundary
        Empty,   //!< both queues drained
        Limit,   //!< the next event anywhere lies beyond the limit
    };

    /**
     * Run windows until @p stop returns true (checked at window
     * boundaries), both queues drain, or the earliest pending event
     * exceeds @p limit. On return both queues have executed everything
     * up to the final window boundary and the global queue clock is
     * advanced to that boundary. An exception thrown by a tile event
     * or a global service propagates to the caller.
     */
    Exit runWindows(const std::function<bool()> &stop, Tick limit);

  private:
    struct GlobalOp
    {
        Tick when;
        TileId srcTile;
        std::function<void()> op;
    };

    /** Apply the hook and global ops; run the global slice. */
    void windowBarrier(Tick windowEnd);

    EventQueue &_global;
    EventQueue _tiles;
    Cycles _lookahead;
    /** Per-tile canonical key counters. */
    std::vector<uint64_t> _keyCnt;
    std::vector<GlobalOp> _postGlobal;
    std::function<void()> _barrierHook;
};

} // namespace sim
} // namespace sf

#endif // SF_SIM_SHARD_HH
