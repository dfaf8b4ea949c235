/**
 * @file
 * Centralized barrier used by the OpenMP-style workloads.
 */

#ifndef SF_CPU_BARRIER_HH
#define SF_CPU_BARRIER_HH

#include <functional>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/shard.hh"
#include "sim/sim_object.hh"

namespace sf {
namespace cpu {

/**
 * All participating cores must arrive before any is released. Arrival
 * and release are modelled with a small fixed signalling latency.
 *
 * Under tile-parallel simulation the controller is a global service
 * (DESIGN.md §4i): arrivals and retirements are deferred to the window
 * barrier and applied in canonical (tick, tile) order — the order a
 * serial run would observe them in — because which arrival completes
 * an episode determines the release tick. The release itself executes
 * on the global queue, which schedules each waiter's wake-up onto its
 * tile queue at exactly the release tick.
 */
class BarrierController : public SimObject
{
  public:
    BarrierController(EventQueue &eq, int num_threads,
                      Cycles signal_latency = 32)
        : SimObject("barrier", eq), _numThreads(num_threads),
          _signalLatency(signal_latency)
    {}

    /** Route arrive/retire through the PDES engine (null = legacy). */
    void setDomains(sim::TileDomains *d) { _domains = d; }

    /**
     * Thread on @p tile arrives; @p on_release fires in @p tile's
     * execution context (after the signalling latency) once every
     * thread has arrived.
     */
    void
    arrive(TileId tile, std::function<void()> on_release)
    {
        if (_domains) {
            Tick when = _domains->queueOf(tile).curTick();
            _domains->postGlobal(
                when, tile,
                [this, tile, when, cb = std::move(on_release)]() mutable {
                    arriveNow(tile, when, std::move(cb));
                });
        } else {
            arriveNow(tile, curTick(), std::move(on_release));
        }
    }

    /** A thread that finished all its work stops participating. */
    void
    retire(TileId tile)
    {
        if (_domains) {
            Tick when = _domains->queueOf(tile).curTick();
            _domains->postGlobal(when, tile,
                                 [this, when]() { retireNow(when); });
        } else {
            retireNow(curTick());
        }
    }

    uint64_t episodes() const { return _episodes; }

  private:
    using Waiter = std::pair<TileId, std::function<void()>>;

    void
    arriveNow(TileId tile, Tick when, std::function<void()> on_release)
    {
        _waiters.emplace_back(tile, std::move(on_release));
        if (static_cast<int>(_waiters.size()) >= _numThreads)
            releaseEpisode(when);
    }

    void
    retireNow(Tick when)
    {
        --_numThreads;
        sf_assert(_numThreads >= 0, "barrier underflow");
        if (_numThreads > 0 &&
            static_cast<int>(_waiters.size()) == _numThreads) {
            // The retirement may complete a pending episode.
            releaseEpisode(when);
        }
    }

    void
    releaseEpisode(Tick when)
    {
        ++_episodes;
        auto waiters = std::move(_waiters);
        _waiters.clear();
        // Always a future tick relative to the current window
        // boundary: the boundary trails the completing event by less
        // than the PDES lookahead, which is < the signal latency.
        eventQueue().schedule(
            when + _signalLatency,
            [this, waiters = std::move(waiters)]() {
                for (const Waiter &w : waiters) {
                    if (_domains)
                        _domains->scheduleTile(w.first, curTick(), 0,
                                               w.second,
                                               EventPriority::Default);
                    else
                        w.second();
                }
            });
    }

    int _numThreads;
    Cycles _signalLatency;
    sim::TileDomains *_domains = nullptr;
    std::vector<Waiter> _waiters;
    uint64_t _episodes = 0;
};

} // namespace cpu
} // namespace sf

#endif // SF_CPU_BARRIER_HH
