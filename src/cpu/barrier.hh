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
#include "sim/sim_object.hh"

namespace sf {
namespace cpu {

/**
 * All participating cores must arrive before any is released. Arrival
 * and release are modelled with a small fixed signalling latency.
 *
 * Arrivals and retirements apply at once. The release is a system
 * service (DESIGN.md §4i): it runs at EventPriority::Service, after
 * every tile event of its tick, and calls each waiter inline in
 * arrival order.
 */
class BarrierController : public SimObject
{
  public:
    BarrierController(EventQueue &eq, int num_threads,
                      Cycles signal_latency = 32)
        : SimObject("barrier", eq), _numThreads(num_threads),
          _signalLatency(signal_latency)
    {}

    /**
     * A thread arrives; @p on_release fires (after the signalling
     * latency) once every thread has arrived.
     */
    void
    arrive(std::function<void()> on_release)
    {
        _waiters.push_back(std::move(on_release));
        if (static_cast<int>(_waiters.size()) >= _numThreads)
            releaseEpisode();
    }

    /** A thread that finished all its work stops participating. */
    void
    retire()
    {
        --_numThreads;
        sf_assert(_numThreads >= 0, "barrier underflow");
        if (_numThreads > 0 &&
            static_cast<int>(_waiters.size()) == _numThreads) {
            // The retirement may complete a pending episode.
            releaseEpisode();
        }
    }

    uint64_t episodes() const { return _episodes; }

  private:
    void
    releaseEpisode()
    {
        ++_episodes;
        scheduleIn(
            _signalLatency,
            [waiters = std::move(_waiters)]() {
                for (const std::function<void()> &w : waiters)
                    w();
            },
            EventPriority::Service);
        _waiters.clear();
    }

    int _numThreads;
    Cycles _signalLatency;
    std::vector<std::function<void()>> _waiters;
    uint64_t _episodes = 0;
};

} // namespace cpu
} // namespace sf

#endif // SF_CPU_BARRIER_HH
