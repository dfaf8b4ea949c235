/**
 * @file
 * Forward-progress watchdog for the event-driven kernel.
 *
 * The owner registers named monotonic progress probes (committed ops,
 * stream elements served, NoC flits moved) and the watchdog samples
 * them every `interval` cycles. If one full interval passes in which
 * no probe advanced, the simulation is wedged — a protocol message was
 * lost, a credit deadlock formed, or an engine is waiting on an event
 * that will never fire — so the watchdog emits the global diagnostic
 * snapshot (logging.hh hooks) and fatal()s with ExitCode::
 * WatchdogTimeout. Complementary end-of-sim drain checks live in the
 * invariant checker (checker.hh).
 *
 * The watchdog's own event keeps the queue non-empty, so owners must
 * stop() it once the run completes (TiledSystem does) to let the
 * post-run drain see an empty queue.
 */

#ifndef SF_SIM_WATCHDOG_HH
#define SF_SIM_WATCHDOG_HH

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace sf {

class Watchdog
{
  public:
    /** Reads one monotonic progress counter. */
    using Probe = std::function<uint64_t()>;

    Watchdog(EventQueue &eq, Cycles interval)
        : _eq(eq), _interval(interval ? interval : 1), _tick(eq)
    {}

    ~Watchdog() { stop(); }

    void
    addProbe(const std::string &name, Probe fn)
    {
        _probes.push_back({name, std::move(fn), 0});
    }

    /** Take the initial snapshot and schedule the first check. */
    void
    start()
    {
        if (_running)
            return;
        _running = true;
        _lastProgress = _eq.curTick();
        for (auto &p : _probes)
            p.last = p.fn();
        // Last in its tick (DESIGN.md §4i), so a check at tick T
        // observes everything that happened at T first.
        _tick.start(_interval, [this] { check(); }, EventPriority::Watch);
    }

    /** Cancel the pending check; safe to call repeatedly. */
    void
    stop()
    {
        _running = false;
        _tick.stop();
    }

    bool running() const { return _running; }
    Cycles interval() const { return _interval; }

    void
    debugDump(std::FILE *out) const
    {
        std::fprintf(out,
                     "watchdog: interval=%llu last_progress_tick=%llu "
                     "now=%llu\n",
                     (unsigned long long)_interval,
                     (unsigned long long)_lastProgress,
                     (unsigned long long)_eq.curTick());
        for (const auto &p : _probes) {
            std::fprintf(out, "  probe %-24s last=%llu now=%llu\n",
                         p.name.c_str(), (unsigned long long)p.last,
                         (unsigned long long)p.fn());
        }
    }

  private:
    struct ProbeEntry
    {
        std::string name;
        Probe fn;
        uint64_t last;
    };

    void
    check()
    {
        if (!_running)
            return;
        bool progressed = false;
        for (auto &p : _probes) {
            uint64_t v = p.fn();
            if (v != p.last) {
                p.last = v;
                progressed = true;
            }
        }
        if (progressed) {
            // The recurring event re-queues itself for the next check.
            _lastProgress = _eq.curTick();
            return;
        }
        fatalCode(ExitCode::WatchdogTimeout,
                  "watchdog: no forward progress for %llu cycles "
                  "(last progress at tick %llu, now %llu); the "
                  "simulation is wedged",
                  (unsigned long long)_interval,
                  (unsigned long long)_lastProgress,
                  (unsigned long long)_eq.curTick());
    }

    EventQueue &_eq;
    Cycles _interval;
    std::vector<ProbeEntry> _probes;
    bool _running = false;
    Tick _lastProgress = 0;
    /** Fixed-period check; requeues its own node, no closure rebuild. */
    RecurringEvent _tick;
};

} // namespace sf

#endif // SF_SIM_WATCHDOG_HH
