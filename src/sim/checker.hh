/**
 * @file
 * Runtime invariant checker for the simulated protocol state.
 *
 * Components (via the system layer) register named invariant checks —
 * MESI directory consistency, NoC message conservation, stream
 * residence/credit-window rules — and the checker sweeps them
 * periodically and at end-of-sim drain. Any violation emits the
 * global diagnostic snapshot and fatal()s with ExitCode::
 * InvariantViolation (or DrainFailure for the drain sweep), so a
 * corrupted run can never silently produce numbers.
 *
 * Levels: Off (no checks, zero overhead), Basic (cheap structural
 * scans: stream tables, credit windows, drain residue), Full (adds
 * the expensive sweeps: full cache-array MESI walks and per-packet
 * NoC conservation tracking). Selected via SystemConfig::checkLevel
 * (the --check=off|basic|full option).
 */

#ifndef SF_SIM_CHECKER_HH
#define SF_SIM_CHECKER_HH

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/arg_parse.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace sf {

enum class CheckLevel : int
{
    Off = 0,
    Basic = 1,
    Full = 2,
};

inline const char *
checkLevelName(CheckLevel lvl)
{
    switch (lvl) {
      case CheckLevel::Off: return "off";
      case CheckLevel::Basic: return "basic";
      case CheckLevel::Full: return "full";
    }
    return "?";
}

inline CheckLevel
checkLevelFromString(const std::string &s)
{
    if (s == "off" || s == "0" || s == "none")
        return CheckLevel::Off;
    if (s == "basic" || s == "1")
        return CheckLevel::Basic;
    if (s == "full" || s == "2" || s == "strict")
        return CheckLevel::Full;
    throw UsageError("unknown check level '" + s + "' (off|basic|full)");
}

class Checker
{
  public:
    /** An invariant sweep; appends one message per violation found. */
    using CheckFn = std::function<void(std::vector<std::string> &)>;

    Checker(EventQueue &eq, CheckLevel level, Cycles interval = 50'000)
        : _eq(eq), _level(level), _interval(interval ? interval : 1),
          _tick(eq)
    {}

    ~Checker() { stop(); }

    CheckLevel level() const { return _level; }
    bool enabled() const { return _level > CheckLevel::Off; }

    /** Register a check that runs at @p minLevel and above. */
    void
    addCheck(const std::string &name, CheckLevel minLevel, CheckFn fn)
    {
        _checks.push_back({name, minLevel, std::move(fn)});
    }

    /** Begin periodic sweeps (no-op when the level is Off). */
    void
    start()
    {
        if (!enabled() || _running)
            return;
        _running = true;
        _tick.start(_interval, [this] { periodic(); },
                    EventPriority::Watch);
    }

    void
    stop()
    {
        _running = false;
        _tick.stop();
    }

    /**
     * Run every registered check at the current level right now;
     * fatal(@p code) listing all violations if any check fails.
     * @p phase labels the sweep in the error ("periodic", "drain").
     */
    void
    runAll(const char *phase,
           ExitCode code = ExitCode::InvariantViolation)
    {
        if (!enabled())
            return;
        std::vector<std::string> violations;
        for (const auto &c : _checks) {
            if (c.minLevel > _level)
                continue;
            size_t before = violations.size();
            c.fn(violations);
            ++_checksRun;
            for (size_t i = before; i < violations.size(); ++i)
                violations[i] = c.name + ": " + violations[i];
        }
        if (violations.empty())
            return;
        _violations += violations.size();
        for (const auto &v : violations)
            std::fprintf(stderr, "invariant violation: %s\n", v.c_str());
        fatalCode(code,
                  "%s invariant sweep at tick %llu found %zu "
                  "violation(s), first: %s",
                  phase, (unsigned long long)_eq.curTick(),
                  violations.size(), violations.front().c_str());
    }

    uint64_t checksRun() const { return _checksRun.value(); }

    void
    regStats(stats::StatGroup &g) const
    {
        g.regScalar("checks_run", &_checksRun);
        g.regScalar("violations", &_violations);
    }

    void
    debugDump(std::FILE *out) const
    {
        std::fprintf(out,
                     "checker: level=%s interval=%llu checks=%zu "
                     "sweeps_run=%llu\n",
                     checkLevelName(_level),
                     (unsigned long long)_interval, _checks.size(),
                     (unsigned long long)_checksRun.value());
    }

  private:
    struct CheckEntry
    {
        std::string name;
        CheckLevel minLevel;
        CheckFn fn;
    };

    void
    periodic()
    {
        if (!_running)
            return;
        // The recurring event re-queues itself for the next sweep.
        runAll("periodic");
    }

    EventQueue &_eq;
    CheckLevel _level;
    Cycles _interval;
    std::vector<CheckEntry> _checks;
    bool _running = false;
    /** Fixed-period sweep; requeues its own node, no closure rebuild. */
    RecurringEvent _tick;
    stats::Scalar _checksRun;
    stats::Scalar _violations;
};

} // namespace sf

#endif // SF_SIM_CHECKER_HH
