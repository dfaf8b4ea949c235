/**
 * @file
 * Error-reporting helpers in the spirit of gem5's base/logging.hh.
 *
 * panic()     - the simulator itself is broken; aborts.
 * fatal()     - the user configuration is invalid; exits cleanly.
 * warn()      - something works well enough but deserves attention.
 * warn_once() - warn(), suppressed after the first hit per call site.
 * inform()    - status message.
 */

#ifndef SF_SIM_LOGGING_HH
#define SF_SIM_LOGGING_HH

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>

namespace sf {

/**
 * Process exit codes carried by FatalError so drivers (quickstart,
 * benches) can translate distinct failure classes into distinct shell
 * exit statuses. Values below 64 are left to conventional use.
 */
enum class ExitCode : int
{
    Success = 0,
    /** Generic fatal(): bad configuration or invalid arguments. */
    ConfigError = 1,
    /** Forward-progress watchdog fired: no component made progress. */
    WatchdogTimeout = 64,
    /** Invariant checker found a protocol violation. */
    InvariantViolation = 65,
    /** End-of-sim drain left residual state (MSHRs, packets, streams). */
    DrainFailure = 66,
    /** --verify: simulated memory diverged from the reference image. */
    VerifyDivergence = 67,
};

/** Thrown by fatal() so tests can assert on bad-config handling. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what,
                        ExitCode code = ExitCode::ConfigError)
        : std::runtime_error(what), _code(code)
    {}

    ExitCode code() const { return _code; }
    int exitStatus() const { return static_cast<int>(_code); }

  private:
    ExitCode _code;
};

/** Thrown by panic() so tests can assert on invariant violations. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &what)
        : std::logic_error(what)
    {}
};

namespace detail {

std::string formatMessage(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace detail

/**
 * Diagnostic-snapshot hooks: components (TiledSystem, watchdog,
 * checker, test fabrics) register callbacks that dump their state —
 * stat registries, stream tables, MSHR maps, event-queue heads — and
 * every fatal()/panic() replays them to stderr before throwing, so a
 * watchdog or invariant trip always leaves a usable post-mortem.
 */
using DiagnosticHook = std::function<void(std::FILE *)>;

/** Register a named hook; returns an id for removeDiagnosticHook(). */
int addDiagnosticHook(const std::string &name, DiagnosticHook fn);

/** Unregister a hook (no-op for unknown ids). */
void removeDiagnosticHook(int id);

/**
 * Replay all registered hooks to @p out. Re-entrancy safe: a hook that
 * itself panics cannot recurse into another diagnostic dump, and
 * hook exceptions are swallowed so the original error still reaches
 * the caller.
 */
void emitDiagnostics(std::FILE *out);

/**
 * Report an internal simulator bug and abort via exception.
 * Use for conditions that must never happen regardless of user input.
 */
template <typename... Args>
[[noreturn]] void
panic(const char *fmt, Args... args)
{
    std::string msg = detail::formatMessage(fmt, args...);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    emitDiagnostics(stderr);
    throw PanicError(msg);
}

/**
 * Report an unrecoverable user error (bad configuration, invalid
 * arguments) and terminate via exception.
 */
template <typename... Args>
[[noreturn]] void
fatal(const char *fmt, Args... args)
{
    std::string msg = detail::formatMessage(fmt, args...);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    emitDiagnostics(stderr);
    throw FatalError(msg);
}

/**
 * fatal() with an explicit exit code, for failure classes a driver
 * needs to distinguish (watchdog timeout, invariant violation, drain
 * failure). Emits the diagnostic snapshot like fatal().
 */
template <typename... Args>
[[noreturn]] void
fatalCode(ExitCode code, const char *fmt, Args... args)
{
    std::string msg = detail::formatMessage(fmt, args...);
    std::fprintf(stderr, "fatal[%d]: %s\n", static_cast<int>(code),
                 msg.c_str());
    emitDiagnostics(stderr);
    throw FatalError(msg, code);
}

/** Report a suspicious but survivable condition. */
template <typename... Args>
void
warn(const char *fmt, Args... args)
{
    std::string msg = detail::formatMessage(fmt, args...);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

/** Report normal operating status. */
template <typename... Args>
void
inform(const char *fmt, Args... args)
{
    std::string msg = detail::formatMessage(fmt, args...);
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

/**
 * warn(), but at most once per call site: the first occurrence prints
 * (tagged so readers know repeats are suppressed), later ones are
 * dropped. Use for conditions that can fire thousands of times in a
 * long run (credit stalls, capacity drops) without drowning stderr.
 */
#define warn_once(...)                                                     \
    do {                                                                   \
        static std::atomic<bool> _sf_warned_once{false};                   \
        if (!_sf_warned_once.exchange(true,                                \
                                      std::memory_order_relaxed)) {        \
            ::sf::warn("(repeats suppressed) " __VA_ARGS__);               \
        }                                                                  \
    } while (0)

/** panic() when a condition does not hold. */
#define sf_assert(cond, fmt, ...)                                          \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::sf::panic("assertion '" #cond "' failed: " fmt,              \
                        ##__VA_ARGS__);                                    \
        }                                                                  \
    } while (0)

} // namespace sf

#endif // SF_SIM_LOGGING_HH
