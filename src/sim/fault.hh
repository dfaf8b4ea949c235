/**
 * @file
 * Deterministic seeded fault injection for the stream-floating
 * control protocol.
 *
 * A FaultConfig is parsed from a `--faults=` spec and describes which
 * stream control messages (float/config requests, credit grants, end
 * notifications, acks) to drop, delay, or duplicate, plus two
 * structural faults: forcing SE_L3 stream-table overflows and
 * disabling the SE_L2 retry/fallback machinery (so hangs that the
 * graceful-degradation path would mask become watchdog-visible).
 *
 * The FaultInjector draws every decision from its own xoshiro256**
 * stream seeded from the config, so the same spec on the same workload
 * produces the same fault schedule on every run.
 */

#ifndef SF_SIM_FAULT_HH
#define SF_SIM_FAULT_HH

#include <cstdint>
#include <string>

#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace sf {

/** Classification of a stream control message crossing the mesh. */
enum class FaultClass
{
    FloatRequest = 0, ///< StreamFloatMsg (config or migration)
    CreditGrant = 1,  ///< StreamCreditMsg
    StreamEnd = 2,    ///< StreamEndMsg
    StreamAck = 3,    ///< StreamAckMsg (ack / NACK)
};

constexpr int numFaultClasses = 4;

const char *faultClassName(FaultClass cls);

/** What the injector decided to do with one message. */
enum class FaultAction
{
    None,
    Drop,
    Delay,
    Duplicate,
};

/**
 * Parsed `--faults=` spec. Grammar: comma-separated tokens
 *
 *   seed:N          RNG seed for the fault schedule (default 1)
 *   dropfloat:P     drop each float/migration request with prob P
 *   dropcredit:P    drop each credit grant with prob P
 *   dropend:P       drop each stream-end notification with prob P
 *   dropack:P       drop each float ack/NACK with prob P
 *   dupfloat:P dupcredit:P dupend:P dupack:P   duplicate instead
 *   delay:P         delay any stream control message with prob P
 *   delaycycles:N   added latency for delayed messages (default 200)
 *   overflow[:N]    clamp every SE_L3 stream table to N entries (1)
 *   noretry         disable SE_L2 ack-timeout retry and fallback
 *   none            explicit no-op spec
 *
 * Probabilities are in [0,1]. An unknown token or a malformed value
 * throws a UsageError.
 */
struct FaultConfig
{
    uint64_t seed = 1;
    double drop[numFaultClasses] = {0, 0, 0, 0};
    double dup[numFaultClasses] = {0, 0, 0, 0};
    double delayProb = 0.0;
    Cycles delayCycles = 200;
    /** When > 0, clamp SEL3Config::maxStreams to this many entries. */
    int overflowEntries = 0;
    /** Disable the SE_L2 retry/sink fallback (hangs become visible). */
    bool noRetry = false;

    /** Any message-level fault (drop/dup/delay) configured? */
    bool
    messageFaults() const
    {
        if (delayProb > 0)
            return true;
        for (int i = 0; i < numFaultClasses; ++i) {
            if (drop[i] > 0 || dup[i] > 0)
                return true;
        }
        return false;
    }

    bool
    enabled() const
    {
        return messageFaults() || overflowEntries > 0 || noRetry;
    }

    static FaultConfig parse(const std::string &spec);

    /** Human-readable one-line summary (for logs and stats dumps). */
    std::string describe() const;
};

/**
 * Draws per-message fault decisions from a private seeded RNG and
 * counts what it did. Install at the mesh injection point via
 * Mesh::setSendInterceptor from the system layer (the NoC itself must
 * not know about stream message types).
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &cfg)
        : _cfg(cfg), _rng(cfg.seed)
    {}

    const FaultConfig &config() const { return _cfg; }

    /** Decide the fate of one control message of class @p cls. */
    FaultAction
    decide(FaultClass cls)
    {
        int i = static_cast<int>(cls);
        // Fixed draw order keeps the schedule deterministic even when
        // several fault kinds are configured at once.
        if (_cfg.drop[i] > 0 && _rng.chance(_cfg.drop[i])) {
            ++_dropped[i];
            return FaultAction::Drop;
        }
        if (_cfg.dup[i] > 0 && _rng.chance(_cfg.dup[i])) {
            ++_duplicated[i];
            return FaultAction::Duplicate;
        }
        if (_cfg.delayProb > 0 && _rng.chance(_cfg.delayProb)) {
            ++_delayed;
            return FaultAction::Delay;
        }
        return FaultAction::None;
    }

    Cycles delayCycles() const { return _cfg.delayCycles; }

    uint64_t
    totalInjected() const
    {
        uint64_t n = _delayed.value();
        for (int i = 0; i < numFaultClasses; ++i)
            n += _dropped[i].value() + _duplicated[i].value();
        return n;
    }

    void
    regStats(stats::StatGroup &g) const
    {
        for (int i = 0; i < numFaultClasses; ++i) {
            std::string cls = faultClassName(static_cast<FaultClass>(i));
            g.regScalar("dropped_" + cls, &_dropped[i]);
            g.regScalar("duplicated_" + cls, &_duplicated[i]);
        }
        g.regScalar("delayed", &_delayed);
    }

    void debugDump(std::FILE *out) const;

  private:
    FaultConfig _cfg;
    Rng _rng;
    stats::Scalar _dropped[numFaultClasses];
    stats::Scalar _duplicated[numFaultClasses];
    stats::Scalar _delayed;
};

} // namespace sf

#endif // SF_SIM_FAULT_HH
