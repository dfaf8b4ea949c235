// sflint fixture: D2 positive — banned reads inside callbacks. One
// lambda goes to an event-queue scheduler; the other is registered
// through a plain call (a watchdog probe) and runs in simulated time
// all the same. D2 flags both without knowing which calls schedule.
#include <cstdlib>

struct FxQ
{
    template <typename F> void scheduleIn(long delay, F fn);
    template <typename F> void addProbe(const char *name, F fn);
};

inline void
fxArm(FxQ &q)
{
    q.scheduleIn(5, [] { return rand(); });
    q.addProbe("committedOps", [] { return std::getenv("FX_PROBE"); });
}
