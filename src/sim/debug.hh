/**
 * @file
 * Runtime debug-flag tracing, in the spirit of gem5's DPRINTF.
 *
 * A fixed registry of named flags gates per-component trace output.
 * Flags are enabled at runtime through the SF_DEBUG_FLAGS environment
 * variable (comma-separated names, "All" for everything) or through the
 * sf::debug API. The SF_DPRINTF macro stamps every line with the
 * current tick and the emitting SimObject's name, and compiles down to
 * a single well-predicted branch when its flag is disabled.
 */

#ifndef SF_SIM_DEBUG_HH
#define SF_SIM_DEBUG_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace sf {
namespace debug {

/** The debug-flag universe. One bit of the global mask per flag. */
enum class Flag : uint32_t
{
    Cache,       //!< private L1/L2 hierarchy and shared L3 banks
    NoC,         //!< mesh packet injection and routing
    StreamFloat, //!< SE_core / SE_L2 float, sink and credit decisions
    SEL3,        //!< L3-bank stream engines (issue, migrate, confluence)
    DRAM,        //!< memory controllers
    Core,        //!< core pipeline milestones (start, done, barriers)
    NumFlags,
};

constexpr size_t numFlags = static_cast<size_t>(Flag::NumFlags);

/** Bitmask of enabled flags; read via enabled() on every SF_DPRINTF. */
extern uint64_t flagMask;

/** Single-branch fast path: is this flag enabled? */
inline bool
enabled(Flag f)
{
    return flagMask & (uint64_t(1) << static_cast<uint32_t>(f));
}

/** Canonical name of a flag. */
const char *flagName(Flag f);

/** All registered flag names (help text, tests). */
std::vector<std::string> allFlagNames();

/** Resolve a flag by name; false when unknown. */
bool parseFlag(const std::string &name, Flag &out);

/** Enable / disable one flag by name; false when unknown. */
bool enable(const std::string &name);
bool disable(const std::string &name);

void enable(Flag f);
void disable(Flag f);
void enableAll();
void disableAll();

/**
 * Apply a comma-separated spec ("Cache,StreamFloat", "All",
 * "All,-NoC"). Unknown names are reported on stderr and skipped.
 * @return the number of names applied.
 */
size_t setFlagsFromString(const std::string &spec);

/** Read SF_DEBUG_FLAGS from the environment (applied at startup). */
void initFromEnv();

/** Redirect trace output (default stderr); nullptr resets to stderr. */
void setOutput(std::FILE *f);
std::FILE *output();

/** Emit one tick-stamped, flag-tagged trace line. */
void print(Flag f, Tick tick, const char *who, const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

} // namespace debug
} // namespace sf

/**
 * Trace from inside a SimObject member (uses curTick() / name()).
 * Disabled flags cost one expected-false branch.
 */
#define SF_DPRINTF(flag, ...)                                              \
    do {                                                                   \
        if (__builtin_expect(                                              \
                ::sf::debug::enabled(::sf::debug::Flag::flag), 0)) {       \
            ::sf::debug::print(::sf::debug::Flag::flag, curTick(),         \
                               name().c_str(), __VA_ARGS__);               \
        }                                                                  \
    } while (0)

/** Trace with an explicit tick and component name. */
#define SF_DPRINTF_AT(flag, tick, who, ...)                                \
    do {                                                                   \
        if (__builtin_expect(                                              \
                ::sf::debug::enabled(::sf::debug::Flag::flag), 0)) {       \
            ::sf::debug::print(::sf::debug::Flag::flag, (tick), (who),     \
                               __VA_ARGS__);                               \
        }                                                                  \
    } while (0)

#endif // SF_SIM_DEBUG_HH
