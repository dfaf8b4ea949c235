/**
 * @file
 * Shared helpers for directed tests that run on a core-less
 * sys::TiledSystem: the tiles (private caches, L3 banks, memory
 * controllers, stream engines on SF machines) are built and wired as
 * in every simulation, and cores exist only once run() is called, so
 * protocol- and engine-level tests drive accesses directly.
 */

#ifndef SF_TESTS_COMMON_TEST_FABRIC_HH
#define SF_TESTS_COMMON_TEST_FABRIC_HH

#include <utility>

#include "system/config.hh"
#include "system/tiled_system.hh"

namespace sf {
namespace test {

/**
 * The directed tests' 2x2 system: default caches and engines with 64 B
 * NUCA interleaving. @p m is Base for a bare memory fabric or SF for
 * stream engines on every tile. Unlike SystemConfig::make it keeps the
 * default SE sizes and interleaving.
 */
inline sys::SystemConfig
fabricConfig(sys::Machine m = sys::Machine::Base)
{
    sys::SystemConfig c;
    c.nx = 2;
    c.ny = 2;
    c.machine = m;
    return c;
}

/** Run until the event queue drains (or @p limit). */
inline Tick
drain(sys::TiledSystem &s, Tick limit = 10'000'000)
{
    return s.eventQueue().run(limit);
}

/** Issue a demand access at @p tile; @p completions counts finishes. */
inline void
demand(sys::TiledSystem &s, TileId tile, Addr vaddr, bool is_write,
       int *completions, uint16_t size = 4)
{
    mem::Access a;
    a.kind = mem::AccessKind::Demand;
    a.vaddr = vaddr;
    Cycles lat = 0;
    a.paddr = s.tlb(tile).translate(s.addressSpace(), vaddr, lat);
    a.size = size;
    a.isWrite = is_write;
    a.onDone = [completions]() { ++*completions; };
    s.privCache(tile).access(std::move(a));
}

} // namespace test
} // namespace sf

#endif // SF_TESTS_COMMON_TEST_FABRIC_HH
