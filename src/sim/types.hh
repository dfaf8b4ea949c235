/**
 * @file
 * Fundamental simulator-wide type definitions.
 *
 * The whole chip runs in a single 2.0 GHz clock domain (Table III of the
 * paper), so one simulation tick equals one core/cache/NoC cycle.
 */

#ifndef SF_SIM_TYPES_HH
#define SF_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace sf {

/** Simulation time, in cycles of the global 2.0 GHz clock domain. */
using Tick = uint64_t;

/** A duration measured in cycles. */
using Cycles = uint64_t;

/** Virtual or physical memory address. Virtual addresses are 48-bit. */
using Addr = uint64_t;

/** Sentinel for "no tick scheduled". */
constexpr Tick maxTick = std::numeric_limits<Tick>::max();

/** Sentinel for invalid addresses. */
constexpr Addr invalidAddr = std::numeric_limits<Addr>::max();

/** Cache line size in bytes (fixed across the hierarchy, Table III). */
constexpr uint32_t lineBytes = 64;

/** Mask an address down to its cache-line base. */
constexpr Addr
lineAlign(Addr a)
{
    return a & ~static_cast<Addr>(lineBytes - 1);
}

/** Identifier of a tile (core + private caches + L3 bank + router). */
using TileId = int32_t;

constexpr TileId invalidTile = -1;

/** Hardware stream identifier, unique within one core's SE. */
using StreamId = int32_t;

constexpr StreamId invalidStream = -1;

/** Global identifier of a floated stream: (core id, stream id). */
struct GlobalStreamId
{
    TileId core = invalidTile;
    StreamId sid = invalidStream;

    bool operator==(const GlobalStreamId &o) const = default;
    bool valid() const { return core != invalidTile; }
};

} // namespace sf

namespace std {

template <>
struct hash<sf::GlobalStreamId>
{
    size_t
    operator()(const sf::GlobalStreamId &id) const
    {
        return std::hash<uint64_t>()(
            (static_cast<uint64_t>(id.core) << 32) ^
            static_cast<uint32_t>(id.sid));
    }
};

} // namespace std

#endif // SF_SIM_TYPES_HH
