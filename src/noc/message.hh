/**
 * @file
 * Network message base types and flit accounting classes.
 */

#ifndef SF_NOC_MESSAGE_HH
#define SF_NOC_MESSAGE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace sf {
namespace noc {

/**
 * Virtual networks, used to separate protocol message classes. The
 * simulator models unbounded router buffers (no protocol deadlock by
 * construction) but tracks vnets for accounting and ordering.
 */
enum class VNet : uint8_t
{
    Request = 0,
    Response = 1,
    Control = 2,
};

/**
 * Traffic classes used by the paper's figures: coherence control
 * messages, data transfers, and the extra messages that manage floating
 * streams (configure / migrate / terminate / flow control).
 */
enum class FlitClass : uint8_t
{
    Control = 0,
    Data = 1,
    StreamMgmt = 2,
    NumClasses = 3,
};

/**
 * Base class of anything travelling on the mesh.
 *
 * Delivery ordering contract: every hop/ejection event the mesh
 * schedules for a message carries a canonical (src-tile, sequence) key
 * minted by the scheduling router, so same-cycle deliveries execute in
 * an order fixed by simulated history (DESIGN.md §4i). Senders must
 * therefore inject with `src` set to the tile that calls send().
 */
struct Message
{
    TileId src = invalidTile;
    /** One or more destination tiles (multicast supported). */
    std::vector<TileId> dests;
    /** Payload bytes on top of the header (0 = pure control). */
    uint32_t payloadBytes = 0;
    FlitClass cls = FlitClass::Control;
    VNet vnet = VNet::Request;
    /**
     * Latency-attribution record handle (prof::Profiler); 0 = untracked.
     * Rides the message so per-hop NoC time lands on the request that
     * caused the traffic. Responses inherit the requester's handle.
     */
    uint32_t profId = 0;

    virtual ~Message() = default;
};

using MsgPtr = std::shared_ptr<Message>;

} // namespace noc
} // namespace sf

#endif // SF_NOC_MESSAGE_HH
