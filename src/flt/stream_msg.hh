/**
 * @file
 * NoC messages that manage floating streams: configuration, migration,
 * flow-control credits, and termination (§IV-A). These are the "extra
 * messages" accounted as stream-management traffic in Fig. 15.
 */

#ifndef SF_FLT_STREAM_MSG_HH
#define SF_FLT_STREAM_MSG_HH

#include <cstdint>
#include <vector>

#include "isa/stream_pattern.hh"
#include "noc/message.hh"
#include "sim/types.hh"

namespace sf {
namespace flt {

/** One indirect stream floated along with its base (§IV-B). */
struct FloatedIndirect
{
    isa::StreamConfig cfg;
    /** First indirect element the floated engine must produce. */
    uint64_t start = 0;
};

/** The four stream-management packet kinds (Table I, plus the ack). */
enum class StreamMsgKind : uint8_t
{
    Float,  //!< StreamFloatMsg: configuration or migration
    Credit, //!< StreamCreditMsg
    End,    //!< StreamEndMsg
    Ack,    //!< StreamAckMsg
};

/**
 * The header every stream-management packet shares: its kind, the
 * stream it manages and that stream's generation. It travels in the
 * stream-management flit class on the control vnet.
 */
struct StreamMsg : noc::Message
{
    StreamMsgKind kind;
    GlobalStreamId gsid;
    /** Generation: guards stale engines after sink + refloat. */
    uint32_t gen = 0;

  protected:
    StreamMsg(StreamMsgKind k, uint32_t payload_bytes) : kind(k)
    {
        payloadBytes = payload_bytes;
        cls = noc::FlitClass::StreamMgmt;
        vnet = noc::VNet::Control;
    }
};

/** A stream packet of type @p M from @p src to the single @p dest. */
template <class M>
std::shared_ptr<M>
makeStreamMsg(TileId src, TileId dest)
{
    auto m = std::make_shared<M>();
    m->src = src;
    m->dests = {dest};
    return m;
}

/**
 * Stream configuration / migration packet (Table I). The payload size
 * is the paper's 450 bits (+60 per indirect stream), under one cache
 * line.
 */
struct StreamFloatMsg : StreamMsg
{
    StreamFloatMsg() : StreamMsg(StreamMsgKind::Float, 0) {}

    bool isMigration = false;
    isa::StreamConfig base;
    std::vector<FloatedIndirect> indirects;

    /** Next base element to issue. */
    uint64_t nextElem = 0;
    /** Absolute credit horizon: elements < this may be issued. */
    uint64_t creditLimit = 0;

    /** Size the packet per Table I once fields are filled in. */
    void
    finalizeSize()
    {
        uint32_t bits = base.configBits();
        for (size_t i = 1; i < indirects.size(); ++i)
            bits += 60;
        payloadBytes = (bits + 7) / 8;
    }
};

/** Coarse-grained flow-control credit (§IV-A). */
struct StreamCreditMsg : StreamMsg
{
    StreamCreditMsg() : StreamMsg(StreamMsgKind::Credit, 8) {}

    /** New absolute credit horizon (idempotent). */
    uint64_t creditLimit = 0;
    /** Sequence number for the §IV-E eviction-delay window. */
    uint16_t seq = 0;
};

/** Terminate a floated stream (stream_end / early sink). */
struct StreamEndMsg : StreamMsg
{
    StreamEndMsg() : StreamMsg(StreamMsgKind::End, 4) {}
};

/**
 * Acknowledgement for a StreamFloatMsg: sent by the SE_L3 bank that
 * received the configuration / migration, back to the requesting
 * core's SE_L2. `nack` means the bank rejected the stream (table
 * overflow) and the core side must fall back to core-fetch.
 */
struct StreamAckMsg : StreamMsg
{
    StreamAckMsg() : StreamMsg(StreamMsgKind::Ack, 4) {}

    bool nack = false;
};

} // namespace flt
} // namespace sf

#endif // SF_FLT_STREAM_MSG_HH
