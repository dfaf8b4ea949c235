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

/**
 * Stream configuration / migration packet (Table I). The payload size
 * is the paper's 450 bits (+60 per indirect stream), under one cache
 * line.
 */
struct StreamFloatMsg : noc::Message
{
    bool isMigration = false;
    GlobalStreamId gsid;
    /** Generation: guards stale engines after sink + refloat. */
    uint32_t gen = 0;

    isa::StreamConfig base;
    std::vector<FloatedIndirect> indirects;

    /** Next base element to issue. */
    uint64_t nextElem = 0;
    /** Absolute credit horizon: elements < this may be issued. */
    uint64_t creditLimit = 0;

    static std::shared_ptr<StreamFloatMsg>
    make(TileId src, TileId dest)
    {
        auto m = std::make_shared<StreamFloatMsg>();
        m->src = src;
        m->dests = {dest};
        m->cls = noc::FlitClass::StreamMgmt;
        m->vnet = noc::VNet::Control;
        return m;
    }

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
struct StreamCreditMsg : noc::Message
{
    GlobalStreamId gsid;
    uint32_t gen = 0;
    /** New absolute credit horizon (idempotent). */
    uint64_t creditLimit = 0;
    /** Sequence number for the §IV-E eviction-delay window. */
    uint16_t seq = 0;

    static std::shared_ptr<StreamCreditMsg>
    make(TileId src, TileId dest)
    {
        auto m = std::make_shared<StreamCreditMsg>();
        m->src = src;
        m->dests = {dest};
        m->payloadBytes = 8;
        m->cls = noc::FlitClass::StreamMgmt;
        m->vnet = noc::VNet::Control;
        return m;
    }
};

/** Terminate a floated stream (stream_end / early sink). */
struct StreamEndMsg : noc::Message
{
    GlobalStreamId gsid;
    uint32_t gen = 0;

    static std::shared_ptr<StreamEndMsg>
    make(TileId src, TileId dest)
    {
        auto m = std::make_shared<StreamEndMsg>();
        m->src = src;
        m->dests = {dest};
        m->payloadBytes = 4;
        m->cls = noc::FlitClass::StreamMgmt;
        m->vnet = noc::VNet::Control;
        return m;
    }
};

/**
 * Acknowledgement for a StreamFloatMsg: sent by the SE_L3 bank that
 * received the configuration / migration, back to the requesting
 * core's SE_L2. `nack` means the bank rejected the stream (table
 * overflow) and the core side must fall back to core-fetch.
 */
struct StreamAckMsg : noc::Message
{
    GlobalStreamId gsid;
    uint32_t gen = 0;
    bool nack = false;

    static std::shared_ptr<StreamAckMsg>
    make(TileId src, TileId dest)
    {
        auto m = std::make_shared<StreamAckMsg>();
        m->src = src;
        m->dests = {dest};
        m->payloadBytes = 4;
        m->cls = noc::FlitClass::StreamMgmt;
        m->vnet = noc::VNet::Control;
        return m;
    }
};

} // namespace flt
} // namespace sf

#endif // SF_FLT_STREAM_MSG_HH
