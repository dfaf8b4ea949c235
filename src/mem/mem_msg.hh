/**
 * @file
 * Coherence protocol messages (3-level MESI directory + GetU, Fig. 12).
 */

#ifndef SF_MEM_MEM_MSG_HH
#define SF_MEM_MEM_MSG_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "noc/message.hh"
#include "sim/types.hh"

namespace sf {
namespace mem {

enum class MemMsgType : uint8_t
{
    // L2 -> L3 requests
    GetS,     //!< read, will cache (adds sharer)
    GetM,     //!< write ownership
    GetU,     //!< read, will NOT cache (stream floating / SE requests)
    PutS,     //!< clean eviction notice (control only)
    PutM,     //!< dirty writeback (data)

    // L3 -> L2 forward / invalidate
    FwdGetS,  //!< forward read to the owning L2
    FwdGetM,  //!< transfer write ownership to the requester
    FwdGetU,  //!< forward uncached read; owner state unchanged
    Inv,      //!< invalidate

    // acknowledgements
    InvAck,   //!< sharer -> L3
    FwdAck,   //!< owner -> L3 after servicing a Fwd (carries data if
              //!< the owner downgraded M->S)
    FwdMiss,  //!< owner no longer has the line (racing eviction)
    PutAck,   //!< L3 -> L2

    // data responses
    DataS,    //!< shared data (L3 -> L2 or owner -> requester)
    DataE,    //!< exclusive data (no other sharers)
    DataM,    //!< data with write ownership
    DataU,    //!< uncached data (to SE_L2 stream buffer; may be subline)

    // L3 <-> memory controller
    MemRead,
    MemWrite,
    MemData,
};

constexpr const char *
memMsgName(MemMsgType t)
{
    switch (t) {
      case MemMsgType::GetS: return "GetS";
      case MemMsgType::GetM: return "GetM";
      case MemMsgType::GetU: return "GetU";
      case MemMsgType::PutS: return "PutS";
      case MemMsgType::PutM: return "PutM";
      case MemMsgType::FwdGetS: return "FwdGetS";
      case MemMsgType::FwdGetM: return "FwdGetM";
      case MemMsgType::FwdGetU: return "FwdGetU";
      case MemMsgType::Inv: return "Inv";
      case MemMsgType::InvAck: return "InvAck";
      case MemMsgType::FwdAck: return "FwdAck";
      case MemMsgType::FwdMiss: return "FwdMiss";
      case MemMsgType::PutAck: return "PutAck";
      case MemMsgType::DataS: return "DataS";
      case MemMsgType::DataE: return "DataE";
      case MemMsgType::DataM: return "DataM";
      case MemMsgType::DataU: return "DataU";
      case MemMsgType::MemRead: return "MemRead";
      case MemMsgType::MemWrite: return "MemWrite";
      case MemMsgType::MemData: return "MemData";
    }
    return "?";
}

constexpr bool
carriesData(MemMsgType t)
{
    switch (t) {
      case MemMsgType::PutM:
      case MemMsgType::DataS:
      case MemMsgType::DataE:
      case MemMsgType::DataM:
      case MemMsgType::DataU:
      case MemMsgType::MemData:
      case MemMsgType::MemWrite:
        return true;
      case MemMsgType::GetS:
      case MemMsgType::GetM:
      case MemMsgType::GetU:
      case MemMsgType::PutS:
      case MemMsgType::FwdGetS:
      case MemMsgType::FwdGetM:
      case MemMsgType::FwdGetU:
      case MemMsgType::Inv:
      case MemMsgType::InvAck:
      case MemMsgType::FwdAck:
      case MemMsgType::FwdMiss:
      case MemMsgType::PutAck:
      case MemMsgType::MemRead:
        return false;
    }
    return false;
}

/** Who generated a request to the L3 (Fig. 14 breakdown). */
enum class ReqClass : uint8_t
{
    CoreNormal = 0,   //!< demand / prefetch requests from the core side
    CoreStream = 1,   //!< SE_core stream fetches (non-floated)
    FloatAffine = 2,  //!< generated by SE_L3 for a floated affine stream
    FloatIndirect = 3,//!< generated by SE_L3 for a floated indirect stream
    FloatConfluence = 4, //!< merged multicast stream request
    NumClasses = 5,
};

/** A coherence message on the mesh. */
struct MemMsg : noc::Message
{
    MemMsgType type = MemMsgType::GetS;
    /** Line-aligned physical address. */
    Addr lineAddr = 0;
    /** Tile that originated the transaction. */
    TileId requester = invalidTile;

    // --- stream-floating tagging (valid on GetU/FwdGetU/DataU) ---
    GlobalStreamId stream;
    /** Stream generation (guards stale data after sink + refloat). */
    uint32_t streamGen = 0;
    /** First element index this message covers. */
    uint64_t elemIdx = 0;
    /** Number of elements covered (line coalescing). */
    uint16_t elemCount = 1;
    /** Subline transfer size for DataU; 64 means full line. */
    uint16_t dataBytes = lineBytes;
    /** Streams merged into this response (confluence multicast). */
    std::vector<GlobalStreamId> mergedStreams;

    /**
     * --verify data plane: byte image carried by data-bearing messages
     * whose source holds a materialized (ever-written) copy. Null
     * means "receiver keeps reading through to the level below". The
     * timing model never looks at it.
     */
    std::shared_ptr<std::array<uint8_t, lineBytes>> vdata;

    /**
     * Tick this request was parked behind a blocked directory line
     * (latency attribution; 0 = never queued). Set by the home bank
     * when it defers the request, consumed when the replay dispatches.
     */
    Tick profEnqTick = 0;

    /** Generated by a prefetcher (accuracy accounting). */
    bool prefetch = false;
    /** Bulk-prefetch request: this many extra line requests piggyback. */
    uint16_t bulkLines = 1;
    /** Request origin class for L3 accounting (Fig. 14). */
    ReqClass reqClass = ReqClass::CoreNormal;

    /**
     * GetU only: run once by the home bank when the line's data is
     * available there, then cleared. The colocated SE_L3 uses it to
     * read indirect index values (§IV-B).
     */
    std::function<void()> onServed;
};

using MemMsgPtr = std::shared_ptr<MemMsg>;

/**
 * Build a protocol message with the right NoC accounting class.
 * Data-bearing messages count their payload; everything else is a
 * single-header control message.
 */
inline MemMsgPtr
makeMemMsg(MemMsgType type, Addr line_addr, TileId src, TileId dest,
           TileId requester, uint16_t data_bytes = lineBytes)
{
    auto msg = std::make_shared<MemMsg>();
    msg->type = type;
    msg->lineAddr = line_addr;
    msg->src = src;
    msg->dests = {dest};
    msg->requester = requester;
    if (carriesData(type)) {
        msg->payloadBytes = data_bytes;
        msg->dataBytes = data_bytes;
        msg->cls = noc::FlitClass::Data;
        msg->vnet = noc::VNet::Response;
    } else {
        msg->payloadBytes = 0;
        msg->cls = noc::FlitClass::Control;
        msg->vnet = (type == MemMsgType::GetS || type == MemMsgType::GetM ||
                     type == MemMsgType::GetU || type == MemMsgType::PutS ||
                     type == MemMsgType::MemRead)
                        ? noc::VNet::Request
                        : noc::VNet::Control;
    }
    return msg;
}

/**
 * Answer the uncached read @p msg (a GetU or FwdGetU) in place: it
 * becomes its DataU from @p src, multicast to the tile of every merged
 * stream (confluence, §IV-C), else sent to the requester. A request is
 * never read again once answered, so no second message is built.
 */
inline void
answerGetU(MemMsg &msg, TileId src)
{
    msg.type = MemMsgType::DataU;
    msg.src = src;
    msg.dests.clear();
    if (msg.mergedStreams.empty()) {
        msg.dests.push_back(msg.requester);
    } else {
        msg.dests.reserve(msg.mergedStreams.size());
        for (const auto &gs : msg.mergedStreams)
            msg.dests.push_back(gs.core);
    }
    msg.payloadBytes = msg.dataBytes;
    msg.cls = noc::FlitClass::Data;
    msg.vnet = noc::VNet::Response;
}

} // namespace mem
} // namespace sf

#endif // SF_MEM_MEM_MSG_HH
