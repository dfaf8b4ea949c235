/**
 * @file
 * SE_L3: the L3-bank stream engine (Fig. 10).
 *
 * Holds floated stream contexts, issues line-coalesced uncached read
 * requests to the colocated L3 bank on behalf of remote cores (round-
 * robin across ready streams, one per cycle), migrates streams to the
 * next bank at interleaving boundaries, enforces credit-based flow
 * control, chases indirection (reading index values and dispatching
 * subline requests to target banks), and merges same-pattern streams
 * from a 2x2 tile block into multicast confluence groups (§IV-C).
 */

#ifndef SF_FLT_SE_L3_HH
#define SF_FLT_SE_L3_HH

#include <algorithm>
#include <cstdio>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "flt/stream_msg.hh"
#include "mem/l3_bank.hh"
#include "mem/nuca.hh"
#include "mem/phys_mem.hh"
#include "mem/tlb.hh"
#include "noc/mesh.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/stream_trace.hh"

namespace sf {
namespace flt {

struct SEL3Config
{
    /** Streams this bank can hold (12 per core x 64 cores, Table III). */
    int maxStreams = 768;
    /** SE_L3 TLB (Table III: 1k entries, 16-way, 8-cycle). */
    uint32_t tlbEntries = 1024;
    uint32_t tlbWays = 16;
    Cycles tlbLatency = 8;
    Cycles tlbWalkLatency = 80;
    /** Issue at most one line request per cycle per bank. */
    Cycles issueInterval = 1;
    /** Enable stream confluence (§IV-C). */
    bool enableConfluence = true;
    /** Confluence block edge (2 => 2x2 tile blocks). */
    int blockSize = 2;
    /** Max progress difference (elements) for a merge. */
    uint64_t mergeSlackElems = 256;
    /** Max streams per confluence group. */
    int maxGroupSize = 4;
};

struct SEL3Stats
{
    stats::Scalar configsReceived, migrationsIn, migrationsOut;
    stats::Scalar endsReceived, creditsReceived;
    stats::Scalar acksSent, floatNacksSent;
    stats::Scalar lineRequestsIssued, indirectRequestsIssued;
    stats::Scalar confluenceMerges, confluenceRequests;
    stats::Scalar streamsCompleted;
    stats::Scalar tlbHits, tlbMisses;
    stats::Scalar creditStalls;
    stats::Scalar staleConfigsDropped;

    /** Register every counter with @p g for report dumping. */
    void
    regStats(stats::StatGroup &g) const
    {
        g.regScalar("configsReceived", &configsReceived);
        g.regScalar("migrationsIn", &migrationsIn);
        g.regScalar("migrationsOut", &migrationsOut);
        g.regScalar("endsReceived", &endsReceived);
        g.regScalar("creditsReceived", &creditsReceived);
        g.regScalar("acksSent", &acksSent);
        g.regScalar("floatNacksSent", &floatNacksSent);
        g.regScalar("lineRequestsIssued", &lineRequestsIssued);
        g.regScalar("indirectRequestsIssued", &indirectRequestsIssued);
        g.regScalar("confluenceMerges", &confluenceMerges);
        g.regScalar("confluenceRequests", &confluenceRequests);
        g.regScalar("streamsCompleted", &streamsCompleted);
        g.regScalar("tlbHits", &tlbHits);
        g.regScalar("tlbMisses", &tlbMisses);
        g.regScalar("creditStalls", &creditStalls);
        g.regScalar("staleConfigsDropped", &staleConfigsDropped);
    }
};

/** The per-bank L3 stream engine. */
class SEL3 : public SimObject
{
  public:
    SEL3(const std::string &name, EventQueue &eq, TileId tile,
         const SEL3Config &cfg, noc::Mesh &mesh,
         const mem::NucaMap &nuca, mem::L3Bank &bank,
         mem::AddressSpace &as);

    /** Stream-management messages from the mesh. */
    void recvConfig(const std::shared_ptr<StreamFloatMsg> &msg);
    void recvCredit(const std::shared_ptr<StreamCreditMsg> &msg);
    void recvEnd(const std::shared_ptr<StreamEndMsg> &msg);

    SEL3Stats &stats() { return _stats; }
    size_t numStreams() const { return _entries.size(); }
    TileId tile() const { return _tile; }

    /** Append stream transitions to @p log (null = off, the default). */
    void setStreamLog(trace::StreamLog *log) { _streamLog = log; }

    /** Dump resident stream contexts (debugging aid). */
    void debugDump(std::FILE *f) const;

    /**
     * Introspection for the invariant checker: visit every resident
     * confluence-group member with its group's shared issue cursor.
     */
    void forEachResident(
        const std::function<void(const GlobalStreamId &gsid,
                                 uint32_t gen, uint64_t issue_pos,
                                 uint64_t credit_limit)> &fn) const;


  private:
    /** One confluence-group member (the leader is members[0]). */
    struct Member
    {
        GlobalStreamId gsid;
        uint32_t gen = 0;
        /** Absolute credit horizon for this member. */
        uint64_t creditLimit = 0;
        /** Elements below this were already delivered pre-merge. */
        uint64_t joinedAt = 0;
    };

    /** A floated stream context resident at this bank. */
    struct Entry
    {
        isa::StreamConfig base;
        std::vector<FloatedIndirect> indirects;
        /** Next base element to issue. */
        uint64_t issuePos = 0;
        /** Walks base.affine for issueOne's coalescing loop. */
        isa::AffineCursor cursor;
        /** Members: [0] is the owning stream; >1 means confluence. */
        std::vector<Member> members;
        /** Round-robin bookkeeping. */
        bool stalledOnCredit = false;
    };

    using EntryList = std::list<Entry>;

    EntryList::iterator findEntry(const GlobalStreamId &gsid);

    /**
     * Add a stream (config or migration); tries confluence merge.
     * @return false when the stream table is full (caller NACKs).
     */
    bool addStream(Entry &&e);
    bool tryMerge(const Entry &incoming);

    /** Ack (or NACK on overflow) a config back to the owning core. */
    void sendAck(const GlobalStreamId &gsid, uint32_t gen, bool nack);

    /** Schedule the issue pump if idle. */
    void kick();
    void issueTick();
    /** Try to issue one line request for @p e; true on progress. */
    bool issueOne(Entry &e);

    /** Hand the stream group over to @p next_bank (§IV-A migrate). */
    void migrate(Entry &e, TileId next_bank);

    /**
     * Dispatch @p owner's indirect requests for base elements
     * [first, first+count) of @p base.
     */
    void issueIndirects(const isa::AffinePattern &base,
                        const std::vector<FloatedIndirect> &indirects,
                        const Member &owner, uint64_t first,
                        uint16_t count);

    /** Hand a GetU to the colocated bank after @p penalty (no NoC hop). */
    void sendLocal(const mem::MemMsgPtr &msg, Cycles penalty);

    /** Translate with SE_L3 TLB accounting; returns extra latency. */
    Addr translate(Addr vaddr, Cycles &penalty);

    /** 2x2 block id of a tile (confluence locality constraint). */
    int blockOf(TileId t) const;

    SEL3Config _cfg;
    TileId _tile;
    noc::Mesh &_mesh;
    const mem::NucaMap &_nuca;
    mem::L3Bank &_bank;
    mem::AddressSpace &_as;
    mem::Tlb _tlb;

    /** Round-robin via rotation: the front entry is serviced next. */
    EntryList _entries;
    /** Issue pump: recurring while busy, stopped when idle. */
    RecurringEvent _pump;

    /** A (gen, position) mark. Gens start at 1, so gen 0 is "none". */
    struct GenMark
    {
        uint32_t gen = 0;
        uint64_t pos = 0;

        /** A newer gen replaces the mark; the same gen keeps the max. */
        void
        raise(uint32_t g, uint64_t p)
        {
            if (g > gen) {
                gen = g;
                pos = p;
            } else if (g == gen) {
                pos = std::max(pos, p);
            }
        }
    };

    /**
     * What this bank keeps of a stream beyond its resident entry.
     * Bounded by cores x stream ids.
     */
    struct Record
    {
        /**
         * Replay filter: the (gen, frontier) at which the stream last
         * left this bank, on migration-out, completion and end. A
         * config or migration that arrives at or behind this point is
         * a stale replay (duplicated/delayed in the network) and must
         * be dropped, or it would resurrect a ghost copy of the stream
         * that the end packet can never catch. Dropped replays are NOT
         * acked: a genuinely lost config that lands here retries later
         * with an advanced frontier and reaches the right bank.
         */
        GenMark departed;
        /** A credit (gen, limit) that arrived before its stream. */
        GenMark credit;
    };
    std::unordered_map<GlobalStreamId, Record> _records;

    SEL3Stats _stats;
    trace::StreamLog *_streamLog = nullptr;
};

} // namespace flt
} // namespace sf

#endif // SF_FLT_SE_L3_HH
