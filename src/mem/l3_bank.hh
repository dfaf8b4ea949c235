/**
 * @file
 * Shared L3 cache bank with an integrated (blocking) MESI directory
 * and the GetU uncached-read extension of Fig. 12.
 *
 * One bank lives on every tile; static NUCA interleaving (NucaMap)
 * decides the home bank of each line. The colocated SE_L3 generates
 * requests *at this tile* on behalf of remote cores, which is exactly
 * the request-message elimination stream floating is about: its local
 * reads are GetU messages handed to recvMsg() without a NoC hop.
 */

#ifndef SF_MEM_L3_BANK_HH
#define SF_MEM_L3_BANK_HH

#include <array>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/cache_array.hh"
#include "mem/mem_msg.hh"
#include "mem/nuca.hh"
#include "noc/mesh.hh"
#include "sim/record_pool.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace sf {

namespace verify {
class DataPlane;
} // namespace verify

namespace mem {

struct L3BankConfig
{
    uint64_t sizeBytes = 1024 * 1024;
    uint32_t ways = 16;
    Cycles latency = 20;
    ReplPolicy policy = ReplPolicy::BRRIP;
};

struct L3BankStats
{
    stats::Scalar hits, misses;
    stats::Scalar memReads, memWrites;
    /** Requests by origin (Fig. 14). */
    std::array<stats::Scalar,
               static_cast<size_t>(ReqClass::NumClasses)> requestsByClass;
    stats::Scalar backInvalidations;
    stats::Scalar fwdRequests;
    stats::Scalar fillRetries;
    stats::Scalar recalls;

    /** Register every counter with @p g for report dumping. */
    void
    regStats(stats::StatGroup &g) const
    {
        g.regScalar("hits", &hits);
        g.regScalar("misses", &misses);
        g.regScalar("memReads", &memReads);
        g.regScalar("memWrites", &memWrites);
        g.regScalar("reqCoreNormal", &requestsByClass[0]);
        g.regScalar("reqCoreStream", &requestsByClass[1]);
        g.regScalar("reqFloatAffine", &requestsByClass[2]);
        g.regScalar("reqFloatIndirect", &requestsByClass[3]);
        g.regScalar("reqFloatConfluence", &requestsByClass[4]);
        g.regScalar("backInvalidations", &backInvalidations);
        g.regScalar("fwdRequests", &fwdRequests);
        g.regScalar("recalls", &recalls);
    }
};

/** The banked, directory-holding shared L3. */
class L3Bank : public SimObject
{
  public:
    L3Bank(const std::string &name, EventQueue &eq, TileId tile,
           const L3BankConfig &cfg, noc::Mesh &mesh, const NucaMap &nuca);

    /** Protocol messages from the mesh or the colocated SE_L3. */
    void recvMsg(const MemMsgPtr &msg);

    /** Attach the --verify data plane (null = verify off). */
    void setVerify(verify::DataPlane *v) { _verify = v; }

    /** Enable latency attribution (null = off, the default). */
    void setProfiler(prof::Profiler *p) { _prof = p; }

    /**
     * Deterministic fault injection for the verify negative tests:
     * "stale-getu" serves GetU from the (possibly stale) L3 copy even
     * when a private cache owns the line; "drop-putm-data" discards
     * PutM byte images. Only meaningful with the data plane attached.
     */
    void setVerifyBug(const std::string &bug) { _verifyBug = bug; }

    L3BankStats &stats() { return _stats; }
    const L3BankStats &stats() const { return _stats; }

    TileId tile() const { return _tile; }

    /** Dump blocked-line transactions (debugging aid). */
    void debugDump(std::FILE *f) const;

    // --- introspection for the invariant checker / drain checks ---
    /** Directory/tag array (read-only MESI walks; do not mutate). */
    CacheArray &array() { return _array; }
    /** Outstanding blocking transactions. */
    size_t numTxns() const { return _txns.size(); }
    /** A transaction currently blocks this line (state in flux). */
    bool isLineBlocked(Addr line_addr) const
    {
        return _txns.count(line_addr) != 0;
    }

  private:
    /** A pending transaction blocks its line. */
    struct Txn
    {
        enum class State
        {
            WaitMem,
            WaitInvAcks,
            WaitFwdAck,
        };
        State state = State::WaitMem;
        /** Original request (null for recalls). */
        MemMsgPtr req;
        /** Recall of an owned line to free a saturated set. */
        bool isRecall = false;
        /** Tick the MemRead left for the controller (Mem attribution). */
        Tick memIssueTick = 0;
        int pendingAcks = 0;
        /** Requests that arrived while the line was blocked. */
        std::vector<MemMsgPtr> queued;
    };

    /**
     * Run @p Fn(msg) after @p delay cycles. The message waits in a
     * pool record, so the event captures only `[this, MemMsgPtr *]`
     * (DESIGN.md §4l).
     */
    template <void (L3Bank::*Fn)(const MemMsgPtr &)>
    void after(Cycles delay, const MemMsgPtr &msg);

    /** Entry point after the bank access latency. */
    void process(const MemMsgPtr &msg);

    void handleGetS(const MemMsgPtr &msg);
    void handleGetM(const MemMsgPtr &msg);
    void handleGetU(const MemMsgPtr &msg);
    void handlePut(const MemMsgPtr &msg);
    void handleInvAck(const MemMsgPtr &msg);
    void handleFwdAck(const MemMsgPtr &msg);
    void handleFwdMiss(const MemMsgPtr &msg);
    void handleMemData(const MemMsgPtr &msg);

    /**
     * Serve a GetU from this bank's copy: the request becomes its DataU
     * (answerGetU), then its onServed hook runs.
     */
    void serveUncached(const MemMsgPtr &msg);

    /** Run and clear a GetU's onServed hook (SE_L3 index pickup). */
    static void runServed(MemMsg &msg);

    /** Respond with DataS/DataE and update the directory. */
    void serveShared(const MemMsgPtr &msg, CacheLine &line);

    /** Fetch a missing line from memory, creating a transaction. */
    void startMemFetch(Addr line_addr);

    /** Invalidate one owned line in a saturated set (recall). */
    void recallOwnedLine(Addr fill_addr);

    /**
     * Allocate an L3 way (never evicting owned lines); back-
     * invalidates sharers and writes back dirty victims.
     * @return nullptr if the fill must be retried later.
     */
    CacheLine *allocate(Addr line_addr);

    /** Finish a transaction and process queued requests. */
    void finalize(Addr line_addr);

    bool lineBlocked(Addr a) const { return _txns.count(a) != 0; }

    void sendToTile(const MemMsgPtr &msg) { _mesh.send(msg); }

    L3BankConfig _cfg;
    TileId _tile;
    noc::Mesh &_mesh;
    const NucaMap &_nuca;
    CacheArray _array;
    std::unordered_map<Addr, Txn> _txns;
    /** Messages waiting out a bank latency. */
    sim::RecordPool<MemMsgPtr> _msgPool;
    verify::DataPlane *_verify = nullptr;
    prof::Profiler *_prof = nullptr;
    std::string _verifyBug;
    L3BankStats _stats;
};

} // namespace mem
} // namespace sf

#endif // SF_MEM_L3_BANK_HH
