/**
 * @file
 * 2D mesh on-chip network with X-Y dimension-ordered routing.
 *
 * Modeling approach: packet-granularity hop events. Each directed link
 * has a serialization horizon (`nextFree`); a packet of F flits holds
 * the link for F cycles, so back-to-back packets queue and contention /
 * utilization emerge naturally. Router pipeline depth and link latency
 * match Table III (5-stage router, 1-cycle link). Multicast packets are
 * replicated only at tree branch points, so flit-hop accounting reflects
 * the multicast savings stream confluence exploits.
 *
 * Relative to a flit-level Garnet this abstracts wormhole flow control
 * (buffers are unbounded), which preserves bandwidth and latency
 * behaviour at our utilization levels while keeping simulation fast;
 * see DESIGN.md.
 */

#ifndef SF_NOC_MESH_HH
#define SF_NOC_MESH_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "noc/message.hh"
#include "sim/profile.hh"
#include "sim/record_pool.hh"
#include "sim/shard.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace sf {
namespace noc {

/** Configuration of the mesh (Table III defaults). */
struct MeshConfig
{
    int nx = 8;
    int ny = 8;
    /** Link width in bits (128 / 256 / 512 evaluated in Fig. 16). */
    uint32_t linkBits = 256;
    /** Router pipeline depth in cycles. */
    Cycles routerLatency = 5;
    /** Link traversal latency in cycles. */
    Cycles linkLatency = 1;
    /** Packet header size in bytes. */
    uint32_t headerBytes = 8;
};

/** Per-class traffic statistics. */
struct TrafficStats
{
    /** Flits injected, by class. */
    std::array<uint64_t, 3> flitsInjected = {0, 0, 0};
    /** Sum over flits of hops traveled, by class (Fig. 15 metric). */
    std::array<uint64_t, 3> flitHops = {0, 0, 0};
    /** Packets injected, by class. */
    std::array<uint64_t, 3> packets = {0, 0, 0};
    /** Total cycles any link was busy (for utilization). */
    uint64_t linkBusyCycles = 0;

    uint64_t
    totalFlitHops() const
    {
        return flitHops[0] + flitHops[1] + flitHops[2];
    }
};

/**
 * The mesh network. Tiles bind a sink callback; senders call send().
 */
class Mesh : public SimObject
{
  public:
    using Sink = std::function<void(const MsgPtr &)>;

    /** What a send interceptor decided to do with one injection. */
    enum class SendAction
    {
        Deliver,
        Drop,
        Delay,
        Duplicate,
    };

    /**
     * Consulted once per send(); may reroute the message's fate (fault
     * injection). Installed by the system layer, which is the only
     * place that can classify protocol message types — the mesh stays
     * protocol-agnostic. On Delay the hook sets @p delay to the added
     * injection latency.
     */
    using SendInterceptor =
        std::function<SendAction(const MsgPtr &, Cycles &delay)>;

    Mesh(EventQueue &eq, const MeshConfig &config);

    /**
     * Route all mesh events through the window loop (DESIGN.md §4i):
     * hop/ejection events go to the tile queue carrying a canonical
     * (src-tile, seq) key. Null (the default) keeps the legacy
     * single-queue behaviour for unit tests that drive the mesh
     * standalone.
     */
    void setDomains(sim::TileDomains *d) { _domains = d; }

    /** Register the receiver for tile @p tile. */
    void bindSink(TileId tile, Sink sink);

    /** Inject a message; it is delivered to every tile in msg->dests. */
    void send(const MsgPtr &msg);

    void
    setSendInterceptor(SendInterceptor fn)
    {
        _interceptor = std::move(fn);
    }

    /**
     * Conservation tracking (checker, Full level): account every
     * injected packet until its last destination ejects, so "every
     * message is eventually delivered" becomes checkable. Off by
     * default (zero cost).
     */
    void setTrackInFlight(bool on) { _trackInFlight = on; }
    bool trackInFlight() const { return _trackInFlight; }

    /** Live tracked packets (deliveries still owed). */
    size_t inFlightCount() const { return _inFlight.size(); }

    /** Injection tick of the oldest tracked packet; maxTick if none. */
    Tick oldestInFlightTick() const;

    /** Visit every tracked packet with its injection tick. */
    void forEachInFlight(
        const std::function<void(const MsgPtr &, Tick)> &fn) const;

    void debugDumpInFlight(std::FILE *out) const;

    int numTiles() const { return _cfg.nx * _cfg.ny; }
    const MeshConfig &config() const { return _cfg; }

    /** Number of flits a message of this payload occupies. */
    uint32_t
    flitsOf(uint32_t payload_bytes) const
    {
        uint32_t bits = (_cfg.headerBytes + payload_bytes) * 8;
        uint32_t flit_bits = _cfg.linkBits;
        return (bits + flit_bits - 1) / flit_bits;
    }

    /** Manhattan hop distance between two tiles. */
    int hopDistance(TileId a, TileId b) const;

    /**
     * Aggregate traffic counters, folded over the per-tile accounts in
     * tile order at read time.
     */
    TrafficStats traffic() const;

    /** Distribution of per-packet hop counts (max over multicast dests). */
    const stats::Histogram &packetHops() const;

    /**
     * Average link utilization: busy link-cycles over total
     * link-cycles elapsed since construction.
     */
    double linkUtilization() const;

    /** Number of directed links that exist (edge routers have fewer). */
    int liveLinkCount() const;

    int xOf(TileId t) const { return t % _cfg.nx; }
    int yOf(TileId t) const { return t / _cfg.nx; }
    TileId tileAt(int x, int y) const { return y * _cfg.nx + x; }

    /** Enable per-hop latency attribution (null = off, the default). */
    void setProfiler(prof::Profiler *p) { _prof = p; }

    // --- heatmap counters (cumulative; sampled as interval deltas) ---

    /** Busy cycles of the directed link from @p t toward @p dir. */
    uint64_t
    linkBusyCycles(TileId t, int dir) const
    {
        return _links[size_t(t) * 4 + size_t(dir)].busyCycles;
    }

    /** Cycles packets spent queued behind that link's horizon. */
    uint64_t
    linkQueueCycles(TileId t, int dir) const
    {
        return _links[size_t(t) * 4 + size_t(dir)].queueCycles;
    }

    /** Flits that traversed router @p t (forwarded or ejected). */
    uint64_t routerFlits(TileId t) const { return _routerFlits[t]; }

  private:
    /** Directed link id: from router r in direction d (0..3 = E,W,N,S). */
    struct Link
    {
        Tick nextFree = 0;
        uint64_t busyCycles = 0;
        /** Cumulative cycles packets waited for this link (heatmap). */
        uint64_t queueCycles = 0;
    };

    enum Dir : int { East = 0, West = 1, North = 2, South = 3 };

    /** One tracked packet: injection tick + deliveries still owed. */
    struct InFlightInfo
    {
        MsgPtr msg;
        Tick injectTick = 0;
        int remaining = 0;
    };

    /**
     * One copy of a packet in flight toward router @p at, parked in a
     * RecordPool so its hop and eject events capture only
     * `[this, Hop *]` (DESIGN.md §4l). The copy's destinations are
     * not stored: under X-Y routing they are the message's
     * destinations that lie ahead of @p at in the direction the copy
     * travelled (covers()).
     */
    struct Hop
    {
        MsgPtr msg;
        TileId at = invalidTile;
        uint32_t flits = 0;
        /** Direction travelled into @p at; -1 at injection. */
        int inDir = -1;
    };

    /** Inject bypassing the interceptor (delayed/duplicated copies). */
    void inject(const MsgPtr &msg);

    /** Current tick of the queue that runs tile events. */
    Tick
    now()
    {
        return _domains ? _domains->queue().curTick() : curTick();
    }

    /**
     * Schedule a mesh event created by router @p at. Under domains the
     * event carries a canonical key minted from @p at's per-tile
     * counter; standalone it lands on the legacy queue.
     */
    void scheduleHopEvent(TileId at, Tick when, EventQueue::Handler fn);

    /**
     * Route packet copy @p h through router h->at: eject it locally
     * and/or forward it, splitting at multicast branch points.
     */
    void hop(Hop *h);

    /** Hand an ejected copy to the tile's sink; frees the record. */
    void eject(Hop *h);

    /** True when destination @p d belongs to packet copy @p h. */
    bool covers(const Hop &h, TileId d) const;

    /** Next output direction toward @p dest under X-Y routing; -1 if
     *  local. */
    int routeDir(TileId at, TileId dest) const;

    TileId neighbor(TileId at, int dir) const;

    Link &linkFrom(TileId at, int dir);

    MeshConfig _cfg;
    sim::TileDomains *_domains = nullptr;
    std::vector<Sink> _sinks;
    /** numTiles x 4 directed links. */
    std::vector<Link> _links;
    /** Per-router traversed-flit counters (heatmap). */
    std::vector<uint64_t> _routerFlits;
    /**
     * Hop records. A copy's record is acquired by the router that
     * creates the copy and freed by the router that ejects it. One
     * pool, not one per tile: records flow from injecting to ejecting
     * tiles, so per-tile senders would keep growing while receivers
     * hoard (DESIGN.md §4l).
     */
    sim::RecordPool<Hop> _hopPool;
    prof::Profiler *_prof = nullptr;
    /**
     * Traffic accounts indexed by the tile that mutates them (injector
     * for injection-side counters, the hopping router otherwise);
     * folded in tile order by traffic().
     */
    std::vector<TrafficStats> _traffic;
    /** Per-injecting-tile hop histograms; folded by packetHops(). */
    std::vector<stats::Histogram> _packetHops;
    /** Fold cache rebuilt by packetHops() (read at dump time only). */
    mutable stats::Histogram _packetHopsMerged{1, 16};
    Tick _startTick;
    SendInterceptor _interceptor;
    bool _trackInFlight = false;
    /**
     * Tracked packets keyed by a monotonically assigned injection
     * sequence id, so iteration (watchdog diagnostics, conservation
     * checks) follows injection order. Keying by MsgPtr would order
     * by allocation address — nondeterministic under ASLR (sflint
     * D1). The side index resolves a message back to its sequence id
     * on delivery and is never iterated.
     */
    std::map<uint64_t, InFlightInfo> _inFlight;
    std::unordered_map<const Message *, uint64_t> _inFlightSeq;
    uint64_t _nextInFlightSeq = 0;
};

} // namespace noc
} // namespace sf

#endif // SF_NOC_MESH_HH
