#include "noc/mesh.hh"

#include <algorithm>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace sf {
namespace noc {

Mesh::Mesh(EventQueue &eq, const MeshConfig &config)
    : SimObject("mesh", eq), _cfg(config),
      _sinks(static_cast<size_t>(config.nx * config.ny)),
      _links(static_cast<size_t>(config.nx * config.ny) * 4),
      _routerFlits(static_cast<size_t>(config.nx * config.ny), 0),
      _traffic(static_cast<size_t>(config.nx * config.ny)),
      _packetHops(static_cast<size_t>(config.nx * config.ny),
                  stats::Histogram(1, 16)),
      _startTick(eq.curTick())
{
    sf_assert(config.nx > 0 && config.ny > 0, "empty mesh");
    sf_assert(config.linkBits >= 8, "link too narrow");
}

void
Mesh::scheduleHopEvent(TileId at, Tick when, EventQueue::Handler fn)
{
    if (_domains) {
        _domains->queue().scheduleKeyed(when, _domains->nextKey(at),
                                        std::move(fn),
                                        EventPriority::Delivery);
    } else {
        eventQueue().schedule(when, std::move(fn),
                              EventPriority::Delivery);
    }
}

TrafficStats
Mesh::traffic() const
{
    TrafficStats total;
    for (const TrafficStats &t : _traffic) {
        for (size_t c = 0; c < 3; ++c) {
            total.flitsInjected[c] += t.flitsInjected[c];
            total.flitHops[c] += t.flitHops[c];
            total.packets[c] += t.packets[c];
        }
        total.linkBusyCycles += t.linkBusyCycles;
    }
    return total;
}

const stats::Histogram &
Mesh::packetHops() const
{
    _packetHopsMerged = stats::Histogram(1, 16);
    for (const stats::Histogram &h : _packetHops)
        _packetHopsMerged.merge(h);
    return _packetHopsMerged;
}

void
Mesh::bindSink(TileId tile, Sink sink)
{
    sf_assert(tile >= 0 && tile < numTiles(), "bad tile id %d", tile);
    _sinks[static_cast<size_t>(tile)] = std::move(sink);
}

int
Mesh::hopDistance(TileId a, TileId b) const
{
    return std::abs(xOf(a) - xOf(b)) + std::abs(yOf(a) - yOf(b));
}

int
Mesh::liveLinkCount() const
{
    int live = 0;
    for (TileId t = 0; t < numTiles(); ++t)
        for (int d = 0; d < 4; ++d)
            if (neighbor(t, d) != invalidTile)
                ++live;
    return live;
}

double
Mesh::linkUtilization() const
{
    Tick elapsed = curTick() - _startTick;
    if (elapsed == 0)
        return 0.0;
    // Only count interior links that exist (edge routers have fewer).
    uint64_t busy = 0;
    uint64_t live_links = 0;
    for (TileId t = 0; t < numTiles(); ++t) {
        for (int d = 0; d < 4; ++d) {
            if (neighbor(t, d) == invalidTile)
                continue;
            ++live_links;
            busy += _links[static_cast<size_t>(t) * 4 +
                           static_cast<size_t>(d)].busyCycles;
        }
    }
    if (live_links == 0)
        return 0.0;
    return static_cast<double>(busy) /
           (static_cast<double>(live_links) * elapsed);
}

Tick
Mesh::oldestInFlightTick() const
{
    Tick oldest = maxTick;
    for (const auto &[seq, info] : _inFlight)
        oldest = std::min(oldest, info.injectTick);
    return oldest;
}

void
Mesh::forEachInFlight(
    const std::function<void(const MsgPtr &, Tick)> &fn) const
{
    for (const auto &[seq, info] : _inFlight)
        fn(info.msg, info.injectTick);
}

void
Mesh::debugDumpInFlight(std::FILE *out) const
{
    std::fprintf(out, "mesh: %zu packet(s) in flight\n", _inFlight.size());
    for (const auto &[seq, info] : _inFlight) {
        const MsgPtr &msg = info.msg;
        std::fprintf(out,
                     "  %d -> %d (+%zu) cls=%d bytes=%u injected@%llu "
                     "remaining=%d\n",
                     (int)msg->src, (int)msg->dests.front(),
                     msg->dests.size() - 1, (int)msg->cls,
                     msg->payloadBytes, (unsigned long long)info.injectTick,
                     info.remaining);
    }
}

void
Mesh::send(const MsgPtr &msg)
{
    if (_interceptor) {
        Cycles delay = 0;
        switch (_interceptor(msg, delay)) {
          case SendAction::Deliver:
            break;
          case SendAction::Drop:
            SF_DPRINTF(NoC, "fault: dropped %d -> %d cls=%d",
                       (int)msg->src, (int)msg->dests.front(),
                       (int)msg->cls);
            return;
          case SendAction::Delay:
            SF_DPRINTF(NoC, "fault: delaying %d -> %d by %llu",
                       (int)msg->src, (int)msg->dests.front(),
                       (unsigned long long)delay);
            // Re-injection is keyed by the sender, like its hops.
            scheduleHopEvent(msg->src, now() + delay,
                             [this, msg] { inject(msg); });
            return;
          case SendAction::Duplicate:
            SF_DPRINTF(NoC, "fault: duplicating %d -> %d",
                       (int)msg->src, (int)msg->dests.front());
            inject(msg);
            break;
        }
    }
    inject(msg);
}

void
Mesh::inject(const MsgPtr &msg)
{
    sf_assert(!msg->dests.empty(), "message with no destination");
    uint32_t flits = flitsOf(msg->payloadBytes);
    auto cls = static_cast<size_t>(msg->cls);
    // Injection-side counters belong to the sending tile's account.
    TrafficStats &ts = _traffic[static_cast<size_t>(msg->src)];
    ts.flitsInjected[cls] += flits;
    ++ts.packets[cls];
    int max_hops = 0;
    for (TileId d : msg->dests)
        max_hops = std::max(max_hops, hopDistance(msg->src, d));
    _packetHops[static_cast<size_t>(msg->src)].sample(
        static_cast<uint64_t>(max_hops));
    SF_DPRINTF(NoC, "inject %d -> %d (+%zu) cls=%d flits=%u hops=%d",
               (int)msg->src, (int)msg->dests.front(),
               msg->dests.size() - 1, (int)msg->cls, flits, max_hops);
    if (_trackInFlight) {
        auto [sit, fresh] =
            _inFlightSeq.try_emplace(msg.get(), _nextInFlightSeq);
        if (fresh)
            ++_nextInFlightSeq;
        InFlightInfo &info = _inFlight[sit->second];
        if (info.remaining == 0) {
            info.msg = msg;
            info.injectTick = now();
        }
        info.remaining += static_cast<int>(msg->dests.size());
    }
    // Injection passes through the local router pipeline once.
    hop(_hopPool.acquire(
        Hop{msg, msg->src, flits, -1}));
}

int
Mesh::routeDir(TileId at, TileId dest) const
{
    int ax = xOf(at), ay = yOf(at);
    int dx = xOf(dest), dy = yOf(dest);
    if (dx > ax)
        return East;
    if (dx < ax)
        return West;
    if (dy > ay)
        return South;
    if (dy < ay)
        return North;
    return -1;
}

TileId
Mesh::neighbor(TileId at, int dir) const
{
    int x = xOf(at), y = yOf(at);
    switch (dir) {
      case East: return x + 1 < _cfg.nx ? tileAt(x + 1, y) : invalidTile;
      case West: return x > 0 ? tileAt(x - 1, y) : invalidTile;
      case South: return y + 1 < _cfg.ny ? tileAt(x, y + 1) : invalidTile;
      case North: return y > 0 ? tileAt(x, y - 1) : invalidTile;
      default: return invalidTile;
    }
}

Mesh::Link &
Mesh::linkFrom(TileId at, int dir)
{
    return _links[static_cast<size_t>(at) * 4 + static_cast<size_t>(dir)];
}

bool
Mesh::covers(const Hop &h, TileId d) const
{
    // X-Y routing: a copy moving horizontally still serves every
    // column on its far side; a vertical copy serves only its own
    // column, on its far side. Both sides are inclusive of h.at.
    int x = xOf(h.at), y = yOf(h.at);
    switch (h.inDir) {
      case East: return xOf(d) >= x;
      case West: return xOf(d) <= x;
      case North: return xOf(d) == x && yOf(d) <= y;
      case South: return xOf(d) == x && yOf(d) >= y;
      default: return true;
    }
}

void
Mesh::hop(Hop *h)
{
    // Split the copy's destinations by output direction (multicast
    // tree branch).
    TileId at = h->at;
    bool local = false;
    unsigned dirs = 0;
    for (TileId d : h->msg->dests) {
        if (!covers(*h, d))
            continue;
        int dir = routeDir(at, d);
        if (dir < 0)
            local = true;
        else
            dirs |= 1u << dir;
    }
    sf_assert(local || dirs, "packet copy with no destination");

    uint32_t flits = h->flits;
    _routerFlits[static_cast<size_t>(at)] += flits;
    // The last event scheduled here takes over h; earlier ones get
    // copies from the pool.

    if (local) {
        // Eject through the local port after the router pipeline.
        Hop *e = dirs ? _hopPool.acquire(*h) : h;
        scheduleHopEvent(at, now() + _cfg.routerLatency,
                         [this, e] { eject(e); });
    }

    for (int dir = East; dir <= South; ++dir) {
        if (!(dirs >> dir & 1u))
            continue;
        dirs &= ~(1u << dir);
        Hop *c = dirs ? _hopPool.acquire(*h) : h;
        TileId next = neighbor(at, dir);
        sf_assert(next != invalidTile, "X-Y routing fell off the mesh");

        Link &link = linkFrom(at, dir);
        // Router pipeline, then wait for the link, then serialize.
        Tick ready = now() + _cfg.routerLatency;
        Tick start = std::max(ready, link.nextFree);
        Tick depart = start + flits; // 1 flit per cycle serialization
        link.nextFree = depart;
        link.busyCycles += flits;
        link.queueCycles += start - ready;
        const Message &msg = *c->msg;
        _traffic[static_cast<size_t>(at)].linkBusyCycles += flits;
        _traffic[static_cast<size_t>(at)]
            .flitHops[static_cast<size_t>(msg.cls)] += flits;

        Tick arrive = depart + _cfg.linkLatency;
        if (_prof && msg.profId) {
            bool rsp = msg.vnet == VNet::Response;
            _prof->add(at, msg.profId,
                       rsp ? prof::Phase::NocRspQueue
                           : prof::Phase::NocReqQueue,
                       start - ready);
            _prof->add(at, msg.profId,
                       rsp ? prof::Phase::NocRspXfer
                           : prof::Phase::NocReqXfer,
                       _cfg.routerLatency + flits + _cfg.linkLatency);
        }
        // The only cross-tile event creation in the simulator: the
        // arrival is always >= router + 1 flit + link cycles away,
        // which is exactly the window lookahead (DESIGN.md §4i).
        c->at = next;
        c->inDir = dir;
        scheduleHopEvent(at, arrive, [this, c] { hop(c); });
    }
}

void
Mesh::eject(Hop *h)
{
    TileId at = h->at;
    MsgPtr msg = _hopPool.take(h).msg;
    auto &sink = _sinks[static_cast<size_t>(at)];
    sf_assert(static_cast<bool>(sink), "no sink bound on tile %d", at);
    // Settle the conservation account before the sink runs: the
    // receiver may legally re-send the same message object
    // (forwarding).
    if (_trackInFlight) {
        auto sit = _inFlightSeq.find(msg.get());
        if (sit != _inFlightSeq.end()) {
            auto it = _inFlight.find(sit->second);
            if (it != _inFlight.end() && --it->second.remaining <= 0) {
                _inFlight.erase(it);
                _inFlightSeq.erase(sit);
            }
        }
    }
    sink(msg);
}

} // namespace noc
} // namespace sf
