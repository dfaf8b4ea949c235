#include "flt/se_l2.hh"

#include <algorithm>
#include <cstdlib>

#include "sim/debug.hh"
#include "sim/logging.hh"
#include "verify/data_plane.hh"

namespace sf {
namespace flt {

SEL2::SEL2(const std::string &name, EventQueue &eq, TileId tile,
           const SEL2Config &cfg, noc::Mesh &mesh,
           const mem::NucaMap &nuca, mem::PrivCache &cache,
           mem::TlbHierarchy &tlb, mem::AddressSpace &as,
           stream::SECore &se_core)
    : SimObject(name, eq), _cfg(cfg), _tile(tile), _mesh(mesh),
      _nuca(nuca), _cache(cache), _tlb(tlb), _as(as), _seCore(se_core),
      _scan(eq)
{
    _cache.setStreamBuffer(this);
}

SEL2::FloatedStream *
SEL2::find(StreamId sid)
{
    auto it = _floated.find(sid);
    return it == _floated.end() ? nullptr : &it->second;
}

const SEL2::FloatedStream *
SEL2::findConst(StreamId sid) const
{
    auto it = _floated.find(sid);
    return it == _floated.end() ? nullptr : &it->second;
}

uint64_t
SEL2::tryStencilAlias(FloatedStream &s, uint64_t start)
{
    const isa::AffinePattern &p = s.cfg.affine;
    if (p.stride[0] == 0)
        return start;
    for (auto &[other_sid, other] : _floated) {
        if (other_sid == s.cfg.sid || other.cfg.hasIndirect ||
            other.cfg.isStore || other.aliasRoot != invalidStream) {
            continue;
        }
        const isa::AffinePattern &q = other.cfg.affine;
        if (q.elemSize != p.elemSize || q.nDims != p.nDims)
            continue;
        bool same_shape = true;
        for (int d = 0; d < p.nDims; ++d) {
            if (q.stride[d] != p.stride[d] || q.len[d] != p.len[d])
                same_shape = false;
        }
        if (!same_shape || other.startElem != start)
            continue;
        // Our element i sits at base + i*stride; the leader's element
        // i + K does when our base leads by K strides.
        int64_t diff = static_cast<int64_t>(p.base) -
                       static_cast<int64_t>(q.base);
        if (diff <= 0 || diff % p.stride[0] != 0)
            continue;
        uint64_t k = static_cast<uint64_t>(diff / p.stride[0]);
        if (k == 0 || k > other.capacityElems)
            continue;

        uint64_t horizon = s.cfg.horizon();
        // The leader must actually cover a useful part of our range:
        // our element i equals its element i+K, which only exists for
        // i < horizon - K. Demand a majority overlap.
        if (horizon != ~0ULL && k * 2 > horizon)
            continue;
        s.aliasRoot = other_sid;
        s.aliasOffset = k;
        s.tailStart = horizon == ~0ULL ? ~0ULL
                                       : (horizon > k ? horizon - k
                                                      : start);
        s.tailStart = std::max(s.tailStart, start);
        s.arrival.reset(s.tailStart);
        other.aliasedBy.push_back(s.cfg.sid);
        ++_stats.stencilMerges;
        return s.tailStart;
    }
    return start;
}

uint64_t
SEL2::availableUpTo(const FloatedStream &s)
{
    if (s.aliasRoot == invalidStream)
        return s.arrival.next();
    auto it = _floated.find(s.aliasRoot);
    if (it == _floated.end())
        return s.arrival.next(); // leader gone; only the tail remains
    uint64_t via_root = it->second.arrival.next() > s.aliasOffset
                            ? it->second.arrival.next() - s.aliasOffset
                            : 0;
    if (via_root < s.tailStart)
        return via_root;
    return std::max(s.tailStart, s.arrival.next());
}

Addr
SEL2::elemVaddr(const FloatedStream &s, uint64_t idx)
{
    if (!s.cfg.hasIndirect)
        return s.cfg.affine.elemAddr(idx);
    // The index array value is functionally stable within the stream's
    // synchronization-free region.
    auto bit = _floated.find(s.baseSid);
    const isa::AffinePattern &base_pat =
        bit != _floated.end() ? bit->second.cfg.affine : s.cfg.affine;
    return s.cfg.indirect.elemAddr(idx, base_pat, _as);
}

TileId
SEL2::bankOfElem(const FloatedStream &s, uint64_t idx)
{
    Cycles lat = 0;
    Addr paddr = _tlb.translate(_as, elemVaddr(s, idx), lat);
    return _nuca.bankOf(paddr);
}

bool
SEL2::floatStream(const stream::FloatRequest &req)
{
    int needed = 1 + static_cast<int>(req.indirects.size());
    if (static_cast<int>(_floated.size()) + needed > _cfg.maxStreams)
        return false;

    // Split the buffer among live streams; an affine element reserves
    // space for itself plus its dependent indirect elements.
    int live = static_cast<int>(_floated.size()) + needed;
    uint64_t bytes_per_stream = _cfg.bufferBytes / live;

    auto setup = [&](const isa::StreamConfig &cfg, uint64_t start,
                     StreamId base_sid) -> FloatedStream & {
        FloatedStream &s = _floated[cfg.sid];
        s = FloatedStream();
        s.cfg = cfg;
        s.gen = ++_genCounter[cfg.sid];
        s.baseSid = base_sid;
        s.startElem = start;
        s.arrival.reset(start);
        s.consumedUpTo = start;
        uint32_t esz = cfg.elemSize();
        s.capacityElems =
            std::max<uint64_t>(8, bytes_per_stream / std::max(1u, esz));
        s.grantedUpTo = std::min(start + s.capacityElems, cfg.horizon());
        return s;
    };

    FloatedStream &base = setup(req.base, req.baseStart, invalidStream);
    base.lastProgress = curTick();
    for (const auto &ind : req.indirects) {
        setup(ind.cfg, ind.start, req.base.sid);
        base.children.push_back(ind.cfg.sid);
    }

    // §IV-B constant-offset reuse: if a leading same-pattern stream
    // is already floating, the remote engine only produces our
    // uncovered tail; the rest is served from the leader's buffer.
    uint64_t remote_start = req.baseStart;
    if (_cfg.enableStencilReuse && req.indirects.empty() &&
        !req.base.hasIndirect) {
        remote_start = tryStencilAlias(base, req.baseStart);
    }

    _grants.push_back(
        {++_headSeq, req.base.sid, base.gen, base.grantedUpTo});

    // The engine starts at remote_start, past any aliased head, and
    // gets a full window from there.
    base.grantedUpTo = std::max(
        base.grantedUpTo,
        std::min(remote_start + base.capacityElems, base.cfg.horizon()));
    TileId bank =
        sendConfig(req.base.sid, base, remote_start, base.grantedUpTo);
    ++_stats.floats;
    SF_DPRINTF(StreamFloat,
               "float config sid=%d -> bank %d nextElem=%llu "
               "credit=%llu",
               req.base.sid, bank, (unsigned long long)remote_start,
               (unsigned long long)base.grantedUpTo);
    if (_cfg.retryEnabled) {
        armAckCheck(req.base.sid, base.gen);
        scheduleProgressScan();
    }
    return true;
}

TileId
SEL2::sendConfig(StreamId sid, const FloatedStream &base,
                 uint64_t next_elem, uint64_t credit)
{
    // The home bank of the first element the engine must produce
    // (translated through the core's L2 TLB, §IV-E), clamped to the
    // last element of a known-length stream.
    uint64_t horizon = base.cfg.horizon();
    uint64_t bank_elem = next_elem;
    if (horizon != ~0ULL && bank_elem >= horizon)
        bank_elem = horizon ? horizon - 1 : 0;
    TileId bank = bankOfElem(base, bank_elem);
    auto msg = makeStreamMsg<StreamFloatMsg>(_tile, bank);
    msg->gsid = {_tile, sid};
    msg->gen = base.gen;
    msg->base = base.cfg;
    for (StreamId child_sid : base.children) {
        if (const FloatedStream *child = findConst(child_sid)) {
            msg->indirects.push_back(
                {child->cfg,
                 std::max(child->startElem,
                          child->cfg.indirect.firstChild(next_elem))});
        }
    }
    msg->nextElem = next_elem;
    msg->creditLimit = credit;
    msg->finalizeSize();
    _mesh.send(msg);
    ++_stats.configsSent;
    return bank;
}

void
SEL2::resendConfig(StreamId sid, FloatedStream &base)
{
    // Rebuild the config from the live stream state and re-send it to
    // the home bank of the arrival frontier: idempotent on the SE_L3
    // side (same-gen configs replace the entry; already-delivered
    // elements that get re-produced are dropped by the frontier check
    // here), so it recovers from a lost config, migration, or credit
    // without needing to know which one was lost.
    uint64_t next_elem = std::max(base.arrival.next(), base.startElem);
    TileId bank = sendConfig(sid, base, next_elem,
                             std::max(base.grantedUpTo, next_elem));
    ++_stats.floatRetries;
    SF_DPRINTF(StreamFloat,
               "retry %d/%d: resend config sid=%d -> bank %d "
               "nextElem=%llu",
               base.retries, _cfg.maxFloatRetries, sid, bank,
               (unsigned long long)next_elem);
}

void
SEL2::armAckCheck(StreamId sid, uint32_t gen)
{
    scheduleIn(_cfg.floatAckTimeout,
               [this, sid, gen] { checkAck(sid, gen); });
}

void
SEL2::checkAck(StreamId sid, uint32_t gen)
{
    FloatedStream *s = find(sid);
    if (!s || s->gen != gen || s->acked)
        return;
    if (s->retries >= _cfg.maxFloatRetries) {
        // The hierarchy never confirmed the float: revert this stream
        // to core-fetch for good (SE_core marks it noRefloat).
        ++_stats.floatFallbacks;
        warn_once("%s: float config unacked after %d retries, sinking",
                  name().c_str(), _cfg.maxFloatRetries);
        _seCore.requestSink(sid);
        return;
    }
    ++s->retries;
    resendConfig(sid, *s);
    armAckCheck(sid, gen);
}

bool
SEL2::groupHasWaiters(const FloatedStream &base) const
{
    if (!base.waiters.empty())
        return true;
    for (StreamId child : base.children) {
        if (const FloatedStream *c = findConst(child)) {
            if (!c->waiters.empty())
                return true;
        }
    }
    // A lagging constant-offset stream blocked below its tail is
    // waiting on OUR data.
    for (StreamId lag_sid : base.aliasedBy) {
        if (const FloatedStream *lag = findConst(lag_sid)) {
            if (!lag->waiters.empty())
                return true;
        }
    }
    return false;
}

void
SEL2::scheduleProgressScan()
{
    if (_scan.running() || !_cfg.retryEnabled)
        return;
    _scan.start(std::max<Cycles>(1, _cfg.progressTimeout / 2),
                [this] { progressScan(); }, EventPriority::Stat);
}

void
SEL2::progressScan()
{
    if (_floated.empty()) {
        _scan.stop(); // self-stop; floatStream() restarts the scan
        return;
    }
    Tick now = curTick();
    std::vector<StreamId> to_recover;
    std::vector<StreamId> to_sink;
    for (auto &[sid, s] : _floated) {
        if (s.baseSid != invalidStream)
            continue; // children recover through their base
        if (!s.acked)
            continue; // the ack-timeout path owns unacked streams
        if (!groupHasWaiters(s))
            continue; // not blocking the core: nothing to recover
        if (now - s.lastProgress < _cfg.progressTimeout)
            continue;
        if (s.retries >= _cfg.maxFloatRetries)
            to_sink.push_back(sid);
        else
            to_recover.push_back(sid);
    }
    for (StreamId sid : to_recover) {
        FloatedStream &s = _floated.at(sid);
        ++s.retries;
        s.lastProgress = now;
        resendConfig(sid, s);
    }
    for (StreamId sid : to_sink) {
        ++_stats.floatFallbacks;
        warn_once("%s: floated stream stuck after %d recoveries, "
                  "sinking",
                  name().c_str(), _cfg.maxFloatRetries);
        _seCore.requestSink(sid);
    }
    // The recurring event re-queues itself for the next scan.
}

void
SEL2::recvFloatAck(const std::shared_ptr<StreamAckMsg> &msg)
{
    StreamId sid = msg->gsid.sid;
    FloatedStream *s = find(sid);
    if (!s || s->gen != msg->gen)
        return; // stale (stream sunk or refloated since)
    if (msg->nack) {
        ++_stats.floatNacks;
        SF_DPRINTF(StreamFloat,
                   "NACK sid=%d gen=%u: falling back to core-fetch",
                   sid, msg->gen);
        _seCore.requestSink(sid);
        return;
    }
    ++_stats.acksReceived;
    s->acked = true;
    s->lastProgress = curTick();
}

void
SEL2::unfloatStream(StreamId sid)
{
    auto it = _floated.find(sid);
    if (it == _floated.end())
        return;
    // Resolve to the base stream; terminate the whole group.
    if (it->second.baseSid != invalidStream) {
        unfloatStream(it->second.baseSid);
        return;
    }
    FloatedStream &base = it->second;
    ++_stats.unfloats;
    SF_DPRINTF(StreamFloat, "unfloat sid=%d nextExpected=%llu", sid,
               (unsigned long long)base.arrival.next());

    bool finished = base.cfg.lengthKnown &&
                    base.arrival.next() >= base.cfg.totalElems();
    if (!finished) {
        // Early termination / sink: chase the engine with an end
        // packet (known-length streams that completed end silently).
        // The engine keeps issuing and migrating until it reaches its
        // credit horizon, so the horizon's home bank is guaranteed to
        // see the stream: send the end there (an end that arrives
        // first records the departure, and the stream is dropped when
        // it comes).
        uint64_t horizon = base.cfg.horizon();
        uint64_t target = base.grantedUpTo;
        if (horizon != ~0ULL)
            target = std::min(target, horizon - 1);
        target = std::max(target, base.startElem);
        TileId bank = bankOfElem(base, target);
        auto msg = makeStreamMsg<StreamEndMsg>(_tile, bank);
        msg->gsid = {_tile, sid};
        msg->gen = base.gen;
        _mesh.send(msg);
        ++_stats.endsSent;
    }

    // Lagging constant-offset streams lose their data source: sink
    // them back to the core (their SE_core refetches via the cache).
    for (StreamId lag_sid : base.aliasedBy) {
        if (FloatedStream *lag = find(lag_sid)) {
            lag->aliasRoot = invalidStream;
            _seCore.requestSink(lag_sid);
        }
    }
    // And detach from our own leader, if any.
    if (base.aliasRoot != invalidStream) {
        if (FloatedStream *root = find(base.aliasRoot)) {
            auto &v = root->aliasedBy;
            v.erase(std::remove(v.begin(), v.end(), sid), v.end());
        }
    }

    std::vector<StreamId> to_erase = {sid};
    for (StreamId child : base.children)
        to_erase.push_back(child);

    for (StreamId victim : to_erase) {
        auto vit = _floated.find(victim);
        if (vit == _floated.end())
            continue;
        // Unserved waiters fall back to fetching through the cache.
        FloatedStream s = std::move(vit->second);
        _floated.erase(vit);
        for (auto &w : s.waiters) {
            uint64_t first = s.consumedUpTo;
            uint64_t span = w.endElem > first ? w.endElem - first : 1;
            auto count = static_cast<uint16_t>(
                std::min<uint64_t>(span, 16));
            reissueThroughCache(victim, s, first, count, std::move(w.cb));
        }
    }
    advanceTail();
}

void
SEL2::reissueThroughCache(StreamId sid, const FloatedStream &s,
                          uint64_t first, uint16_t count,
                          std::function<void()> cb)
{
    Addr vaddr = elemVaddr(s, first);
    Cycles tlb_lat = 0;
    Addr paddr = _tlb.translate(_as, vaddr, tlb_lat);
    mem::Access a;
    a.kind = mem::AccessKind::StreamFetch;
    a.vaddr = vaddr;
    a.paddr = paddr;
    uint32_t esz = s.cfg.elemSize();
    a.size = static_cast<uint16_t>(
        std::min<uint32_t>(esz * count, lineBytes));
    a.stream = {_tile, sid};
    a.elemIdx = first;
    a.streamEligible = true;
    a.onDone = std::move(cb);
    _cache.access(std::move(a));
}

void
SEL2::fetchFloatedElems(StreamId sid, uint64_t first_idx, uint16_t count,
                        std::function<void()> on_ready, uint32_t prof_id)
{
    FloatedStream *s = find(sid);
    if (!s) {
        // Sunk in the meantime: fall back through the cache. We need a
        // config to compute addresses, which is gone; complete after a
        // nominal L2 round trip instead (rare transient).
        scheduleIn(20, std::move(on_ready));
        return;
    }
    uint64_t end = first_idx + count;
    s->consumedUpTo = std::max(s->consumedUpTo, end);
    if (end <= availableUpTo(*s)) {
        ++_stats.servedFetches;
        if (s->aliasRoot != invalidStream && end <= s->tailStart)
            ++_stats.stencilServes;
        _seCore.notifyFloatedBufferServe(sid);
        maybeGrantCredits(sid, *s);
        if (_prof && prof_id)
            _prof->add(prof_id, prof::Phase::SEBuffer, 0);
        scheduleIn(1, std::move(on_ready));
        return;
    }
    s->waiters.push_back({end, std::move(on_ready), prof_id, curTick()});
}

bool
SEL2::handleFloatedFetch(mem::Access &access)
{
    StreamId sid = access.stream.sid;
    FloatedStream *s = find(sid);
    if (!s)
        return false;
    uint32_t esz = s->cfg.elemSize();
    uint16_t count = static_cast<uint16_t>(
        std::max<uint32_t>(1, access.size / std::max(1u, esz)));
    fetchFloatedElems(sid, access.elemIdx, count, std::move(access.onDone),
                      access.profId);
    return true;
}

void
SEL2::onFloatedHitInCache(const GlobalStreamId &stream, uint64_t elem_idx)
{
    FloatedStream *s = find(stream.sid);
    if (s)
        s->consumedUpTo = std::max(s->consumedUpTo, elem_idx + 1);
    _seCore.notifyFloatedCacheHit(stream.sid);
}

void
SEL2::recvDataU(const mem::MemMsgPtr &msg)
{
    // --verify: remember the serve-time image of every arriving DataU
    // line, even for responses dropped below (uncached data is
    // consumed by index, not kept coherent).
    if (_verify)
        _verify->noteUncached(_tile, msg->lineAddr, msg->vdata);

    // Resolve which of our streams this response belongs to: direct
    // responses carry our (core, sid); confluence multicasts carry the
    // group in mergedStreams.
    StreamId sid = invalidStream;
    if (msg->stream.core == _tile) {
        sid = msg->stream.sid;
    } else {
        for (const auto &gs : msg->mergedStreams) {
            if (gs.core == _tile) {
                sid = gs.sid;
                break;
            }
        }
    }
    FloatedStream *s = sid != invalidStream ? find(sid) : nullptr;
    if (!s || (msg->stream.core == _tile && msg->streamGen != s->gen)) {
        ++_stats.dataDropped;
        return;
    }

    ++_stats.dataArrived;
    s->lastProgress = curTick();
    s->acked = true; // data proves the engine is alive
    s->retries = 0;  // fresh recovery budget after real progress
    s->arrival.arrive(msg->elemIdx, msg->elemCount);
    serveWaiters(sid, *s);
    // New leader data may unblock lagging constant-offset streams.
    // Work from a copy: serving can mutate the stream table.
    std::vector<StreamId> lag_copy = s->aliasedBy;
    for (StreamId lag_sid : lag_copy) {
        if (FloatedStream *lag = find(lag_sid))
            serveWaiters(lag_sid, *lag);
    }
    if ((s = find(sid)) != nullptr)
        maybeGrantCredits(sid, *s);
    advanceTail();
}

void
SEL2::serveWaiters(StreamId sid, FloatedStream &s)
{
    if (s.waiters.empty())
        return;
    // Served callbacks move to a pooled batch; the rest compact in
    // place, keeping their order.
    std::vector<std::function<void()>> *fire = nullptr;
    uint64_t avail = availableUpTo(s);
    size_t kept = 0;
    for (size_t i = 0; i < s.waiters.size(); ++i) {
        Waiter &w = s.waiters[i];
        if (w.endElem <= avail) {
            if (_prof && w.profId) {
                _prof->add(w.profId, prof::Phase::SEBuffer,
                           curTick() - w.parkTick);
            }
            if (!fire)
                fire = _servedPool.acquire();
            fire->push_back(std::move(w.cb));
            s.consumedUpTo = std::max(s.consumedUpTo, w.endElem);
            if (s.aliasRoot != invalidStream && w.endElem <= s.tailStart)
                ++_stats.stencilServes;
        } else {
            if (kept != i)
                s.waiters[kept] = std::move(w);
            ++kept;
        }
    }
    s.waiters.erase(s.waiters.begin() + kept, s.waiters.end());
    if (fire) {
        s.lastProgress = curTick();
        _stats.servedFetches += fire->size();
        _seCore.notifyFloatedBufferServe(sid);
        // Defer: callbacks can re-enter the SE (refetch, refloat) and
        // must not run while we hold references into _floated.
        scheduleIn(1, [this, fire] { fireServed(fire); });
    }
}

void
SEL2::fireServed(std::vector<std::function<void()>> *batch)
{
    for (auto &cb : *batch)
        cb();
    _servedPool.release(batch);
}

void
SEL2::maybeGrantCredits(StreamId sid, FloatedStream &s)
{
    // Indirect children share the base stream's credits (§IV-B).
    if (s.baseSid != invalidStream)
        return;
    uint64_t horizon = s.cfg.horizon();
    if (s.grantedUpTo >= horizon)
        return;
    // A leader's elements stay buffered until every lagging constant-
    // offset stream has consumed them too.
    uint64_t effective_consumed = s.consumedUpTo;
    for (StreamId lag_sid : s.aliasedBy) {
        if (const FloatedStream *lag = find(lag_sid)) {
            effective_consumed = std::min(
                effective_consumed,
                lag->consumedUpTo + lag->aliasOffset);
        }
    }
    // consumedUpTo can run ahead of the grant horizon (the core
    // registers waiters for elements it has not been granted yet), so
    // clamp instead of letting the subtraction wrap.
    uint64_t outstanding = s.grantedUpTo > effective_consumed
                               ? s.grantedUpTo - effective_consumed
                               : 0;
    uint64_t free_elems =
        s.capacityElems > outstanding ? s.capacityElems - outstanding : 0;
    if (outstanding > s.capacityElems)
        return; // laggards still need the buffered window
    if (free_elems <
        static_cast<uint64_t>(s.capacityElems * _cfg.creditRefreshFraction))
        return;

    // The engine stalls at the first non-credited element; route the
    // refresh to that element's home bank (§IV-A).
    uint64_t stall_elem = s.grantedUpTo;
    s.grantedUpTo = std::min(horizon, s.grantedUpTo + free_elems);
    _grants.push_back({++_headSeq, sid, s.gen, s.grantedUpTo});

    TileId bank = bankOfElem(s, std::min(stall_elem, horizon - 1));
    auto msg = makeStreamMsg<StreamCreditMsg>(_tile, bank);
    msg->gsid = {_tile, sid};
    msg->gen = s.gen;
    msg->creditLimit = s.grantedUpTo;
    msg->seq = _headSeq;
    _mesh.send(msg);
    ++_stats.creditsSent;
    SF_DPRINTF(StreamFloat, "credit sid=%d -> bank %d limit=%llu seq=%u",
               sid, bank, (unsigned long long)s.grantedUpTo,
               unsigned(_headSeq));
}

void
SEL2::advanceTail()
{
    while (!_grants.empty()) {
        const Grant &g = _grants.front();
        auto it = _floated.find(g.sid);
        bool satisfied = it == _floated.end() ||
                         it->second.gen != g.gen ||
                         it->second.arrival.next() >= g.endElem;
        if (!satisfied)
            break;
        _tailSeq = g.seq;
        _grants.pop_front();
    }
    _cache.drainDelayedEvictions();
}

void
SEL2::onDirtyEviction(Addr line_paddr)
{
    ++_stats.dirtyEvictionSearches;
    std::vector<StreamId> aliased;
    for (auto &[sid, s] : _floated) {
        uint64_t horizon =
            s.cfg.lengthKnown ? s.cfg.totalElems() : s.grantedUpTo;
        uint64_t end = std::min(s.grantedUpTo, horizon);
        end = std::min(end, s.consumedUpTo + s.capacityElems +
                                s.aliasOffset);
        for (uint64_t idx = s.consumedUpTo; idx < end; ++idx) {
            Addr va = elemVaddr(s, idx);
            Addr pa = _as.translateExisting(va);
            if (pa != invalidAddr && lineAlign(pa) == line_paddr) {
                aliased.push_back(sid);
                break;
            }
        }
    }
    for (StreamId sid : aliased) {
        ++_stats.dirtyEvictionAliases;
        _seCore.requestSink(sid);
    }
}

uint16_t
SEL2::currentCreditHead()
{
    return _headSeq;
}

bool
SEL2::mustDelayEviction(uint16_t seq_num)
{
    if (_floated.empty())
        return false;
    // Wrap-aware: the line was tagged at head == seq_num; hold it back
    // while any credit grant at or before that head is unsatisfied.
    return static_cast<int16_t>(seq_num - _tailSeq) > 0;
}

void
SEL2::debugDump(std::FILE *f) const
{
    for (const auto &[sid, s] : _floated) {
        std::fprintf(f,
                     "  %s sid=%d gen=%u start=%llu nextExp=%llu "
                     "consumed=%llu granted=%llu cap=%llu ooo=%llu "
                     "waiters=%zu acked=%d retries=%d "
                     "lastProgress=%llu\n",
                     name().c_str(), sid, s.gen,
                     (unsigned long long)s.startElem,
                     (unsigned long long)s.arrival.next(),
                     (unsigned long long)s.consumedUpTo,
                     (unsigned long long)s.grantedUpTo,
                     (unsigned long long)s.capacityElems,
                     (unsigned long long)s.arrival.buffered(),
                     s.waiters.size(), s.acked, s.retries,
                     (unsigned long long)s.lastProgress);
    }
    std::fprintf(f, "  %s head=%u tail=%u grants=%zu\n", name().c_str(),
                 _headSeq, _tailSeq, _grants.size());
}

void
SEL2::checkCreditWindow(std::vector<std::string> &out) const
{
    for (const auto &[sid, s] : _floated) {
        if (s.baseSid != invalidStream || s.aliasRoot != invalidStream)
            continue;
        if (s.grantedUpTo > s.consumedUpTo + s.capacityElems) {
            out.push_back("sid " + std::to_string(sid) + " gen " +
                          std::to_string(s.gen) + ": grantedUpTo " +
                          std::to_string(s.grantedUpTo) +
                          " > consumedUpTo " +
                          std::to_string(s.consumedUpTo) + " + capacity " +
                          std::to_string(s.capacityElems));
        }
    }
}

void
SEL2::onEvictionPressure()
{
    if (_grants.empty())
        return;
    ++_stats.evictionPressureSinks;
    _seCore.requestSink(_grants.front().sid);
}

} // namespace flt
} // namespace sf
