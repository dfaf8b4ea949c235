#include "stream/se_core.hh"

#include <algorithm>

#include "sim/debug.hh"
#include "sim/logging.hh"
#include "verify/data_plane.hh"
#include "verify/value.hh"

namespace sf {
namespace stream {

namespace {

/** Entry @p sid of a sid-indexed table, grown to hold it. */
template <typename T>
T &
growTo(std::vector<T> &table, StreamId sid)
{
    sf_assert(sid >= 0, "invalid stream id %d", sid);
    auto i = static_cast<size_t>(sid);
    if (i >= table.size())
        table.resize(i + 1);
    return table[i];
}

} // namespace

SECore::SECore(const std::string &name, EventQueue &eq, TileId tile,
               const SECoreConfig &cfg, mem::PrivCache &cache,
               mem::TlbHierarchy &tlb, mem::AddressSpace &as)
    : SimObject(name, eq), _cfg(cfg), _tile(tile), _cache(cache),
      _tlb(tlb), _as(as)
{
}

SECore::StreamState &
SECore::state(StreamId sid)
{
    StreamState *s = find(sid);
    sf_assert(s, "access to inactive stream %d", sid);
    return *s;
}

SECore::StreamState *
SECore::slot(StreamId sid)
{
    auto i = static_cast<size_t>(sid);
    return sid >= 0 && i < _streams.size() ? &_streams[i] : nullptr;
}

SECore::StreamState *
SECore::find(StreamId sid)
{
    StreamState *s = slot(sid);
    return s && s->active ? s : nullptr;
}

const SECore::StreamState *
SECore::find(StreamId sid) const
{
    return const_cast<SECore *>(this)->find(sid);
}

bool
SECore::isFloating(StreamId sid) const
{
    const StreamState *s = find(sid);
    return s && s->floating;
}

void
SECore::recomputeQuotas()
{
    // The shared FIFO capacity is divided among active load streams.
    int load_streams = 0;
    for (const StreamState &s : _streams) {
        if (s.active && !s.cfg.isStore)
            ++load_streams;
    }
    if (load_streams == 0)
        return;
    for (StreamState &s : _streams) {
        if (!s.active || s.cfg.isStore)
            continue;
        uint32_t elem = std::max<uint32_t>(1, s.cfg.elemSize());
        // Floor of two vector registers' worth so SIMD consumption can
        // double-buffer even on the small IO4 FIFO.
        s.quotaElems = std::max<uint64_t>(
            32, _cfg.fifoBytes /
                    static_cast<uint64_t>(load_streams) / elem);
    }
}

void
SECore::noteConfigDispatched(const std::vector<isa::StreamConfig> &group)
{
    for (const auto &cfg : group)
        ++growTo(_pendingCfgs, cfg.sid);
}

void
SECore::configure(const std::vector<isa::StreamConfig> &group)
{
    ++_stats.configures;
    for (const auto &cfg : group) {
        auto i = static_cast<size_t>(cfg.sid);
        if (i < _pendingCfgs.size() && _pendingCfgs[i] > 0)
            --_pendingCfgs[i];
    }
    sf_assert(_configuredSids + static_cast<int>(group.size()) <=
                  _cfg.maxStreams * 2,
              "too many live streams");

    for (const auto &cfg : group) {
        StreamState &s = growTo(_streams, cfg.sid);
        // Epochs start at 1, so 0 marks a sid's first configuration.
        if (s.epoch == 0)
            ++_configuredSids;
        uint32_t epoch = s.epoch + 1;
        // A reconfiguration keeps the window's ring buffer.
        sim::Ring<ElemRec> window = std::move(s.window);
        window.clear();
        s = StreamState();
        s.window = std::move(window);
        s.epoch = epoch;
        s.active = true;
        s.cfg = cfg;
        s.cursor = isa::AffineCursor(cfg.affine);
        if (cfg.hasIndirect)
            s.parent = cfg.baseSid;
        SF_DPRINTF(StreamFloat,
                   "config sid=%d %s%s elemSize=%u lengthKnown=%d",
                   cfg.sid, cfg.isStore ? "store" : "load",
                   cfg.hasIndirect ? " indirect" : "",
                   cfg.elemSize(), cfg.lengthKnown);
        if (_streamLog) {
            s.traceGen = (_floatCtrl ? _floatCtrl->latestGen(cfg.sid) : 0) + 1;
            _streamLog->push_back({curTick(), {_tile, cfg.sid}, s.traceGen,
                                   trace::StreamPhase::Config, _tile, {}});
        }
    }
    // Wire children after all group members exist.
    for (const auto &cfg : group) {
        if (cfg.hasIndirect) {
            StreamState *base = find(cfg.baseSid);
            sf_assert(base, "indirect stream %d with unknown base %d",
                      cfg.sid, cfg.baseSid);
            base->children.push_back(cfg.sid);
        }
    }
    recomputeQuotas();

    // Float decisions for base load streams, then start run-ahead.
    for (const auto &cfg : group) {
        if (!cfg.isStore && !cfg.hasIndirect)
            maybeFloat(cfg.sid, 0, /*at_config=*/true);
    }
    for (const auto &cfg : group) {
        if (!cfg.isStore)
            pump(cfg.sid);
    }
}

void
SECore::end(StreamId sid)
{
    ++_stats.ends;
    StreamState *sp = find(sid);
    if (!sp)
        return;
    StreamState &s = *sp;
    SF_DPRINTF(StreamFloat, "end sid=%d floating=%d consumed=%llu", sid,
               s.floating, (unsigned long long)s.commitBase);
    if (_streamLog) {
        _streamLog->push_back({curTick(), {_tile, sid}, s.traceGen,
                               trace::StreamPhase::End, _tile, {}});
    }
    if (s.floating && _floatCtrl)
        _floatCtrl->unfloatStream(sid);
    // Children are configured and ended by their own stream_end ops.
    s.active = false;
    ++s.epoch;
    s.window.clear();
    s.waiters.clear();
    recomputeQuotas();
}

bool
SECore::indirectAddr(StreamState &s, uint64_t idx, Addr &out)
{
    // B[A[i] * scale + offset (+ w)]; needs A[i]'s value.
    const StreamState *p = find(s.parent);
    if (!p)
        return false;
    if (s.cfg.indirect.baseElem(idx) >= p->readyUpTo)
        return false; // index data not yet available to the core
    out = s.cfg.indirect.elemAddr(idx, p->cfg.affine, _as);
    return true;
}

void
SECore::pump(StreamId sid, uint64_t min_end)
{
    StreamState *sp = find(sid);
    if (!sp)
        return;
    StreamState &s = *sp;
    if (s.cfg.isStore)
        return;

    uint64_t horizon = s.cfg.horizon();
    uint64_t cap_end =
        std::max(s.commitBase + s.quotaElems, min_end);
    cap_end = std::min(cap_end, horizon);

    // Allocate window entries (addresses) up to the cap. Affine
    // addresses come from the stream's cursor. Floated indirect
    // elements are matched at the SE_L2 by (sid, index), so they need
    // no core-side address (the core cannot compute one without the
    // index data anyway).
    uint32_t esz = s.cfg.elemSize();
    while (s.commitBase + s.window.size() < cap_end) {
        uint64_t idx = s.commitBase + s.window.size();
        ElemRec rec;
        if (!s.cfg.hasIndirect) {
            rec.vaddr = s.cursor.at(idx);
        } else if (!(s.floating && idx >= s.floatFromElem) &&
                   !indirectAddr(s, idx, rec.vaddr)) {
            break;
        }
        if (s.window.empty()) {
            s.windowLo = ~Addr(0);
            s.windowHi = 0;
        }
        s.windowLo = std::min(s.windowLo, rec.vaddr);
        s.windowHi = std::max(s.windowHi, rec.vaddr + esz);
        s.window.push_back(rec);
    }

    // Issue fetches, line-coalesced, in order.
    uint64_t fetch_limit = s.commitBase + s.window.size();
    if (s.aliasDisabled)
        fetch_limit = std::min(fetch_limit, s.demandEnd);

    while (s.nextFetch < fetch_limit) {
        if (s.nextFetch < s.commitBase) {
            s.nextFetch = s.commitBase;
            continue;
        }
        size_t off = static_cast<size_t>(s.nextFetch - s.commitBase);
        if (off >= s.window.size())
            break;
        ElemRec &rec = s.window[off];
        if (rec.fetched) {
            ++s.nextFetch;
            continue;
        }
        // Group consecutive elements on the same line (affine only;
        // indirect targets are scattered).
        uint16_t count = 1;
        if (!s.cfg.hasIndirect) {
            Addr line = lineAlign(rec.vaddr);
            while (s.nextFetch + count < fetch_limit &&
                   off + count < s.window.size() &&
                   lineAlign(s.window[off + count].vaddr) == line &&
                   !s.window[off + count].fetched) {
                ++count;
            }
        }
        for (uint16_t i = 0; i < count; ++i)
            s.window[off + i].fetched = true;
        issueFetch(sid, s.nextFetch, count);
        s.nextFetch += count;
    }
}

void
SECore::issueFetch(StreamId sid, uint64_t first_idx, uint16_t count)
{
    StreamState &s = state(sid);
    uint32_t epoch = s.epoch;
    bool floated = s.floating && first_idx >= s.floatFromElem;

    // Top-down: an issue cycle is engine work; until the data lands
    // the engine is waiting on memory.
    if (_td) {
        _td->tickAt(curTick(), prof::Bucket::Retired);
        _td->setGapReason(prof::Bucket::StalledData);
    }

    // sflint: allow(T1, profiler record handle, not a tick)
    uint32_t pid = _prof ? _prof->open(_tile, sid, curTick()) : 0;
    FetchCtx *ctx =
        _fetchPool.acquire(FetchCtx{sid, first_idx, count, epoch, pid});
    auto on_done = [this, ctx] { fetchDone(ctx); };

    if (floated && s.cfg.hasIndirect) {
        ++_stats.floatedFetchesIssued;
        _floatCtrl->fetchFloatedElems(sid, first_idx, count, on_done, pid);
        return;
    }

    size_t off = static_cast<size_t>(first_idx - s.commitBase);
    Addr vaddr = s.window[off].vaddr;
    Cycles tlb_lat = 0;
    Addr paddr = _tlb.translate(_as, vaddr, tlb_lat);

    mem::Access a;
    a.vaddr = vaddr;
    a.paddr = paddr;
    uint32_t elem_size = s.cfg.elemSize();
    a.size = static_cast<uint16_t>(
        std::min<uint32_t>(elem_size * count, lineBytes));
    a.pc = static_cast<uint32_t>(1000000 + sid);
    a.streamEligible = true;
    a.stream = {_tile, sid};
    a.elemIdx = first_idx;

    a.profId = pid;
    a.onDone = on_done;
    if (floated) {
        ++_stats.floatedFetchesIssued;
        a.kind = mem::AccessKind::FloatedFetch;
    } else {
        ++_stats.fetchesIssued;
        a.kind = mem::AccessKind::StreamFetch;
        a.missOut = &ctx->missed;
    }
    _cache.access(std::move(a));
}

void
SECore::fetchDone(FetchCtx *ctx)
{
    FetchCtx f = _fetchPool.take(ctx);
    if (f.pid)
        _prof->close(f.pid, curTick());
    // A completion from an ended or reconfigured stream must not mark
    // elements of the new epoch ready.
    const StreamState *s = slot(f.sid);
    if (!s || s->epoch != f.epoch)
        return;
    onFetchDone(f.sid, f.first, f.count, f.missed);
}

void
SECore::onFetchDone(StreamId sid, uint64_t first_idx, uint16_t count,
                    bool missed)
{
    StreamState *sp = find(sid);
    if (!sp)
        return;
    StreamState &s = *sp;

    if (_td) {
        _td->tickAt(curTick(), prof::Bucket::Retired);
        _td->setGapReason(prof::Bucket::Idle);
    }

    for (uint16_t i = 0; i < count; ++i) {
        uint64_t idx = first_idx + i;
        if (idx < s.commitBase)
            continue;
        size_t off = static_cast<size_t>(idx - s.commitBase);
        if (off < s.window.size()) {
            s.window[off].ready = true;
            // --verify: capture the element's bytes at the moment data
            // lands (an alias flush rebinds via a later onFetchDone).
            if (_verify)
                verifyBindElem(s, idx);
        }
    }

    StreamHistory &h = _history.row(sid);
    ++h.requests;
    if (missed)
        ++h.misses;
    // Exponential decay so the table tracks phase changes (e.g. a
    // sibling stream floating away and taking its cache fills along).
    if (h.requests >= 4 * _cfg.floatDecisionRequests) {
        h.requests /= 2;
        h.misses /= 2;
        h.reuses /= 2;
    }

    advanceReady(s);
    fireWaiters(s);

    // Children may now be able to compute indirect addresses.
    for (StreamId child : s.children)
        pump(child);

    // History-based mid-stream float decision (§IV-D). The row is
    // looked up again: the calls above may have grown the table.
    if (!s.floating && !s.cfg.isStore && !s.cfg.hasIndirect &&
        _history.row(sid).requests >= _cfg.floatDecisionRequests) {
        maybeFloat(sid, s.nextFetch, /*at_config=*/false);
    }
}

void
SECore::advanceReady(StreamState &s)
{
    uint64_t idx = std::max(s.readyUpTo, s.commitBase);
    while (idx < s.commitBase + s.window.size()) {
        size_t off = static_cast<size_t>(idx - s.commitBase);
        if (!s.window[off].ready)
            break;
        ++idx;
    }
    s.readyUpTo = std::max(s.readyUpTo, idx);
}

void
SECore::fireWaiters(StreamState &s)
{
    if (s.waiters.empty())
        return;
    // Ready callbacks move to the member scratch (swapped out, so a
    // re-entrant call gets its own); the rest compact in place.
    std::vector<std::function<void()>> ready;
    ready.swap(_readyScratch);
    size_t kept = 0;
    for (size_t i = 0; i < s.waiters.size(); ++i) {
        Use &u = s.waiters[i];
        if (u.endElem <= s.readyUpTo) {
            ready.push_back(std::move(u.cb));
        } else {
            if (kept != i)
                s.waiters[kept] = std::move(u);
            ++kept;
        }
    }
    s.waiters.erase(s.waiters.begin() + kept, s.waiters.end());
    for (auto &cb : ready)
        cb();
    bool fired = !ready.empty();
    ready.clear();
    _readyScratch.swap(ready);
    if (fired && _wake)
        _wake();
}

uint64_t
SECore::requestElems(StreamId sid, uint16_t elems,
                     std::function<void()> on_ready)
{
    StreamState &s = state(sid);
    uint64_t first = s.dispatchIter;
    uint64_t end = first + elems;
    _stats.elementsConsumed += elems;

    s.demandEnd = std::max(s.demandEnd, end);
    if (s.commitBase + s.window.size() < end || s.nextFetch < end)
        pump(sid, end);

    if (s.readyUpTo >= end) {
        on_ready();
    } else {
        s.waiters.push_back({end, std::move(on_ready)});
        if (_td)
            _td->setGapReason(prof::Bucket::StalledData);
    }
    return first;
}

void
SECore::step(StreamId sid, uint16_t elems)
{
    StreamState &s = state(sid);
    s.dispatchIter += elems;
    if (!s.cfg.isStore)
        pump(sid);
}

void
SECore::releaseAtCommit(StreamId sid, uint16_t elems)
{
    StreamState *sp = find(sid);
    if (!sp)
        return;
    StreamState &s = *sp;
    // Trip count at stream_step commit; the reference counts at
    // StreamStep on a live stream, so gate on the same condition.
    if (_verify)
        _verify->addTrips(_tile, sid, elems);
    s.window.popFront(elems);
    s.commitBase += elems;
    if (_verify && !s.vElems.empty()) {
        for (auto ve = s.vElems.begin(); ve != s.vElems.end();) {
            if (ve->first < s.commitBase)
                ve = s.vElems.erase(ve);
            else
                ++ve;
        }
    }
    s.readyUpTo = std::max(s.readyUpTo, s.commitBase);
    s.nextFetch = std::max(s.nextFetch, s.commitBase);
    if (!s.cfg.isStore)
        pump(sid);
}

Addr
SECore::storeAddr(StreamId sid)
{
    StreamState &s = state(sid);
    return s.cfg.affine.elemAddr(s.dispatchIter);
}

void
SECore::storeCommitted(Addr vaddr, uint16_t size)
{
    Addr lo = vaddr;
    Addr hi = vaddr + size;
    for (size_t i = 0; i < _streams.size(); ++i) {
        StreamState &s = _streams[i];
        auto sid = static_cast<StreamId>(i);
        if (!s.active || s.cfg.isStore || s.windowHi <= lo ||
            s.windowLo >= hi)
            continue;
        bool aliased = false;
        uint32_t esz = s.cfg.elemSize();
        for (size_t off = 0; off < s.window.size(); ++off) {
            Addr va = s.window[off].vaddr;
            if (va < hi && va + esz > lo) {
                aliased = true;
                break;
            }
        }
        if (!aliased)
            continue;

        ++_stats.aliasFlushes;
        _history.row(sid).aliased = true;
        s.aliasDisabled = true;

        if (s.floating) {
            sink(sid, "store-alias");
        }
        // Flush the PEB: prefetched-but-unused elements are refetched.
        uint64_t flush_from = std::max(s.dispatchIter, s.commitBase);
        for (uint64_t idx = flush_from;
             idx < s.commitBase + s.window.size(); ++idx) {
            size_t off = static_cast<size_t>(idx - s.commitBase);
            s.window[off].ready = false;
            s.window[off].fetched = false;
        }
        s.readyUpTo = std::min(s.readyUpTo, flush_from);
        s.nextFetch = std::min(s.nextFetch, flush_from);
        pump(sid, s.demandEnd);
    }
}

const std::vector<uint8_t> &
SECore::verifyBindElem(StreamState &s, uint64_t idx)
{
    auto it = s.vElems.find(idx);
    if (it != s.vElems.end())
        return it->second;
    // The element address is recomputed functionally: the affine map
    // directly, the indirect chase through the parent's config and the
    // raw index array (as indirectAddr, but without the readyUpTo gate —
    // by bind time the index data has arrived).
    Addr vaddr;
    if (!s.cfg.hasIndirect) {
        vaddr = s.cfg.affine.elemAddr(idx);
    } else {
        const StreamState *p = slot(s.parent);
        sf_assert(p, "verify: indirect sid=%d without base sid=%d",
                  s.cfg.sid, s.parent);
        vaddr = s.cfg.indirect.elemAddr(idx, p->cfg.affine, _as);
    }
    uint32_t esz = s.cfg.elemSize();
    std::vector<uint8_t> bytes(esz);
    _verify->readBytes(_tile, vaddr, esz, bytes.data(),
                       /*stream_elem=*/true);
    return s.vElems.emplace(idx, std::move(bytes)).first->second;
}

uint64_t
SECore::verifyFoldElems(StreamId sid, uint64_t first, uint16_t elems)
{
    if (!_verify)
        return 0;
    StreamState &s = state(sid);
    uint32_t esz = s.cfg.elemSize();
    std::vector<uint8_t> bytes(static_cast<size_t>(elems) * esz);
    for (uint16_t e = 0; e < elems; ++e) {
        const std::vector<uint8_t> &eb = verifyBindElem(s, first + e);
        std::copy(eb.begin(), eb.end(),
                  bytes.begin() + static_cast<size_t>(e) * esz);
    }
    return verify::foldBytes(bytes.data(), bytes.size());
}

bool
SECore::canAcceptUse(StreamId sid) const
{
    // A dispatched-but-uncommitted reconfiguration means this use
    // belongs to the NEW configuration; wait for it to commit.
    auto i = static_cast<size_t>(sid);
    if (sid >= 0 && i < _pendingCfgs.size() && _pendingCfgs[i] > 0)
        return false;
    const StreamState *s = find(sid);
    if (!s)
        return false; // stream_cfg not yet committed
    if (s->cfg.isStore)
        return true;
    uint64_t in_flight = s->dispatchIter - s->commitBase;
    return in_flight < s->quotaElems || s->dispatchIter == s->commitBase;
}

void
SECore::notifyStreamReuse(StreamId sid)
{
    ++_history.row(sid).reuses;
}

void
SECore::notifyFloatedCacheHit(StreamId sid)
{
    StreamState *s = find(sid);
    if (!s || !s->floating)
        return;
    if (++s->consecutiveCacheHits >= _cfg.sinkCacheHitThreshold) {
        sink(sid, "cache-hits");
    }
}

void
SECore::notifyFloatedBufferServe(StreamId sid)
{
    if (StreamState *s = slot(sid))
        s->consecutiveCacheHits = 0;
}

void
SECore::requestSink(StreamId sid)
{
    sink(sid, "se_l2-request");
}

void
SECore::contextSwitchFlush()
{
    std::vector<StreamId> floating;
    for (size_t i = 0; i < _streams.size(); ++i) {
        const StreamState &s = _streams[i];
        if (s.active && s.floating && !s.cfg.hasIndirect)
            floating.push_back(static_cast<StreamId>(i));
    }
    for (StreamId sid : floating) {
        StreamState *sp = find(sid);
        if (!sp || !sp->floating)
            continue;
        StreamState &s = *sp;
        if (_floatCtrl)
            _floatCtrl->unfloatStream(sid);
        s.floating = false;
        s.floatFromElem = ~0ULL;
        for (StreamId child : s.children) {
            if (StreamState *c = find(child)) {
                c->floating = false;
                c->floatFromElem = ~0ULL;
            }
        }
        // Unlike a sink, a context switch carries no negative signal:
        // the stream may refloat after resumption.
        s.noRefloat = false;
    }
    // History is microarchitectural state tied to the context; a
    // switch discards it.
    _history.clear();
}

bool
SECore::maybeFloat(StreamId sid, uint64_t start_elem, bool at_config)
{
    if (!_floatCtrl)
        return false;
    StreamState &s = state(sid);
    if (s.cfg.isStore || s.cfg.hasIndirect || s.floating)
        return false;

    const StreamHistory &h = _history.row(sid);
    if (h.aliased || s.aliasDisabled || s.noRefloat)
        return false;

    bool decided = false;
    const char *reason = "";
    if (s.cfg.lengthKnown) {
        uint64_t footprint = s.cfg.footprintBytes();
        for (StreamId child : s.children) {
            if (const StreamState *c = find(child))
                footprint += c->cfg.footprintBytes();
        }
        if (footprint > _cfg.l2CapacityBytes) {
            decided = true;
            reason = "footprint";
            ++_stats.footprintFloats;
            SF_DPRINTF(StreamFloat,
                       "float decision sid=%d: footprint %llu B > L2 "
                       "%llu B",
                       sid, (unsigned long long)footprint,
                       (unsigned long long)_cfg.l2CapacityBytes);
        }
    }
    if (!decided && h.requests >= _cfg.floatDecisionRequests) {
        double miss_ratio =
            h.requests ? double(h.misses) / double(h.requests) : 0.0;
        double reuse_ratio =
            h.requests ? double(h.reuses) / double(h.requests) : 0.0;
        if (miss_ratio >= _cfg.floatMissRatio &&
            reuse_ratio <= _cfg.floatReuseRatio) {
            decided = true;
            reason = "history";
            ++_stats.historyFloats;
            SF_DPRINTF(StreamFloat,
                       "float decision sid=%d: history miss=%.2f "
                       "reuse=%.2f over %llu reqs",
                       sid, miss_ratio, reuse_ratio,
                       (unsigned long long)h.requests);
        }
    }
    if (!decided)
        return false;

    FloatRequest req;
    req.base = s.cfg;
    req.baseStart = start_elem;
    std::vector<StreamId> float_children =
        _cfg.floatIndirects ? s.children : std::vector<StreamId>();
    for (StreamId child : float_children) {
        const StreamState *c = find(child);
        if (!c)
            continue;
        FloatRequest::Indirect ind;
        ind.cfg = c->cfg;
        // The remote engine produces indirect elements for base
        // elements >= start_elem; anything earlier stays at the core.
        ind.start = ind.cfg.indirect.firstChild(start_elem);
        req.indirects.push_back(ind);
    }

    if (!_floatCtrl->floatStream(req)) {
        SF_DPRINTF(StreamFloat, "float rejected sid=%d (SE_L2 full)",
                   sid);
        return false;
    }

    ++_stats.streamsFloated;
    SF_DPRINTF(StreamFloat,
               "floated sid=%d from elem %llu (%s, %zu indirects)", sid,
               (unsigned long long)start_elem, reason,
               req.indirects.size());
    if (_streamLog) {
        s.traceGen = _floatCtrl->latestGen(sid);
        _streamLog->push_back({curTick(), {_tile, sid}, s.traceGen,
                               trace::StreamPhase::Float, _tile, reason});
    }
    s.floating = true;
    s.floatFromElem = start_elem;
    s.consecutiveCacheHits = 0;
    for (auto &ind : req.indirects) {
        StreamState &c = state(ind.cfg.sid);
        c.floating = true;
        c.floatFromElem = ind.start;
    }
    return true;
}

void
SECore::debugDump(std::FILE *f) const
{
    for (size_t sid = 0; sid < _streams.size(); ++sid) {
        const StreamState &s = _streams[sid];
        if (!s.active)
            continue;
        std::fprintf(f,
                     "  %s sid=%d float=%d dispatch=%llu commit=%llu "
                     "ready=%llu nextFetch=%llu window=%zu waiters=%zu "
                     "quota=%llu aliasDis=%d\n",
                     name().c_str(), static_cast<int>(sid), s.floating,
                     (unsigned long long)s.dispatchIter,
                     (unsigned long long)s.commitBase,
                     (unsigned long long)s.readyUpTo,
                     (unsigned long long)s.nextFetch, s.window.size(),
                     s.waiters.size(), (unsigned long long)s.quotaElems,
                     s.aliasDisabled);
    }
}

void
SECore::sink(StreamId sid, const char *reason)
{
    StreamState *sp = find(sid);
    if (!sp || !sp->floating)
        return;
    StreamState &s = *sp;
    SF_DPRINTF(StreamFloat, "sink sid=%d (%s)", sid, reason);
    if (_streamLog) {
        _streamLog->push_back({curTick(), {_tile, sid}, s.traceGen,
                               trace::StreamPhase::Sink, _tile, reason});
    }
    // Sink the whole group: the base and its indirect children.
    StreamId base = s.cfg.hasIndirect ? s.parent : sid;
    StreamState *bp = find(base);
    if (!bp || base == sid) {
        bp = &s;
        base = sid;
    }
    StreamState &bs = *bp;

    ++_stats.streamsSunk;
    if (_floatCtrl)
        _floatCtrl->unfloatStream(base);
    bs.floating = false;
    bs.noRefloat = true;
    bs.floatFromElem = ~0ULL;
    for (StreamId child : bs.children) {
        if (StreamState *c = find(child)) {
            c->floating = false;
            c->noRefloat = true;
            c->floatFromElem = ~0ULL;
        }
    }
}

} // namespace stream
} // namespace sf
