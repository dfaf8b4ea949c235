#include "mem/priv_cache.hh"

#include <algorithm>
#include <cstdlib>

#include "sim/debug.hh"
#include "sim/logging.hh"
#include "verify/data_plane.hh"

namespace sf {
namespace mem {

PrivCache::PrivCache(const std::string &name, EventQueue &eq, TileId tile,
                     const PrivCacheConfig &cfg, noc::Mesh &mesh,
                     const NucaMap &nuca)
    : SimObject(name, eq), _cfg(cfg), _tile(tile), _mesh(mesh),
      _nuca(nuca),
      _l1(cfg.l1Size, cfg.l1Ways, cfg.l1Policy),
      _l2(cfg.l2Size, cfg.l2Ways, cfg.l2Policy)
{
}

void
PrivCache::access(Access a)
{
    // Clamp accesses that straddle a line boundary to the first line.
    // Demand accesses are already split on virtual line boundaries by
    // the core (physical frames are scrambled, so paddr+64 is NOT the
    // next virtual line); the only callers that can still straddle are
    // SE fetches of odd-sized elements, where charging the first line
    // is an acceptable approximation.
    Addr first_line = lineAlign(a.paddr);
    Addr last_line = lineAlign(a.paddr + a.size - 1);
    if (first_line != last_line) {
        a.size = static_cast<uint16_t>(first_line + lineBytes - a.paddr);
    }

    // The L1 lookup result is available after the L1 latency.
    park<&PrivCache::accessL1>(_cfg.l1Latency, std::move(a));
}

template <void (PrivCache::*Phase)(Access)>
void
PrivCache::park(Cycles delay, Access &&a)
{
    Access *p = _accessPool.acquire(std::move(a));
    scheduleIn(delay, [this, p] { (this->*Phase)(_accessPool.take(p)); });
}

void
PrivCache::recordReuse(CacheLine &line, bool is_demand)
{
    // Table II "reuse" counts demand touches of stream-filled lines.
    // SE fetches hitting a sibling stream's lines are stream-internal
    // locality (handled by §IV-B constant-offset reuse after floating)
    // and must not disqualify the stream from floating.
    if (is_demand && line.fillStream != invalidStream && _reuseHook)
        _reuseHook(line.fillStream);
}

void
PrivCache::accessL1(Access a)
{
    CacheLine *l1_line = _l1.access(a.paddr);

    if (a.kind == AccessKind::FloatedFetch) {
        if (l1_line) {
            ++_stats.floatedHitsInCache;
            if (_streamBuf)
                _streamBuf->onFloatedHitInCache(a.stream, a.elemIdx);
            if (_prof && a.profId)
                _prof->mark(a.profId, prof::Phase::PrivCache, curTick());
            if (a.onDone)
                a.onDone();
            return;
        }
        // Check L2 tags after the L2 latency.
        park<&PrivCache::handleFloatedAccess>(_cfg.l2Latency, std::move(a));
        return;
    }

    if (a.kind == AccessKind::Prefetch) {
        // Prefetches skip the L1 lookup path; go straight to L2 state.
        accessL2(std::move(a), /*l1_was_miss=*/true);
        return;
    }

    bool is_demand = a.kind == AccessKind::Demand;

    if (l1_line) {
        // L1 hit. Writes need write permission at the L2 (E/M).
        ++_stats.l1Hits;
        recordReuse(*l1_line, is_demand);
        if (is_demand) {
            // First demand touch of a prefetched line counts as a
            // useful prefetch even when it is already resident in L1.
            CacheLine *l2_pf = _l2.probe(a.paddr);
            if (l2_pf && l2_pf->prefetched) {
                l2_pf->prefetched = false;
                ++_stats.prefetchesUseful;
            }
        }
        if (!a.isWrite) {
            if (is_demand && _l1Prefetcher) {
                _l1Prefetcher->observe({a.paddr, a.vaddr, a.pc,
                                        a.isWrite, false, false});
            }
            if (_prof && a.profId)
                _prof->mark(a.profId, prof::Phase::PrivCache, curTick());
            if (a.onDone)
                a.onDone();
            return;
        }
        CacheLine *l2_line = _l2.probe(a.paddr);
        sf_assert(l2_line, "L1 not inclusive in L2 for %llx",
                  (unsigned long long)a.paddr);
        if (l2_line->state == LineState::Modified ||
            l2_line->state == LineState::Exclusive) {
            l2_line->state = LineState::Modified;
            l1_line->dirty = true;
            if (_verify && a.vstore) {
                _verify->applyStorePiece(l2_line, a.paddr, a.vaddr,
                                         a.size, a.vstore);
            }
            if (is_demand && _l1Prefetcher) {
                _l1Prefetcher->observe({a.paddr, a.vaddr, a.pc,
                                        a.isWrite, false, false});
            }
            if (_prof && a.profId)
                _prof->mark(a.profId, prof::Phase::PrivCache, curTick());
            if (a.onDone)
                a.onDone();
            return;
        }
        // Shared: upgrade through the directory.
        accessL2(std::move(a), /*l1_was_miss=*/false);
        return;
    }

    ++_stats.l1Misses;
    if (is_demand) {
        // L1 MSHR bound: only l1Mshrs demand misses may be in flight.
        if (_l1MissInFlight >= _cfg.l1Mshrs) {
            _l1MissWaiters.push_back(std::move(a));
            return;
        }
        ++_l1MissInFlight;
        std::function<void()> *user_done =
            _missDonePool.acquire(std::move(a.onDone));
        a.onDone = [this, user_done] { l1MissDone(user_done); };
    }
    park<&PrivCache::accessL2Missed>(_cfg.l2Latency, std::move(a));
}

void
PrivCache::l1MissDone(std::function<void()> *user_done)
{
    --_l1MissInFlight;
    schedulePumpL1Waiters();
    std::function<void()> done = _missDonePool.take(user_done);
    if (done)
        done();
}

void
PrivCache::handleFloatedAccess(Access a)
{
    CacheLine *l2_line = _l2.access(a.paddr);
    if (l2_line) {
        ++_stats.floatedHitsInCache;
        l2_line->reused = true;
        recordReuse(*l2_line, false);
        if (_streamBuf)
            _streamBuf->onFloatedHitInCache(a.stream, a.elemIdx);
        if (_prof && a.profId)
            _prof->mark(a.profId, prof::Phase::PrivCache, curTick());
        if (a.onDone)
            a.onDone();
        return;
    }
    if (_streamBuf && _streamBuf->handleFloatedFetch(a))
        return;
    // Stream unknown at the SE_L2 (e.g. just sunk): fall back to a
    // normal stream fetch through the cache.
    a.kind = AccessKind::StreamFetch;
    accessL2(std::move(a), true);
}

void
PrivCache::accessL2(Access a, bool l1_was_miss)
{
    bool is_demand = a.kind == AccessKind::Demand;
    if (!_delayedEvictions.empty() && !_l2.probe(a.paddr))
        resurrectParkedLine(lineAlign(a.paddr));
    CacheLine *l2_line = _l2.access(a.paddr);

    bool can_complete = false;
    if (l2_line) {
        bool write_ok = !a.isWrite ||
                        l2_line->state == LineState::Modified ||
                        l2_line->state == LineState::Exclusive;
        can_complete = write_ok;
    }

    if (can_complete) {
        if (a.kind == AccessKind::Prefetch) {
            // Already present; nothing to do.
            return;
        }
        ++_stats.l2Hits;
        if (_prof && a.profId)
            _prof->mark(a.profId, prof::Phase::PrivCache, curTick());
        SF_DPRINTF(Cache, "L2 hit %s %llx kind=%d",
                   a.isWrite ? "st" : "ld", (unsigned long long)a.paddr,
                   (int)a.kind);
        if (l1_was_miss)
            l2_line->reused = true;
        recordReuse(*l2_line, is_demand);
        if (l2_line->prefetched) {
            l2_line->prefetched = false;
            ++_stats.prefetchesUseful;
        }
        if (a.isWrite) {
            l2_line->state = LineState::Modified;
            l2_line->dirty = true;
            if (_verify && a.vstore) {
                _verify->applyStorePiece(l2_line, a.paddr, a.vaddr,
                                         a.size, a.vstore);
            }
        }
        if (is_demand) {
            if (_l1Prefetcher) {
                _l1Prefetcher->observe({a.paddr, a.vaddr, a.pc,
                                        a.isWrite, true, false});
            }
        }
        if (is_demand || a.kind == AccessKind::StreamFetch)
            fillL1(a.paddr, a.isWrite);
        if (a.onDone)
            a.onDone();
        return;
    }

    // L2 miss (or upgrade). Coalesce into an existing MSHR if any.
    if (a.missOut)
        *a.missOut = true;
    Addr line_addr = lineAlign(a.paddr);
    auto it = _mshrs.find(line_addr);
    if (it != _mshrs.end()) {
        Mshr &m = it->second;
        if (a.kind == AccessKind::Prefetch)
            return; // demand/earlier request already in flight
        if (_prof && a.profId)
            _prof->mark(a.profId, prof::Phase::PrivCache, curTick());
        m.waiters.push_back(std::move(a));
        Access &queued = m.waiters.back();
        if (queued.isWrite && !m.pendingM)
            m.needsM = true;
        if (queued.kind == AccessKind::Demand)
            m.demandSeen = true;
        if (queued.kind == AccessKind::StreamFetch)
            m.streamFetchSeen = true;
        m.prefetched = false;
        return;
    }

    if (!mshrAvailable()) {
        _mshrWaiters.push_back(std::move(a));
        return;
    }

    if (is_demand) {
        ++_stats.l2Misses;
        SF_DPRINTF(Cache, "L2 miss %s %llx%s",
                   a.isWrite ? "st" : "ld", (unsigned long long)line_addr,
                   l2_line ? " (upgrade)" : "");
        if (_l1Prefetcher) {
            _l1Prefetcher->observe({a.paddr, a.vaddr, a.pc,
                                    a.isWrite, true, true});
        }
        if (_l2Prefetcher) {
            _l2Prefetcher->observe({a.paddr, a.vaddr, a.pc,
                                    a.isWrite, true, true});
        }
    } else if (a.kind == AccessKind::StreamFetch) {
        ++_stats.l2Misses;
        SF_DPRINTF(Cache, "L2 miss stream-fetch %llx sid=%d",
                   (unsigned long long)line_addr, (int)a.stream.sid);
    }

    Mshr m;
    m.lineAddr = line_addr;
    m.pendingM = a.isWrite;
    m.demandSeen = is_demand;
    m.streamFetchSeen = a.kind == AccessKind::StreamFetch;
    m.fillLevel = (a.kind == AccessKind::Prefetch) ? a.prefetchLevel : 1;
    m.prefetched = a.kind == AccessKind::Prefetch;
    if (a.kind == AccessKind::StreamFetch)
        m.fillStream = a.stream.sid;
    m.streamEligible = a.streamEligible ||
                       a.kind == AccessKind::StreamFetch;
    if (a.kind == AccessKind::Prefetch) {
        ++_stats.prefetchesIssued;
    }
    if (_prof && a.profId)
        _prof->mark(a.profId, prof::Phase::PrivCache, curTick());
    m.waiters.push_back(std::move(a));
    _mshrs.emplace(line_addr, std::move(m));

    MemMsgType req_type = _mshrs[line_addr].pendingM
                              ? MemMsgType::GetM
                              : MemMsgType::GetS;

    // Bulk prefetch grouping (only meaningful with >64B interleaving).
    if (_bulkPrefetch && req_type == MemMsgType::GetS &&
        _mshrs[line_addr].prefetched &&
        _nuca.interleaveBytes() > lineBytes) {
        if (!_bulkPending.empty() &&
            (homeBank(_bulkPending.back()) != homeBank(line_addr) ||
             _bulkPending.back() + lineBytes != line_addr ||
             _bulkPending.size() >= 4)) {
            // Flush the previous group as one request message.
            sendRequest(MemMsgType::GetS, _bulkPending.front(),
                        static_cast<uint16_t>(_bulkPending.size()));
            _bulkPending.clear();
        }
        _bulkPending.push_back(line_addr);
        if (_bulkPending.size() >= 4) {
            sendRequest(MemMsgType::GetS, _bulkPending.front(), 4);
            _bulkPending.clear();
        } else {
            // Drain stragglers shortly after.
            scheduleIn(8, [this]() {
                if (!_bulkPending.empty()) {
                    sendRequest(MemMsgType::GetS, _bulkPending.front(),
                                static_cast<uint16_t>(_bulkPending.size()));
                    _bulkPending.clear();
                }
            });
        }
        return;
    }

    sendRequest(req_type, line_addr, 1);
}

void
PrivCache::sendRequest(MemMsgType type, Addr line_addr, uint16_t bulk_lines,
                       std::shared_ptr<std::array<uint8_t, lineBytes>> vdata)
{
    TileId bank = homeBank(line_addr);
    auto msg = makeMemMsg(type, line_addr, _tile, bank, _tile);
    msg->bulkLines = bulk_lines;
    msg->vdata = std::move(vdata);
    auto it = _mshrs.find(line_addr);
    if (it != _mshrs.end()) {
        msg->prefetch = it->second.prefetched;
        if (it->second.streamFetchSeen)
            msg->reqClass = ReqClass::CoreStream;
        // Attribute remote latency to the request that opened the MSHR.
        if (_prof && !it->second.waiters.empty())
            msg->profId = it->second.waiters.front().profId;
    }
    SF_DPRINTF(Cache, "send %s %llx -> bank %d bulk=%u",
               memMsgName(type), (unsigned long long)line_addr, (int)bank,
               (unsigned)bulk_lines);
    _mesh.send(msg);
}

void
PrivCache::fillL1(Addr line_addr, bool dirty)
{
    line_addr = lineAlign(line_addr);
    CacheLine *existing = _l1.access(line_addr);
    if (existing) {
        existing->dirty = existing->dirty || dirty;
        return;
    }
    Eviction ev;
    CacheLine &nl = _l1.fill(line_addr, ev);
    if (ev.valid)
        evictL1Line(ev.line);
    nl.state = LineState::Shared; // permission checks consult the L2
    nl.dirty = dirty;
    CacheLine *l2_line = _l2.probe(line_addr);
    if (l2_line)
        nl.fillStream = l2_line->fillStream;
}

void
PrivCache::evictL1Line(const CacheLine &victim)
{
    if (!victim.dirty)
        return;
    CacheLine *l2_line = _l2.probe(victim.tag);
    sf_assert(l2_line, "L1 dirty victim not in L2");
    l2_line->dirty = true;
    l2_line->state = LineState::Modified;
    // §IV-E: tag the L2 line with the current credit head so racing
    // floating-stream loads are detected at L2 eviction time.
    if (_streamBuf)
        l2_line->seqNum = _streamBuf->currentCreditHead();
}

void
PrivCache::evictL2Line(const CacheLine &victim)
{
    ++_stats.l2Evictions;

    // Maintain inclusion: drop the L1 copy, folding dirty data.
    CacheLine *l1_copy = _l1.probe(victim.tag);
    bool dirty = victim.dirty;
    uint16_t seq = victim.seqNum;
    if (l1_copy) {
        if (l1_copy->dirty) {
            dirty = true;
            if (_streamBuf)
                seq = _streamBuf->currentCreditHead();
        }
        _l1.invalidate(victim.tag);
    }

    SF_DPRINTF(Cache, "L2 evict %llx%s%s",
               (unsigned long long)victim.tag, dirty ? " dirty" : "",
               victim.reused ? "" : " unreused");

    if (!victim.reused && !dirty) {
        ++_stats.l2EvictionsUnreused;
        if (victim.streamEligible)
            ++_stats.l2EvictionsUnreusedStream;
        // Fig. 2b attribution: fill request (1 ctrl) + fill data
        // response + eviction notice + ack.
        _stats.unreusedCtrlFlits += 3;
        _stats.unreusedDataFlits += _mesh.flitsOf(lineBytes);
    }

    if (dirty) {
        ++_stats.writebacks;
        // The directory considers us owner until the PutM is
        // processed; remember the outstanding put so racing forwards
        // are answered FwdMiss rather than deferred (see handleFwd).
        ++_pendingPuts[victim.tag];
        if (_streamBuf)
            _streamBuf->onDirtyEviction(victim.tag);
        if (_streamBuf && _streamBuf->mustDelayEviction(seq)) {
            CacheLine held = victim;
            held.dirty = true;
            held.seqNum = seq;
            _delayedEvictions.push_back(held);
            if (_delayedEvictions.size() > _cfg.maxDelayedEvictions)
                _streamBuf->onEvictionPressure();
            return;
        }
        // --verify: the dirty image now lives only inside the PutM.
        if (_verify && victim.vdata)
            _verify->noteInFlight(victim.tag, victim.vdata);
        sendRequest(MemMsgType::PutM, victim.tag, 1, victim.vdata);
    } else {
        ++_pendingPuts[victim.tag];
        sendRequest(MemMsgType::PutS, victim.tag);
    }
}

bool
PrivCache::resurrectParkedLine(Addr line_addr)
{
    for (auto it = _delayedEvictions.begin();
         it != _delayedEvictions.end(); ++it) {
        if (it->tag != line_addr)
            continue;
        CacheLine held = *it;
        _delayedEvictions.erase(it);
        auto put = _pendingPuts.find(line_addr);
        sf_assert(put != _pendingPuts.end(),
                  "parked line %llx without pending put",
                  (unsigned long long)line_addr);
        if (--put->second == 0)
            _pendingPuts.erase(put);
        Eviction ev;
        CacheLine &nl = _l2.fill(line_addr, ev);
        if (ev.valid)
            evictL2Line(ev.line);
        nl.state = LineState::Modified;
        nl.dirty = true;
        nl.seqNum = held.seqNum;
        nl.fillStream = held.fillStream;
        nl.streamEligible = held.streamEligible;
        nl.prefetched = false;
        nl.reused = true;
        nl.vdata = held.vdata;
        ++_stats.writebacksResurrected;
        SF_DPRINTF(Cache, "resurrect parked dirty line %llx",
                   (unsigned long long)line_addr);
        return true;
    }
    return false;
}

void
PrivCache::schedulePumpL1Waiters()
{
    if (_l1PumpScheduled || _l1MissWaiters.empty())
        return;
    _l1PumpScheduled = true;
    scheduleIn(1, [this]() {
        _l1PumpScheduled = false;
        // Drain while capacity remains: retried waiters either hit
        // (complete immediately) or take an in-flight token, so no
        // pump token can be lost.
        while (!_l1MissWaiters.empty() &&
               _l1MissInFlight < _cfg.l1Mshrs) {
            Access next = std::move(_l1MissWaiters.front());
            _l1MissWaiters.pop_front();
            accessL1(std::move(next));
        }
    });
}

void
PrivCache::drainDelayedEvictions()
{
    while (!_delayedEvictions.empty()) {
        const CacheLine &held = _delayedEvictions.front();
        if (_streamBuf && _streamBuf->mustDelayEviction(held.seqNum))
            break;
        if (_l2.probe(held.tag)) {
            // The line was re-installed while parked (defense in
            // depth; misses resurrect parked lines before this can
            // happen). Sending the stale PutM now would clear the
            // directory's owner field for our live copy.
            auto put = _pendingPuts.find(held.tag);
            if (put != _pendingPuts.end() && --put->second == 0)
                _pendingPuts.erase(put);
            _delayedEvictions.pop_front();
            continue;
        }
        verify::LinePtr vp = held.vdata;
        if (_verify && vp)
            _verify->noteInFlight(held.tag, vp);
        sendRequest(MemMsgType::PutM, held.tag, 1, std::move(vp));
        _delayedEvictions.pop_front();
    }
}

CacheLine &
PrivCache::fillL2(const Mshr &m, LineState state)
{
    Eviction ev;
    CacheLine &nl = _l2.fill(m.lineAddr, ev);
    if (ev.valid)
        evictL2Line(ev.line);
    nl.state = state;
    nl.dirty = state == LineState::Modified;
    nl.prefetched = m.prefetched;
    nl.fillStream = m.fillStream;
    nl.streamEligible = m.streamEligible;
    return nl;
}

void
PrivCache::handleData(const MemMsgPtr &msg)
{
    auto it = _mshrs.find(msg->lineAddr);
    if (it == _mshrs.end()) {
        // Response for a line we gave up on (should not happen with a
        // blocking directory). Ignore defensively.
        warn("%s: orphan data response %llx", name().c_str(),
             (unsigned long long)msg->lineAddr);
        return;
    }
    Mshr &m = it->second;

    LineState state = LineState::Shared;
    bool grants_write = false;
    switch (msg->type) {
      case MemMsgType::DataS:
        state = LineState::Shared;
        break;
      case MemMsgType::DataE:
        state = LineState::Exclusive;
        grants_write = true; // silent E->M upgrade
        break;
      case MemMsgType::DataM:
        state = LineState::Modified;
        grants_write = true;
        break;
      case MemMsgType::GetS:
      case MemMsgType::GetM:
      case MemMsgType::GetU:
      case MemMsgType::PutS:
      case MemMsgType::PutM:
      case MemMsgType::FwdGetS:
      case MemMsgType::FwdGetM:
      case MemMsgType::FwdGetU:
      case MemMsgType::Inv:
      case MemMsgType::InvAck:
      case MemMsgType::FwdAck:
      case MemMsgType::FwdMiss:
      case MemMsgType::PutAck:
      case MemMsgType::DataU:
      case MemMsgType::MemRead:
      case MemMsgType::MemWrite:
      case MemMsgType::MemData:
        panic("unexpected data type %s", memMsgName(msg->type));
    }

    bool any_write =
        m.pendingM || m.needsM ||
        std::any_of(m.waiters.begin(), m.waiters.end(),
                    [](const Access &a) { return a.isWrite; });

    if (any_write && !grants_write) {
        // Escalate: got shared data but a write is waiting.
        CacheLine *line = _l2.probe(m.lineAddr);
        if (!line)
            line = &fillL2(m, LineState::Shared);
        if (_verify) {
            _verify->privInstall(_tile, line, m.lineAddr,
                                 msg->vdata ? msg->vdata : line->vdata);
        }
        // Complete read-only waiters now.
        std::vector<Access> keep;
        for (auto &w : m.waiters) {
            if (w.isWrite) {
                keep.push_back(std::move(w));
                continue;
            }
            if (_prof && w.profId)
                _prof->mark(w.profId, prof::Phase::Remote, curTick());
            finishWaiter(w);
        }
        m.waiters = std::move(keep);
        m.pendingM = true;
        m.needsM = false;
        sendRequest(MemMsgType::GetM, m.lineAddr);
        // Deferred invalidations must not wait for the DataM: the
        // directory may be holding a txn open for our InvAck, with our
        // GetM queued behind it. The line is filled Shared now, so
        // answer them (the MSHR survives; DataM carries a full line).
        if (!m.deferredFwds.empty()) {
            std::vector<MemMsgPtr> deferred = std::move(m.deferredFwds);
            m.deferredFwds.clear();
            for (const auto &f : deferred) {
                if (f->type == MemMsgType::Inv)
                    handleInv(f);
                else
                    handleFwd(f);
            }
        }
        return;
    }

    CacheLine *line = _l2.probe(m.lineAddr);
    if (!line) {
        line = &fillL2(m, state);
    } else {
        // Upgrade response on a line still resident (or refetched
        // after a racing Inv cleared it).
        line->state = state;
    }
    if (_verify) {
        _verify->privInstall(_tile, line, m.lineAddr,
                             msg->vdata ? msg->vdata : line->vdata);
    }
    if (any_write) {
        line->state = LineState::Modified;
        line->dirty = true;
    }

    bool fill_l1 = m.fillLevel == 1 || m.demandSeen || m.streamFetchSeen;
    if (fill_l1)
        fillL1(m.lineAddr, false);

    for (auto &w : m.waiters) {
        if (w.isWrite) {
            CacheLine *l1c = _l1.probe(m.lineAddr);
            if (l1c)
                l1c->dirty = true;
            line->dirty = true;
            if (_verify && w.vstore) {
                _verify->applyStorePiece(line, w.paddr, w.vaddr, w.size,
                                         w.vstore);
            }
        }
        if (_prof && w.profId)
            _prof->mark(w.profId, prof::Phase::Remote, curTick());
        finishWaiter(w);
    }

    // Replay forwards that raced the fill, now that the line (and our
    // waiters' writes) are in place: the handover proceeds as if the
    // forward had arrived just after the data.
    std::vector<MemMsgPtr> deferred = std::move(m.deferredFwds);
    _mshrs.erase(it);
    for (const auto &f : deferred) {
        if (f->type == MemMsgType::Inv)
            handleInv(f);
        else
            handleFwd(f);
    }
    retryMshrWaiters();
}

void
PrivCache::handleInv(const MemMsgPtr &msg)
{
    // Invalidation from the directory: either a sharer invalidation
    // (fire-and-forget; an in-flight GetM for the same line keeps its
    // MSHR because DataM always carries the full line) or a recall of
    // an owned line, whose ack must carry data if our copy is dirty.
    bool dirty = false;
    CacheLine *l2_line = _l2.probe(msg->lineAddr);
    if (!l2_line) {
        // Same early-forward race as handleFwd: an open MSHR with no
        // put outstanding means a grant to us is in flight (we are the
        // sharer/owner the directory is invalidating). Acking now
        // would let the directory move on while our data lands later,
        // leaving a stale copy. Hold the Inv until the fill.
        auto it = _mshrs.find(msg->lineAddr);
        if (it != _mshrs.end() && !_pendingPuts.count(msg->lineAddr)) {
            it->second.deferredFwds.push_back(msg);
            ++_stats.fwdsDeferred;
            SF_DPRINTF(Cache, "defer Inv %llx (fill in flight)",
                       (unsigned long long)msg->lineAddr);
            return;
        }
    } else {
        dirty = l2_line->dirty;
    }
    if (CacheLine *l1_line = _l1.probe(msg->lineAddr))
        dirty = dirty || l1_line->dirty;
    verify::LinePtr vp = l2_line ? l2_line->vdata : nullptr;
    _l1.invalidate(msg->lineAddr);
    _l2.invalidate(msg->lineAddr);
    auto ack = makeMemMsg(MemMsgType::InvAck, msg->lineAddr, _tile,
                          msg->src, msg->requester);
    if (dirty) {
        ack->payloadBytes = lineBytes;
        ack->dataBytes = lineBytes;
        ack->cls = noc::FlitClass::Data;
        ack->vnet = noc::VNet::Response;
        if (_verify && vp) {
            ack->vdata = vp;
            _verify->noteInFlight(msg->lineAddr, vp);
        }
    }
    _mesh.send(ack);
}

void
PrivCache::handleFwd(const MemMsgPtr &msg)
{
    CacheLine *line = _l2.probe(msg->lineAddr);
    TileId bank = msg->src;

    if (!line) {
        // Two distinct races land here. With a put outstanding for the
        // line, the directory forwarded to us off a stale owner field
        // (our PutS/PutM is still in flight or parked): answer FwdMiss
        // so the directory re-serves once the put is ordered. With an
        // open MSHR and NO put outstanding, the directory granted US
        // the line and forwarded a later request before our data
        // arrived (early forward): answering FwdMiss would let the
        // directory hand ownership elsewhere while our DataM/DataE is
        // in flight, creating two owners. Defer until the fill.
        auto it = _mshrs.find(msg->lineAddr);
        if (it != _mshrs.end() && !_pendingPuts.count(msg->lineAddr)) {
            it->second.deferredFwds.push_back(msg);
            ++_stats.fwdsDeferred;
            SF_DPRINTF(Cache, "defer %s %llx (fill in flight)",
                       memMsgName(msg->type),
                       (unsigned long long)msg->lineAddr);
            return;
        }
        auto miss = makeMemMsg(MemMsgType::FwdMiss, msg->lineAddr, _tile,
                               bank, msg->requester);
        _mesh.send(miss);
        return;
    }

    if (msg->type == MemMsgType::FwdGetU) {
        // Uncached read: forward data, state unchanged (Fig. 12c).
        answerGetU(*msg, _tile);
        // --verify: DataU captures the serve-time image (uncached reads
        // are not kept coherent afterwards).
        if (_verify)
            msg->vdata = _verify->snapshot(msg->lineAddr);
        _mesh.send(msg);
        auto ack = makeMemMsg(MemMsgType::FwdAck, msg->lineAddr, _tile,
                              bank, msg->requester);
        _mesh.send(ack);
        return;
    }

    if (msg->type == MemMsgType::FwdGetM) {
        // Hand the line (and ownership) to the requester; drop ours.
        verify::LinePtr vp = line->vdata;
        _l1.invalidate(msg->lineAddr);
        _l2.invalidate(msg->lineAddr);
        auto data = makeMemMsg(MemMsgType::DataM, msg->lineAddr, _tile,
                               msg->requester, msg->requester);
        data->profId = msg->profId;
        if (_verify && vp) {
            data->vdata = vp;
            _verify->noteInFlight(msg->lineAddr, vp);
        }
        _mesh.send(data);
        auto ack = makeMemMsg(MemMsgType::FwdAck, msg->lineAddr, _tile,
                              bank, msg->requester);
        _mesh.send(ack);
        return;
    }

    sf_assert(msg->type == MemMsgType::FwdGetS, "bad fwd type");
    // Downgrade M/E -> S, send data to the requester, and ack the
    // directory (with data if we were dirty, so the L3 copy is fresh).
    bool was_dirty = line->dirty;
    CacheLine *l1c = _l1.probe(msg->lineAddr);
    if (l1c && l1c->dirty) {
        was_dirty = true;
        l1c->dirty = false;
    }
    line->state = LineState::Shared;
    line->dirty = false;

    auto data = makeMemMsg(MemMsgType::DataS, msg->lineAddr, _tile,
                           msg->requester, msg->requester);
    data->profId = msg->profId;
    data->vdata = line->vdata;
    _mesh.send(data);
    auto ack = makeMemMsg(MemMsgType::FwdAck, msg->lineAddr, _tile, bank,
                          msg->requester);
    if (was_dirty) {
        ack->payloadBytes = lineBytes;
        ack->dataBytes = lineBytes;
        ack->cls = noc::FlitClass::Data;
        ack->vnet = noc::VNet::Response;
        // We keep a Shared copy, so the image stays observable here;
        // the ack lets the L3 refresh its own copy.
        ack->vdata = line->vdata;
    }
    _mesh.send(ack);
}

void
PrivCache::recvMsg(const MemMsgPtr &msg)
{
    switch (msg->type) {
      case MemMsgType::DataS:
      case MemMsgType::DataE:
      case MemMsgType::DataM:
        handleData(msg);
        break;
      case MemMsgType::DataU:
        if (_streamBuf)
            _streamBuf->recvDataU(msg);
        drainDelayedEvictions();
        break;
      case MemMsgType::Inv:
        handleInv(msg);
        break;
      case MemMsgType::FwdGetS:
      case MemMsgType::FwdGetM:
      case MemMsgType::FwdGetU:
        handleFwd(msg);
        break;
      case MemMsgType::PutAck: {
        auto put = _pendingPuts.find(msg->lineAddr);
        if (put != _pendingPuts.end() && --put->second == 0)
            _pendingPuts.erase(put);
        break;
      }
      case MemMsgType::GetS:
      case MemMsgType::GetM:
      case MemMsgType::GetU:
      case MemMsgType::PutS:
      case MemMsgType::PutM:
      case MemMsgType::InvAck:
      case MemMsgType::FwdAck:
      case MemMsgType::FwdMiss:
      case MemMsgType::MemRead:
      case MemMsgType::MemWrite:
      case MemMsgType::MemData:
        panic("PrivCache %s got unexpected %s", name().c_str(),
              memMsgName(msg->type));
    }
}

void
PrivCache::debugDump(std::FILE *f) const
{
    // Sorted snapshot: _mshrs is hash-ordered and the dump must be
    // reproducible (sflint D1).
    std::vector<Addr> addrs;
    addrs.reserve(_mshrs.size());
    // sflint: ordered-ok(key collection only; sorted before printing)
    for (const auto &kv : _mshrs)
        addrs.push_back(kv.first);
    std::sort(addrs.begin(), addrs.end());
    for (Addr addr : addrs) {
        const Mshr &m = _mshrs.at(addr);
        std::fprintf(f,
                     "  %s mshr line=%llx pendingM=%d needsM=%d "
                     "waiters=%zu demand=%d stream=%d pf=%d "
                     "deferredFwds=%zu\n",
                     name().c_str(), (unsigned long long)addr,
                     m.pendingM, m.needsM, m.waiters.size(),
                     m.demandSeen, m.streamFetchSeen, m.prefetched,
                     m.deferredFwds.size());
    }
    if (!_mshrWaiters.empty())
        std::fprintf(f, "  %s mshrWaiters=%zu\n", name().c_str(),
                     _mshrWaiters.size());
    if (_l1MissInFlight > 0 || !_l1MissWaiters.empty()) {
        std::fprintf(f, "  %s l1MissInFlight=%u l1MissWaiters=%zu\n",
                     name().c_str(), _l1MissInFlight,
                     _l1MissWaiters.size());
    }
    if (!_delayedEvictions.empty())
        std::fprintf(f, "  %s delayedEvictions=%zu\n", name().c_str(),
                     _delayedEvictions.size());
}

void
PrivCache::finishWaiter(Access &w)
{
    // Data is at the L2; charge the L1 fill latency to the consumer.
    if (w.onDone)
        scheduleIn(_cfg.l1Latency, std::move(w.onDone));
}

void
PrivCache::retryMshrWaiters()
{
    while (!_mshrWaiters.empty() && mshrAvailable()) {
        Access a = std::move(_mshrWaiters.front());
        _mshrWaiters.pop_front();
        accessL2(std::move(a), true);
    }
}

} // namespace mem
} // namespace sf
