#include "mem/l3_bank.hh"

#include <algorithm>
#include <cstdlib>

#include "sim/debug.hh"
#include "sim/logging.hh"
#include "verify/data_plane.hh"

namespace sf {
namespace mem {

L3Bank::L3Bank(const std::string &name, EventQueue &eq, TileId tile,
               const L3BankConfig &cfg, noc::Mesh &mesh,
               const NucaMap &nuca)
    : SimObject(name, eq), _cfg(cfg), _tile(tile), _mesh(mesh),
      _nuca(nuca), _array(cfg.sizeBytes, cfg.ways, cfg.policy)
{
    // Bank-local set indexing: compact this bank's NUCA slice so its
    // sets cover the whole address space (otherwise only 1/numTiles of
    // the sets would ever be used).
    uint64_t interleave = _nuca.interleaveBytes();
    uint64_t tiles = static_cast<uint64_t>(_nuca.numTiles());
    _array.setIndexFunction([interleave, tiles](Addr pa) {
        uint64_t chunk = pa / interleave / tiles;
        uint64_t line_in_chunk = (pa % interleave) / lineBytes;
        return chunk * (interleave / lineBytes) + line_in_chunk;
    });
}

void
L3Bank::recvMsg(const MemMsgPtr &msg)
{
    switch (msg->type) {
      case MemMsgType::InvAck:
        handleInvAck(msg);
        return;
      case MemMsgType::FwdAck:
        handleFwdAck(msg);
        return;
      case MemMsgType::FwdMiss:
        handleFwdMiss(msg);
        return;
      case MemMsgType::MemData:
        handleMemData(msg);
        return;
      case MemMsgType::GetS:
      case MemMsgType::GetM:
      case MemMsgType::GetU:
      case MemMsgType::PutS:
      case MemMsgType::PutM:
      case MemMsgType::FwdGetS:
      case MemMsgType::FwdGetM:
      case MemMsgType::FwdGetU:
      case MemMsgType::Inv:
      case MemMsgType::PutAck:
      case MemMsgType::DataS:
      case MemMsgType::DataE:
      case MemMsgType::DataM:
      case MemMsgType::DataU:
      case MemMsgType::MemRead:
      case MemMsgType::MemWrite:
        break;
    }
    sf_assert(_nuca.bankOf(msg->lineAddr) == _tile,
              "%s for a line homed elsewhere", memMsgName(msg->type));

    // Bulk prefetch: one request message carries several consecutive
    // line requests (§VI); expand locally at zero NoC cost.
    if (msg->bulkLines > 1) {
        for (uint16_t i = 0; i < msg->bulkLines; ++i) {
            auto sub = std::make_shared<MemMsg>(*msg);
            sub->lineAddr = msg->lineAddr + uint64_t(i) * lineBytes;
            sub->bulkLines = 1;
            after<&L3Bank::process>(_cfg.latency, sub);
        }
        return;
    }

    // Charge the bank access pipeline up front: the latency is fixed,
    // so attributing it at receipt keeps the hot path branch-free.
    if (_prof && msg->profId)
        _prof->add(msg->profId, prof::Phase::L3Service, _cfg.latency);
    after<&L3Bank::process>(_cfg.latency, msg);
}

template <void (L3Bank::*Fn)(const MemMsgPtr &)>
void
L3Bank::after(Cycles delay, const MemMsgPtr &msg)
{
    MemMsgPtr *p = _msgPool.acquire(msg);
    scheduleIn(delay, [this, p] { (this->*Fn)(_msgPool.take(p)); });
}

void
L3Bank::process(const MemMsgPtr &msg)
{
    // Writebacks are never blocked: a racing Fwd may be waiting on the
    // PutM data to arrive.
    if (msg->type == MemMsgType::PutS || msg->type == MemMsgType::PutM) {
        handlePut(msg);
        return;
    }

    if (lineBlocked(msg->lineAddr)) {
        if (_prof && msg->profId && !msg->profEnqTick)
            msg->profEnqTick = curTick();
        _txns[msg->lineAddr].queued.push_back(msg);
        return;
    }
    if (_prof && msg->profId && msg->profEnqTick) {
        _prof->add(msg->profId, prof::Phase::L3Queue,
                   curTick() - msg->profEnqTick);
        msg->profEnqTick = 0;
    }

    SF_DPRINTF(Cache, "%s %llx from tile %d", memMsgName(msg->type),
               (unsigned long long)msg->lineAddr, (int)msg->requester);

    switch (msg->type) {
      case MemMsgType::GetS:
        handleGetS(msg);
        break;
      case MemMsgType::GetM:
        handleGetM(msg);
        break;
      case MemMsgType::GetU:
        handleGetU(msg);
        break;
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
      case MemMsgType::DataS:
      case MemMsgType::DataE:
      case MemMsgType::DataM:
      case MemMsgType::DataU:
      case MemMsgType::MemRead:
      case MemMsgType::MemWrite:
      case MemMsgType::MemData:
        panic("L3 %s got unexpected %s", name().c_str(),
              memMsgName(msg->type));
    }
}

void
L3Bank::serveUncached(const MemMsgPtr &msg)
{
    answerGetU(*msg, _tile);
    // --verify: DataU carries the serve-time image. Normally that is
    // the system-wide view; under the stale-getu injection only this
    // bank's (possibly stale) copy is consulted.
    if (_verify) {
        if (_verifyBug == "stale-getu") {
            CacheLine *l = _array.probe(msg->lineAddr);
            msg->vdata = (l && l->vdata) ? l->vdata
                                         : _verify->dramSnapshot(msg->lineAddr);
        } else {
            msg->vdata = _verify->snapshot(msg->lineAddr);
        }
    }
    _mesh.send(msg);
    runServed(*msg);
}

void
L3Bank::runServed(MemMsg &msg)
{
    if (!msg.onServed)
        return;
    auto fn = std::move(msg.onServed);
    msg.onServed = nullptr;
    fn();
}

void
L3Bank::serveShared(const MemMsgPtr &msg, CacheLine &line)
{
    if (line.sharers == 0 && line.owner == invalidTile) {
        // Grant Exclusive; the directory remembers the E owner.
        line.owner = msg->requester;
        auto data = makeMemMsg(MemMsgType::DataE, msg->lineAddr, _tile,
                               msg->requester, msg->requester);
        data->profId = msg->profId;
        data->vdata = line.vdata;
        _mesh.send(data);
    } else {
        line.sharers |= (1ULL << msg->requester);
        auto data = makeMemMsg(MemMsgType::DataS, msg->lineAddr, _tile,
                               msg->requester, msg->requester);
        data->profId = msg->profId;
        data->vdata = line.vdata;
        _mesh.send(data);
    }
}

void
L3Bank::handleGetS(const MemMsgPtr &msg)
{
    ++_stats.requestsByClass[static_cast<size_t>(msg->reqClass)];
    CacheLine *line = _array.access(msg->lineAddr);

    if (line && line->owner != invalidTile &&
        line->owner != msg->requester) {
        ++_stats.hits;
        ++_stats.fwdRequests;
        Txn txn;
        txn.state = Txn::State::WaitFwdAck;
        txn.req = msg;
        auto fwd = makeMemMsg(MemMsgType::FwdGetS, msg->lineAddr, _tile,
                              line->owner, msg->requester);
        fwd->profId = msg->profId;
        _mesh.send(fwd);
        _txns.emplace(msg->lineAddr, std::move(txn));
        return;
    }

    if (line) {
        ++_stats.hits;
        if (line->owner == msg->requester) {
            // Degenerate: requester believes it missed (racing evict);
            // clear ownership and re-grant.
            line->owner = invalidTile;
        }
        serveShared(msg, *line);
        return;
    }

    ++_stats.misses;
    Txn txn;
    txn.state = Txn::State::WaitMem;
    txn.req = msg;
    txn.memIssueTick = curTick();
    _txns.emplace(msg->lineAddr, std::move(txn));
    startMemFetch(msg->lineAddr);
}

void
L3Bank::handleGetM(const MemMsgPtr &msg)
{
    ++_stats.requestsByClass[static_cast<size_t>(msg->reqClass)];
    CacheLine *line = _array.access(msg->lineAddr);

    if (line && line->owner != invalidTile &&
        line->owner != msg->requester) {
        ++_stats.hits;
        ++_stats.fwdRequests;
        Txn txn;
        txn.state = Txn::State::WaitFwdAck;
        txn.req = msg;
        auto fwd = makeMemMsg(MemMsgType::FwdGetM, msg->lineAddr, _tile,
                              line->owner, msg->requester);
        fwd->profId = msg->profId;
        _mesh.send(fwd);
        _txns.emplace(msg->lineAddr, std::move(txn));
        return;
    }

    if (line) {
        ++_stats.hits;
        uint64_t others =
            line->sharers & ~(1ULL << msg->requester);
        if (others) {
            Txn txn;
            txn.state = Txn::State::WaitInvAcks;
            txn.req = msg;
            auto inv = std::make_shared<MemMsg>();
            inv->type = MemMsgType::Inv;
            inv->lineAddr = msg->lineAddr;
            inv->src = _tile;
            inv->requester = msg->requester;
            inv->cls = noc::FlitClass::Control;
            inv->vnet = noc::VNet::Control;
            int count = 0;
            for (TileId t = 0; t < _mesh.numTiles(); ++t) {
                if (others & (1ULL << t)) {
                    inv->dests.push_back(t);
                    ++count;
                }
            }
            txn.pendingAcks = count;
            _mesh.send(inv);
            _txns.emplace(msg->lineAddr, std::move(txn));
            return;
        }
        line->sharers = 0;
        line->owner = msg->requester;
        auto data = makeMemMsg(MemMsgType::DataM, msg->lineAddr, _tile,
                               msg->requester, msg->requester);
        data->profId = msg->profId;
        data->vdata = line->vdata;
        _mesh.send(data);
        return;
    }

    ++_stats.misses;
    Txn txn;
    txn.state = Txn::State::WaitMem;
    txn.req = msg;
    txn.memIssueTick = curTick();
    _txns.emplace(msg->lineAddr, std::move(txn));
    startMemFetch(msg->lineAddr);
}

void
L3Bank::handleGetU(const MemMsgPtr &msg)
{
    ++_stats.requestsByClass[static_cast<size_t>(msg->reqClass)];
    CacheLine *line = _array.access(msg->lineAddr);

    if (line && line->owner == invalidTile) {
        ++_stats.hits;
        serveUncached(msg);
        return;
    }

    if (line && _verifyBug == "stale-getu") {
        // Injected bug: serve the stale local copy instead of
        // forwarding to the owner (caught by the oracle, exit 67).
        ++_stats.hits;
        serveUncached(msg);
        return;
    }

    if (line) {
        ++_stats.hits;
        ++_stats.fwdRequests;
        Txn txn;
        txn.state = Txn::State::WaitFwdAck;
        txn.req = msg;
        auto fwd = makeMemMsg(MemMsgType::FwdGetU, msg->lineAddr, _tile,
                              line->owner, msg->requester);
        fwd->profId = msg->profId;
        fwd->stream = msg->stream;
        fwd->streamGen = msg->streamGen;
        fwd->elemIdx = msg->elemIdx;
        fwd->elemCount = msg->elemCount;
        fwd->dataBytes = msg->dataBytes;
        fwd->mergedStreams = msg->mergedStreams;
        _mesh.send(fwd);
        _txns.emplace(msg->lineAddr, std::move(txn));
        return;
    }

    ++_stats.misses;
    Txn txn;
    txn.state = Txn::State::WaitMem;
    txn.req = msg;
    txn.memIssueTick = curTick();
    _txns.emplace(msg->lineAddr, std::move(txn));
    startMemFetch(msg->lineAddr);
}

void
L3Bank::handlePut(const MemMsgPtr &msg)
{
    CacheLine *line = _array.probe(msg->lineAddr);
    if (line) {
        if (msg->type == MemMsgType::PutM) {
            line->dirty = true;
            if (line->owner == msg->src)
                line->owner = invalidTile;
            if (_verify) {
                if (_verifyBug == "drop-putm-data") {
                    // Injected bug: lose the writeback's byte image.
                    _verify->clearInFlight(msg->lineAddr);
                } else {
                    _verify->l3Install(line, msg->lineAddr,
                                       msg->vdata ? msg->vdata
                                                  : line->vdata);
                }
            }
        } else {
            line->sharers &= ~(1ULL << msg->src);
            if (line->owner == msg->src)
                line->owner = invalidTile; // clean E eviction
        }
    } else if (_verify && msg->type == MemMsgType::PutM) {
        // Line no longer resident at the L3 (defensive): the writeback
        // bytes fall straight through to the DRAM shadow.
        if (_verifyBug == "drop-putm-data")
            _verify->clearInFlight(msg->lineAddr);
        else
            _verify->dramWrite(msg->lineAddr, msg->vdata);
    }
    auto ack = makeMemMsg(MemMsgType::PutAck, msg->lineAddr, _tile,
                          msg->src, msg->src);
    _mesh.send(ack);
}

void
L3Bank::recallOwnedLine(Addr fill_addr)
{
    CacheLine *victim = nullptr;
    _array.forEachInSet(fill_addr, [&](CacheLine &l) {
        if (!victim && l.valid() && l.owner != invalidTile &&
            !lineBlocked(l.tag)) {
            victim = &l;
        }
    });
    if (!victim)
        return; // recalls already in flight for every candidate
    ++_stats.recalls;
    Txn txn;
    txn.state = Txn::State::WaitInvAcks;
    txn.isRecall = true;
    txn.pendingAcks = 1;
    auto inv = makeMemMsg(MemMsgType::Inv, victim->tag, _tile,
                          victim->owner, _tile);
    _mesh.send(inv);
    _txns.emplace(victim->tag, std::move(txn));
}

void
L3Bank::handleInvAck(const MemMsgPtr &msg)
{
    auto it = _txns.find(msg->lineAddr);
    if (it == _txns.end())
        return; // ack for an already-satisfied upgrade (racing PutS)
    Txn &txn = it->second;
    if (txn.state != Txn::State::WaitInvAcks)
        return;
    if (--txn.pendingAcks > 0)
        return;

    if (txn.isRecall) {
        CacheLine *line = _array.probe(msg->lineAddr);
        if (line) {
            line->owner = invalidTile;
            line->sharers = 0;
            if (msg->payloadBytes > 0)
                line->dirty = true; // the owner's copy was modified
            if (_verify) {
                _verify->l3Install(line, msg->lineAddr,
                                   msg->vdata ? msg->vdata
                                              : line->vdata);
            }
        }
        finalize(msg->lineAddr);
        return;
    }

    CacheLine *line = _array.probe(msg->lineAddr);
    sf_assert(line, "line vanished during invalidation");
    line->sharers = 0;
    line->owner = txn.req->requester;
    auto data = makeMemMsg(MemMsgType::DataM, msg->lineAddr, _tile,
                           txn.req->requester, txn.req->requester);
    data->profId = txn.req->profId;
    data->vdata = msg->vdata ? msg->vdata : line->vdata;
    _mesh.send(data);
    finalize(msg->lineAddr);
}

void
L3Bank::handleFwdAck(const MemMsgPtr &msg)
{
    auto it = _txns.find(msg->lineAddr);
    if (it == _txns.end() || it->second.state != Txn::State::WaitFwdAck)
        return;
    Txn &txn = it->second;
    CacheLine *line = _array.probe(msg->lineAddr);
    sf_assert(line, "owned line vanished during forward");

    if (txn.req->type == MemMsgType::GetU) {
        // Uncached forward: owner state unchanged (Fig. 12c).
        runServed(*txn.req);
    } else if (txn.req->type == MemMsgType::GetS) {
        TileId old_owner = line->owner;
        line->owner = invalidTile;
        line->sharers |= (1ULL << old_owner);
        line->sharers |= (1ULL << txn.req->requester);
        if (msg->payloadBytes > 0)
            line->dirty = true; // owner pushed fresh data to us
        if (_verify && msg->vdata)
            _verify->l3Install(line, msg->lineAddr, msg->vdata);
    } else if (txn.req->type == MemMsgType::GetM) {
        line->owner = txn.req->requester;
        line->sharers = 0;
    }
    finalize(msg->lineAddr);
}

void
L3Bank::handleFwdMiss(const MemMsgPtr &msg)
{
    auto it = _txns.find(msg->lineAddr);
    if (it == _txns.end() || it->second.state != Txn::State::WaitFwdAck)
        return;
    Txn &txn = it->second;
    // The former owner's PutM was processed before this miss notice
    // (in-order delivery on the mesh), so the L3 copy is current.
    CacheLine *line = _array.probe(msg->lineAddr);
    sf_assert(line, "FwdMiss with no resident line");
    line->owner = invalidTile;

    if (txn.req->type == MemMsgType::GetU) {
        serveUncached(txn.req);
    } else if (txn.req->type == MemMsgType::GetS) {
        serveShared(txn.req, *line);
    } else {
        line->sharers = 0;
        line->owner = txn.req->requester;
        auto data = makeMemMsg(MemMsgType::DataM, msg->lineAddr, _tile,
                               txn.req->requester, txn.req->requester);
        data->profId = txn.req->profId;
        data->vdata = line->vdata;
        _mesh.send(data);
    }
    finalize(msg->lineAddr);
}

void
L3Bank::startMemFetch(Addr line_addr)
{
    ++_stats.memReads;
    SF_DPRINTF(Cache, "L3 miss %llx -> mem ctrl %d",
               (unsigned long long)line_addr,
               (int)_nuca.memCtrlOf(line_addr));
    TileId ctrl = _nuca.memCtrlOf(line_addr);
    auto rd = makeMemMsg(MemMsgType::MemRead, line_addr, _tile, ctrl,
                         _tile);
    _mesh.send(rd);
}

CacheLine *
L3Bank::allocate(Addr line_addr)
{
    Eviction ev;
    CacheLine *line = _array.fillIf(
        line_addr, ev, [this](const CacheLine &l) {
            // Owned lines need a recall; lines with an in-flight
            // transaction (invalidation, forward) must stay put.
            return l.owner == invalidTile && !lineBlocked(l.tag);
        });
    if (!line)
        return nullptr;

    if (ev.valid) {
        const CacheLine &victim = ev.line;
        if (victim.sharers) {
            // Back-invalidate sharers (fire-and-forget; DataM always
            // carries full data so racing upgrades stay correct).
            ++_stats.backInvalidations;
            auto inv = std::make_shared<MemMsg>();
            inv->type = MemMsgType::Inv;
            inv->lineAddr = victim.tag;
            inv->src = _tile;
            inv->requester = _tile;
            inv->cls = noc::FlitClass::Control;
            inv->vnet = noc::VNet::Control;
            for (TileId t = 0; t < _mesh.numTiles(); ++t) {
                if (victim.sharers & (1ULL << t))
                    inv->dests.push_back(t);
            }
            _mesh.send(inv);
        }
        if (victim.dirty) {
            ++_stats.memWrites;
            TileId ctrl = _nuca.memCtrlOf(victim.tag);
            auto wr = makeMemMsg(MemMsgType::MemWrite, victim.tag, _tile,
                                 ctrl, _tile);
            if (_verify && victim.vdata) {
                wr->vdata = victim.vdata;
                _verify->noteInFlight(victim.tag, victim.vdata);
            }
            _mesh.send(wr);
        }
    }
    line->state = LineState::Shared; // "valid" for the L3 array
    line->dirty = false;
    return line;
}

void
L3Bank::handleMemData(const MemMsgPtr &msg)
{
    auto it = _txns.find(msg->lineAddr);
    if (it == _txns.end() || it->second.state != Txn::State::WaitMem)
        return;
    Txn &txn = it->second;

    CacheLine *line = _array.probe(msg->lineAddr);
    if (!line)
        line = allocate(msg->lineAddr);
    if (!line) {
        // Every way in the set is owned: recall one owner so the fill
        // can proceed (directories must support recalls to stay
        // inclusive), then retry.
        ++_stats.fillRetries;
        recallOwnedLine(msg->lineAddr);
        after<&L3Bank::handleMemData>(64, msg);
        return;
    }

    // Attribute the DRAM round trip (including any fill-retry wait) to
    // the request that opened the transaction.
    if (_prof && txn.req->profId) {
        _prof->add(txn.req->profId, prof::Phase::Mem,
                   curTick() - txn.memIssueTick);
    }

    switch (txn.req->type) {
      case MemMsgType::GetS:
        serveShared(txn.req, *line);
        break;
      case MemMsgType::GetM: {
        line->sharers = 0;
        line->owner = txn.req->requester;
        auto data = makeMemMsg(MemMsgType::DataM, msg->lineAddr,
                               _tile, txn.req->requester,
                               txn.req->requester);
        data->profId = txn.req->profId;
        data->vdata = line->vdata;
        sendToTile(data);
        break;
      }
      case MemMsgType::GetU:
        serveUncached(txn.req);
        break;
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
      case MemMsgType::DataS:
      case MemMsgType::DataE:
      case MemMsgType::DataM:
      case MemMsgType::DataU:
      case MemMsgType::MemRead:
      case MemMsgType::MemWrite:
      case MemMsgType::MemData:
        panic("bad txn request type");
    }
    finalize(msg->lineAddr);
}

void
L3Bank::debugDump(std::FILE *f) const
{
    // Sorted snapshot: _txns is hash-ordered and the dump must be
    // reproducible (sflint D1).
    std::vector<Addr> addrs;
    addrs.reserve(_txns.size());
    // sflint: ordered-ok(key collection only; sorted before printing)
    for (const auto &kv : _txns)
        addrs.push_back(kv.first);
    std::sort(addrs.begin(), addrs.end());
    for (Addr addr : addrs) {
        const Txn &txn = _txns.at(addr);
        std::fprintf(f,
                     "  %s txn line=%llx state=%d "
                     "pendingAcks=%d queued=%zu req=%s\n",
                     name().c_str(), (unsigned long long)addr,
                     (int)txn.state, txn.pendingAcks,
                     txn.queued.size(),
                     txn.req ? memMsgName(txn.req->type) : "-");
    }
}

void
L3Bank::finalize(Addr line_addr)
{
    auto it = _txns.find(line_addr);
    sf_assert(it != _txns.end(), "finalize without txn");
    auto queued = std::move(it->second.queued);
    _txns.erase(it);
    for (const MemMsgPtr &msg : queued)
        process(msg);
}

} // namespace mem
} // namespace sf
