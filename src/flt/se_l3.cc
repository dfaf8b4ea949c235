#include "flt/se_l3.hh"

#include <algorithm>
#include <cstdlib>
#include <tuple>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace sf {
namespace flt {

namespace {

/**
 * An uncached read of @p line for @p stream's elements from @p elem,
 * addressed to @p bank. Its destination list has room for the
 * @p reply_tiles its DataU goes to, so answering it in place
 * (mem::answerGetU) reuses the list.
 */
mem::MemMsgPtr
makeGetU(TileId src, TileId bank, Addr line, const GlobalStreamId &stream,
         uint32_t gen, uint64_t elem, uint16_t count, uint16_t bytes,
         mem::ReqClass cls, size_t reply_tiles = 1)
{
    auto msg = std::make_shared<mem::MemMsg>();
    msg->type = mem::MemMsgType::GetU;
    msg->lineAddr = line;
    msg->src = src;
    msg->dests.reserve(reply_tiles);
    msg->dests.push_back(bank);
    msg->cls = noc::FlitClass::Control;
    msg->vnet = noc::VNet::Request;
    msg->requester = stream.core;
    msg->stream = stream;
    msg->streamGen = gen;
    msg->elemIdx = elem;
    msg->elemCount = count;
    msg->dataBytes = bytes;
    msg->reqClass = cls;
    return msg;
}

} // namespace

SEL3::SEL3(const std::string &name, EventQueue &eq, TileId tile,
           const SEL3Config &cfg, noc::Mesh &mesh,
           const mem::NucaMap &nuca, mem::L3Bank &bank,
           mem::AddressSpace &as)
    : SimObject(name, eq), _cfg(cfg), _tile(tile), _mesh(mesh),
      _nuca(nuca), _bank(bank), _as(as),
      _tlb(cfg.tlbEntries, cfg.tlbWays), _pump(eq)
{
}

int
SEL3::blockOf(TileId t) const
{
    int bx = _mesh.xOf(t) / _cfg.blockSize;
    int by = _mesh.yOf(t) / _cfg.blockSize;
    return by * ((_mesh.config().nx + _cfg.blockSize - 1) /
                 _cfg.blockSize) +
           bx;
}

Addr
SEL3::translate(Addr vaddr, Cycles &penalty)
{
    if (_tlb.lookup(vaddr)) {
        ++_stats.tlbHits;
        penalty = 0;
    } else {
        ++_stats.tlbMisses;
        _tlb.insert(vaddr);
        penalty = _cfg.tlbLatency + _cfg.tlbWalkLatency;
    }
    return _as.translate(vaddr);
}

SEL3::EntryList::iterator
SEL3::findEntry(const GlobalStreamId &gsid)
{
    for (auto it = _entries.begin(); it != _entries.end(); ++it) {
        for (const auto &m : it->members) {
            if (m.gsid == gsid)
                return it;
        }
    }
    return _entries.end();
}

void
SEL3::recvConfig(const std::shared_ptr<StreamFloatMsg> &msg)
{
    if (msg->isMigration)
        ++_stats.migrationsIn;
    else
        ++_stats.configsReceived;
    SF_DPRINTF(SEL3, "%s c%d.s%d gen=%u nextElem=%llu credit=%llu",
               msg->isMigration ? "migration in" : "config",
               msg->gsid.core, msg->gsid.sid, msg->gen,
               (unsigned long long)msg->nextElem,
               (unsigned long long)msg->creditLimit);
    if (_streamLog) {
        _streamLog->push_back({curTick(), msg->gsid, msg->gen,
                               trace::StreamPhase::Arrive, _tile,
                               msg->isMigration ? "migration" : "config"});
    }

    // Stale replay? A duplicated or long-delayed config/migration
    // that arrives at or behind the point where this stream already
    // left this bank would install a ghost copy chasing the live one;
    // drop it silently (see Record). An end that raced ahead of its
    // stream recorded a departure at ~0, so this drops the stream too.
    auto rec = _records.find(msg->gsid);
    if (rec != _records.end() &&
        (msg->gen < rec->second.departed.gen ||
         (msg->gen == rec->second.departed.gen &&
          msg->nextElem < rec->second.departed.pos))) {
        ++_stats.staleConfigsDropped;
        SF_DPRINTF(SEL3,
                   "drop stale %s c%d.s%d gen=%u elem=%llu "
                   "(departed gen=%u elem=%llu)",
                   msg->isMigration ? "migration" : "config",
                   msg->gsid.core, msg->gsid.sid, msg->gen,
                   (unsigned long long)msg->nextElem,
                   rec->second.departed.gen,
                   (unsigned long long)rec->second.departed.pos);
        return;
    }

    // Already resident at the same gen? A duplicate (or a retry that
    // raced with the live stream migrating back here). Replacing the
    // entry would roll issuePos and creditLimit backwards — absorb it
    // instead: widen the credit window if the replay carries more,
    // re-ack (the original ack may be the thing that was lost), done.
    auto old = findEntry(msg->gsid);
    if (old != _entries.end()) {
        for (auto &m : old->members) {
            if (m.gsid == msg->gsid && m.gen == msg->gen) {
                m.creditLimit =
                    std::max(m.creditLimit, msg->creditLimit);
                ++_stats.staleConfigsDropped;
                sendAck(msg->gsid, msg->gen, false);
                kick();
                return;
            }
        }
    }

    // Replace a stale same-stream entry (refloat with a newer gen).
    if (old != _entries.end()) {
        auto &members = old->members;
        members.erase(std::remove_if(members.begin(), members.end(),
                                     [&](const Member &m) {
                                         return m.gsid == msg->gsid &&
                                                m.gen <= msg->gen;
                                     }),
                      members.end());
        if (members.empty())
            _entries.erase(old);
    }

    Entry e;
    e.base = msg->base;
    e.cursor = isa::AffineCursor(e.base.affine);
    e.indirects = msg->indirects;
    e.issuePos = msg->nextElem;
    Member m;
    m.gsid = msg->gsid;
    m.gen = msg->gen;
    m.creditLimit = msg->creditLimit;
    m.joinedAt = msg->nextElem;

    // An early credit is spent by the next config of any gen.
    if (rec != _records.end() && rec->second.credit.gen != 0) {
        GenMark &credit = rec->second.credit;
        if (credit.gen == msg->gen)
            m.creditLimit = std::max(m.creditLimit, credit.pos);
        credit = GenMark();
    }
    e.members.push_back(m);

    bool accepted = addStream(std::move(e));
    sendAck(msg->gsid, msg->gen, !accepted);
}

bool
SEL3::addStream(Entry &&e)
{
    if (tryMerge(e)) {
        kick();
        return true;
    }
    if (static_cast<int>(_entries.size()) >= _cfg.maxStreams) {
        warn_once("%s: stream table full, NACKing stream back to core",
                  name().c_str());
        return false;
    }
    _entries.push_back(std::move(e));
    kick();
    return true;
}

void
SEL3::sendAck(const GlobalStreamId &gsid, uint32_t gen, bool nack)
{
    auto msg = makeStreamMsg<StreamAckMsg>(_tile, gsid.core);
    msg->gsid = gsid;
    msg->gen = gen;
    msg->nack = nack;
    _mesh.send(msg);
    if (nack) {
        ++_stats.floatNacksSent;
        SF_DPRINTF(SEL3, "NACK c%d.s%d gen=%u (table full)", gsid.core,
                   gsid.sid, gen);
        if (_streamLog) {
            _streamLog->push_back({curTick(), gsid, gen,
                                   trace::StreamPhase::Arrive, _tile,
                                   "nack"});
        }
    } else {
        ++_stats.acksSent;
    }
}

bool
SEL3::tryMerge(const Entry &incoming)
{
    if (!_cfg.enableConfluence)
        return false;
    if (!incoming.indirects.empty() || incoming.base.hasIndirect)
        return false;
    const Member &im = incoming.members.front();

    for (auto &e : _entries) {
        if (!e.indirects.empty() || e.base.hasIndirect)
            continue;
        if (!(e.base.affine == incoming.base.affine))
            continue;
        if (static_cast<int>(e.members.size()) >= _cfg.maxGroupSize)
            continue;
        if (blockOf(e.members.front().gsid.core) !=
            blockOf(im.gsid.core)) {
            continue;
        }
        uint64_t diff = e.issuePos > incoming.issuePos
                            ? e.issuePos - incoming.issuePos
                            : incoming.issuePos - e.issuePos;
        if (diff > _cfg.mergeSlackElems)
            continue;

        Member joined = im;
        joined.joinedAt = incoming.issuePos;
        e.members.push_back(joined);
        // Rewind the shared cursor so the laggard catches up; members
        // already past these elements drop the duplicates at their
        // SE_L2 (arrival frontier check).
        e.issuePos = std::min(e.issuePos, incoming.issuePos);
        e.stalledOnCredit = false;
        ++_stats.confluenceMerges;
        return true;
    }
    return false;
}

void
SEL3::recvCredit(const std::shared_ptr<StreamCreditMsg> &msg)
{
    ++_stats.creditsReceived;
    auto it = findEntry(msg->gsid);
    if (it == _entries.end()) {
        _records[msg->gsid].credit.raise(msg->gen, msg->creditLimit);
        return;
    }
    for (auto &m : it->members) {
        if (m.gsid == msg->gsid && m.gen == msg->gen)
            m.creditLimit = std::max(m.creditLimit, msg->creditLimit);
    }
    if (it->stalledOnCredit) {
        SF_DPRINTF(SEL3, "credit resume c%d.s%d limit=%llu",
                   msg->gsid.core, msg->gsid.sid,
                   (unsigned long long)msg->creditLimit);
        if (_streamLog) {
            const Member &lead = it->members.front();
            _streamLog->push_back({curTick(), lead.gsid, lead.gen,
                                   trace::StreamPhase::Resume, _tile, {}});
        }
    }
    it->stalledOnCredit = false;
    kick();
}

void
SEL3::recvEnd(const std::shared_ptr<StreamEndMsg> &msg)
{
    ++_stats.endsReceived;
    // Ended for good at this gen: no config/migration at gen or older
    // may re-install the stream here (a duplicated migration could
    // otherwise arrive after this end and leave a ghost behind, and a
    // config that the end overtook is dropped when it comes).
    _records[msg->gsid].departed.raise(msg->gen, ~0ULL);
    auto it = findEntry(msg->gsid);
    if (it == _entries.end())
        return;
    auto &members = it->members;
    members.erase(std::remove_if(members.begin(), members.end(),
                                 [&](const Member &m) {
                                     return m.gsid == msg->gsid &&
                                            m.gen <= msg->gen;
                                 }),
                  members.end());
    if (members.empty())
        _entries.erase(it);
}

void
SEL3::kick()
{
    if (_pump.running() || _entries.empty())
        return;
    _pump.start(_cfg.issueInterval, [this]() { issueTick(); },
                EventPriority::ClockTick);
}

void
SEL3::issueTick()
{
    size_t attempts = _entries.size();
    bool issued = false;
    for (size_t i = 0; i < attempts && !_entries.empty(); ++i) {
        // Round-robin by rotation: service the front, move it back.
        if (issueOne(_entries.front())) {
            issued = true;
            if (!_entries.empty()) {
                _entries.splice(_entries.end(), _entries,
                                _entries.begin());
            }
            break;
        }
        if (!_entries.empty()) {
            _entries.splice(_entries.end(), _entries, _entries.begin());
        }
    }
    // The recurring pump keeps ticking while it makes progress; stop
    // when idle (no issue, or table drained) until the next kick().
    if (!issued || _entries.empty())
        _pump.stop();
}

bool
SEL3::issueOne(Entry &e)
{
    if (e.members.empty()) {
        _entries.remove_if(
            [&](const Entry &x) { return &x == &e; });
        return true;
    }

    // Completed known-length streams terminate silently (§IV-A).
    uint64_t horizon = e.base.horizon();
    if (e.issuePos >= horizon) {
        ++_stats.streamsCompleted;
        const GlobalStreamId &gsid = e.members.front().gsid;
        SF_DPRINTF(SEL3, "stream complete c%d.s%d at elem %llu",
                   gsid.core, gsid.sid, (unsigned long long)horizon);
        // A trailing duplicated migration must not re-install the
        // finished stream: mark every member as departed for good.
        for (const auto &m : e.members)
            _records[m.gsid].departed.raise(m.gen, ~0ULL);
        _entries.remove_if(
            [&](const Entry &x) { return &x == &e; });
        return true;
    }

    // Migrate BEFORE the credit check: a stalled stream must wait at
    // the bank of its next element, because that is where the SE_L2
    // routes credit refreshes (§IV-A).
    Addr va = e.cursor.at(e.issuePos);
    Cycles penalty = 0;
    Addr pa = translate(va, penalty);

    TileId home = _nuca.bankOf(pa);
    if (home != _tile) {
        migrate(e, home);
        return true;
    }

    // Flow control: the group can issue only below every member's
    // credit horizon (laggards' credits gate the leader).
    uint64_t limit = ~0ULL;
    for (const auto &m : e.members)
        limit = std::min(limit, m.creditLimit);
    if (e.issuePos >= limit) {
        if (!e.stalledOnCredit) {
            e.stalledOnCredit = true;
            ++_stats.creditStalls;
            const Member &lead = e.members.front();
            const GlobalStreamId &gsid = lead.gsid;
            SF_DPRINTF(SEL3, "credit stall c%d.s%d at elem %llu",
                       gsid.core, gsid.sid,
                       (unsigned long long)e.issuePos);
            if (_streamLog) {
                _streamLog->push_back({curTick(), gsid, lead.gen,
                                       trace::StreamPhase::CreditStall,
                                       _tile, {}});
            }
        }
        return false;
    }

    // Coalesce elements that fall on the same line. Within va's page
    // the frame is pa's, so only a page change needs the page table.
    Addr line = lineAlign(pa);
    Addr vpage = mem::pageAlign(va);
    Addr ppage = mem::pageAlign(pa);
    uint16_t count = 1;
    uint64_t max_elems = std::min(limit, horizon) - e.issuePos;
    while (count < max_elems && count < 64) {
        Addr nva = e.cursor.at(e.issuePos + count);
        Addr npa = mem::pageAlign(nva) == vpage
                       ? ppage + (nva - vpage)
                       : _as.translateExisting(nva);
        if (npa == invalidAddr || lineAlign(npa) != line)
            break;
        ++count;
    }

    const Member &lead = e.members.front();
    auto msg = makeGetU(_tile, _tile, line, lead.gsid, lead.gen,
                        e.issuePos, count, lineBytes,
                        mem::ReqClass::FloatAffine, e.members.size());
    if (e.members.size() > 1) {
        msg->mergedStreams.reserve(e.members.size());
        for (const auto &m : e.members)
            msg->mergedStreams.push_back(m.gsid);
        msg->reqClass = mem::ReqClass::FloatConfluence;
        ++_stats.confluenceRequests;
    }

    if (!e.indirects.empty()) {
        // Capture what indirect issue needs by value; the entry may
        // migrate or retire before the bank produces the index data.
        msg->onServed = [this, base = e.base.affine,
                         indirects = e.indirects, owner = lead,
                         first = e.issuePos, count]() {
            issueIndirects(base, indirects, owner, first, count);
        };
    }

    ++_stats.lineRequestsIssued;
    sendLocal(msg, penalty);
    e.issuePos += count;
    return true;
}

void
SEL3::sendLocal(const mem::MemMsgPtr &msg, Cycles penalty)
{
    if (penalty == 0)
        _bank.recvMsg(msg);
    else
        scheduleIn(penalty, [this, msg]() { _bank.recvMsg(msg); });
}

void
SEL3::issueIndirects(const isa::AffinePattern &base,
                     const std::vector<FloatedIndirect> &indirects,
                     const Member &owner, uint64_t first, uint16_t count)
{
    for (uint16_t i = 0; i < count; ++i) {
        uint64_t base_elem = first + i;
        Addr idx_addr = base.elemAddr(base_elem);

        for (const auto &ind : indirects) {
            uint32_t w_len = ind.cfg.indirect.items();
            uint64_t child_elem = ind.cfg.indirect.firstChild(base_elem);
            if (child_elem + w_len <= ind.start)
                continue; // the core already fetched these
            int64_t idx_value =
                _as.readInt(idx_addr, ind.cfg.indirect.idxSize);
            Addr target_va = ind.cfg.indirect.targetAddr(idx_value, 0);
            Cycles penalty = 0;
            Addr target_pa = translate(target_va, penalty);
            uint16_t bytes = static_cast<uint16_t>(std::min<uint32_t>(
                ind.cfg.indirect.elemSize * w_len, lineBytes));
            TileId target_bank = _nuca.bankOf(target_pa);
            ++_stats.indirectRequestsIssued;

            auto msg = makeGetU(_tile, target_bank, lineAlign(target_pa),
                                {owner.gsid.core, ind.cfg.sid}, owner.gen,
                                child_elem, static_cast<uint16_t>(w_len),
                                bytes, mem::ReqClass::FloatIndirect);
            if (target_bank == _tile) {
                sendLocal(msg, penalty);
            } else {
                // Remote target bank: a small uncached read request
                // travels bank-to-bank; the data goes straight to the
                // requesting core (subline transfer, §IV-B).
                _mesh.send(msg);
            }
        }
    }
}

void
SEL3::debugDump(std::FILE *f) const
{
    for (const auto &e : _entries) {
        std::fprintf(f, "  %s issuePos=%llu stalled=%d members=[",
                     name().c_str(), (unsigned long long)e.issuePos,
                     e.stalledOnCredit);
        for (const auto &m : e.members) {
            std::fprintf(f, "(c%d s%d g%u credit=%llu)", m.gsid.core,
                         m.gsid.sid, m.gen,
                         (unsigned long long)m.creditLimit);
        }
        std::fprintf(f, "] pump=%d\n", _pump.running());
    }
    // Sorted snapshot: _records is hash-ordered and the dump must be
    // reproducible (sflint D1).
    std::vector<GlobalStreamId> pend;
    // sflint: ordered-ok(key collection only; sorted before printing)
    for (const auto &kv : _records) {
        if (kv.second.credit.gen != 0)
            pend.push_back(kv.first);
    }
    std::sort(pend.begin(), pend.end(),
              [](const GlobalStreamId &a, const GlobalStreamId &b) {
                  return std::tie(a.core, a.sid) <
                         std::tie(b.core, b.sid);
              });
    for (const GlobalStreamId &gsid : pend) {
        const GenMark &credit = _records.at(gsid).credit;
        std::fprintf(f, "  %s pendingCredit c%d s%d gen=%u lim=%llu\n",
                     name().c_str(), gsid.core, gsid.sid, credit.gen,
                     (unsigned long long)credit.pos);
    }
}

void
SEL3::forEachResident(
    const std::function<void(const GlobalStreamId &gsid, uint32_t gen,
                             uint64_t issue_pos,
                             uint64_t credit_limit)> &fn) const
{
    for (const auto &e : _entries) {
        for (const auto &m : e.members)
            fn(m.gsid, m.gen, e.issuePos, m.creditLimit);
    }
}

void
SEL3::migrate(Entry &e, TileId next_bank)
{
    for (const auto &m : e.members) {
        auto msg = makeStreamMsg<StreamFloatMsg>(_tile, next_bank);
        msg->isMigration = true;
        msg->gsid = m.gsid;
        msg->gen = m.gen;
        msg->base = e.base;
        for (auto ind : e.indirects) {
            ind.start = std::max(ind.start,
                                 ind.cfg.indirect.firstChild(e.issuePos));
            msg->indirects.push_back(ind);
        }
        msg->nextElem = e.issuePos;
        msg->creditLimit = m.creditLimit;
        msg->finalizeSize();
        _records[m.gsid].departed.raise(m.gen, e.issuePos);
        _mesh.send(msg);
        ++_stats.migrationsOut;
        SF_DPRINTF(SEL3, "migrate c%d.s%d -> bank %d at elem %llu",
                   m.gsid.core, m.gsid.sid, next_bank,
                   (unsigned long long)e.issuePos);
        if (_streamLog) {
            _streamLog->push_back({curTick(), m.gsid, m.gen,
                                   trace::StreamPhase::Migrate, _tile,
                                   "to bank " + std::to_string(next_bank)});
        }
    }
    _entries.remove_if([&](const Entry &x) { return &x == &e; });
}

} // namespace flt
} // namespace sf
