#include "cpu/core.hh"

#include <algorithm>
#include <bit>

#include "sim/debug.hh"
#include "sim/logging.hh"
#include "verify/data_plane.hh"

namespace sf {
namespace cpu {

namespace {

/** Refill the fetch buffer when it drops below this many ops. */
constexpr size_t fetchLowWater = 512;

void
setBit(std::vector<uint64_t> &bits, uint64_t slot)
{
    bits[slot >> 6] |= uint64_t(1) << (slot & 63);
}

void
clearBit(std::vector<uint64_t> &bits, uint64_t slot)
{
    bits[slot >> 6] &= ~(uint64_t(1) << (slot & 63));
}

} // namespace

Core::Core(const std::string &name, EventQueue &eq, TileId tile,
           const CoreConfig &cfg, mem::PrivCache &cache,
           mem::TlbHierarchy &tlb, mem::AddressSpace &as,
           BarrierController *barrier, isa::OpSource *source)
    : SimObject(name, eq), _cfg(cfg), _tile(tile), _cache(cache),
      _tlb(tlb), _as(as), _barrier(barrier), _source(source)
{
    size_t ring = std::max<size_t>(
        64, std::bit_ceil(static_cast<size_t>(cfg.robSize) + 1));
    _rob.resize(ring);
    _robMask = ring - 1;
    _waitHead.assign(ring, -1);
    _waitNext.assign(ring * isa::maxSrcs, -1);
    _unissued.assign(ring / 64, 0);
    _ready.assign(ring / 64, 0);
    _fu.intDivBusy.assign(static_cast<size_t>(cfg.numIntMultDiv), 0);
    _fu.fpDivBusy.assign(static_cast<size_t>(cfg.numFpDiv), 0);
}

void
Core::setVerify(verify::DataPlane *v)
{
    _verify = v;
    if (_verify && _valueRing.empty())
        _valueRing.assign(1 << 16, 0);
}

/**
 * Commit-order shadow interpretation: values are computed when an op
 * commits, in program order, so older same-address stores are always
 * either still in the tile's overlay or already performed — no
 * issue-time memory-order hazards to reason about.
 */
uint64_t
Core::verifyValueFor(const RobEntry &e)
{
    using isa::OpKind;
    uint64_t srcs[isa::maxSrcs] = {0, 0, 0};
    for (int i = 0; i < e.op.numSrcs; ++i)
        srcs[i] = e.op.srcs[i]
                      ? _valueRing[(e.seq - e.op.srcs[i]) & 0xffff]
                      : 0;
    switch (e.op.kind) {
      case OpKind::IntAlu:
      case OpKind::IntMult:
      case OpKind::IntDiv:
      case OpKind::FpAlu:
      case OpKind::FpDiv:
      case OpKind::Nop:
        return verify::computeValue(e.op.kind, e.op.pc, srcs,
                                    e.op.numSrcs);
      case OpKind::Load: {
        uint16_t size = e.op.size ? e.op.size : 4;
        return _verify->loadValue(_tile, e.op.addr, size);
      }
      case OpKind::Store:
      case OpKind::StreamStore:
        return verify::storeValue(e.op.kind, e.op.pc, srcs,
                                  e.op.numSrcs);
      case OpKind::StreamLoad:
        return _se ? _se->verifyFoldElems(e.op.sid, e.streamFirstElem,
                                          e.op.elems)
                   : 0;
      default:
        return 0;
    }
}

void
Core::start()
{
    SF_DPRINTF(Core, "start");
    refillFetchBuffer();
    wake();
}

void
Core::wake()
{
    if (_done || _ticking)
        return;
    _ticking = true;
    _sleeping = false;
    // Completion events (Delivery priority) run before pipeline ticks
    // (ClockTick priority) within a cycle, so a core woken by a
    // completion may still tick in the SAME cycle - as long as it has
    // not ticked this cycle already.
    Cycles delay = (_lastTickAt == curTick()) ? 1 : 0;
    scheduleIn(delay, [this]() { tick(); }, EventPriority::ClockTick);
}

void
Core::wakeAt(Tick when)
{
    sf_assert(when > curTick() && when - curTick() < dueSlots,
              "wake at %llu out of the ring's reach",
              (unsigned long long)when);
    auto bit = static_cast<uint16_t>(1u << (when & (dueSlots - 1)));
    if (_wakeMask & bit)
        return;
    _wakeMask |= bit;
    scheduleIn(
        when - curTick(),
        [this, bit]() {
            _wakeMask &= static_cast<uint16_t>(~bit);
            if (_ticking)
                return; // a wake() queued this cycle's tick already
            _sleeping = false;
            tick();
        },
        EventPriority::ClockTick);
}

Tick
Core::nextDue() const
{
    // Rotate the mask so bit 0 is the slot of the next cycle.
    Tick from = (curTick() + 1) & (dueSlots - 1);
    unsigned m = _dueMask;
    unsigned rot = ((m >> from) | (m << (dueSlots - from))) & 0xffffu;
    return curTick() + 1 + static_cast<Tick>(std::countr_zero(rot));
}

void
Core::chargeParkedPolls(uint64_t polls)
{
    if (_parkedRobFull)
        _stats.robFullStalls += polls;
    if (_parkedSbFull)
        _stats.sbFullStalls += polls;
}

void
Core::settle()
{
    if (!parkedOnStores())
        return;
    Tick now = curTick();
    chargeParkedPolls(now - _parkedAt);
    if (_td)
        _td->tickAt(now, _td->gapReason());
    _parkedAt = now;
}

void
Core::tick()
{
    _ticking = false;
    Tick now = curTick();
    _lastTickAt = now;
    if (_done)
        return;

    // The cycles a parked core slept through each stood for a poll
    // that hit the limits its last tick hit: the state was frozen,
    // since every change to it calls wake().
    if (parkedOnStores()) {
        chargeParkedPolls(now - _parkedAt - 1);
        _parkedAt = maxTick;
    }

    // Fixed-latency completions due this cycle land before any stage.
    Tick slot = now & (dueSlots - 1);
    if (_dueMask & (1u << slot)) {
        for (uint64_t seq : _due[slot])
            markCompleted(seq);
        _due[slot].clear();
        _dueMask &= static_cast<uint16_t>(~(1u << slot));
    }

    // Per-cycle FU counters reset; dividers keep their busy horizon.
    _fu.intAluUsed = 0;
    _fu.multDivUsed = 0;
    _fu.fpAluUsed = 0;
    _fu.fpDivUsed = 0;
    _fu.memPortsUsed = 0;

    _dispatchCreditStall = false;
    uint64_t rob_stalls = _stats.robFullStalls;
    uint64_t sb_stalls = _stats.sbFullStalls;
    bool committed = commitStage();
    bool progress = committed;
    progress |= drainStoreBuffer();
    progress |= issueStage();
    progress |= dispatchStage();

    finishIfDrained();
    if (_done) {
        if (_td) {
            _td->tickAt(now, committed ? prof::Bucket::Retired
                                       : prof::Bucket::Idle);
            _td->setGapReason(prof::Bucket::Idle);
        }
        return;
    }

    if (_td)
        _td->tickAt(now, classifyCycle(committed));

    if (progress) {
        wake();
        return;
    }
    // Quiesce: every later state change arrives via a completion
    // callback (memory, SE FIFO, barrier), which calls wake(), or via
    // the completion ring, whose earliest due tick is queued here. The
    // slept-through cycles are charged to whatever we wait on now.
    if (_td)
        _td->setGapReason(classifyCycle(false));
    _sleeping = true;
    if (_sbInUse > 0) {
        _parkedAt = now;
        _parkedRobFull = _stats.robFullStalls != rob_stalls;
        _parkedSbFull = _stats.sbFullStalls != sb_stalls;
    }
    if (_dueMask)
        wakeAt(nextDue());
}

prof::Bucket
Core::classifyCycle(bool committed) const
{
    if (committed)
        return prof::Bucket::Retired;
    if (robCount() > 0) {
        const RobEntry &h = robAt(_headSeq);
        if (h.op.kind == isa::OpKind::StreamLoad && !h.completed &&
            !h.dataReady) {
            return prof::Bucket::StalledSebuf;
        }
    }
    if (_dispatchCreditStall)
        return prof::Bucket::StalledCredit;
    if (robCount() > 0 || _sbInUse > 0 || !_pendingStores.empty())
        return prof::Bucket::StalledData;
    return prof::Bucket::Idle;
}

Core::RobEntry &
Core::robAt(uint64_t seq)
{
    sf_assert(seq >= _headSeq && seq < _nextSeq,
              "seq %llu outside the ROB", (unsigned long long)seq);
    return _rob[seq & _robMask];
}

const Core::RobEntry &
Core::robAt(uint64_t seq) const
{
    return const_cast<Core *>(this)->robAt(seq);
}

void
Core::release(RobEntry &e)
{
    if (--e.waiting == 0)
        setBit(_ready, e.seq & _robMask);
}

void
Core::markCompleted(uint64_t seq)
{
    robAt(seq).completed = true;
    int32_t &head = _waitHead[seq & _robMask];
    for (int32_t l = head; l >= 0; l = _waitNext[static_cast<size_t>(l)])
        release(_rob[static_cast<size_t>(l) / isa::maxSrcs]);
    head = -1;
}

void
Core::complete(RobEntry &e, Cycles extra_latency)
{
    if (extra_latency == 0) {
        markCompleted(e.seq);
        return;
    }
    sf_assert(extra_latency < dueSlots,
              "latency %llu exceeds the completion ring",
              (unsigned long long)extra_latency);
    Tick slot = (curTick() + extra_latency) & (dueSlots - 1);
    _due[slot].push_back(e.seq);
    _dueMask |= static_cast<uint16_t>(1u << slot);
}

bool
Core::fuAvailable(isa::OpKind kind, Tick now, Tick &earliest)
{
    using isa::OpKind;
    switch (fuClassOf(kind)) {
      case isa::FuClass::IntAlu:
        return _fu.intAluUsed < _cfg.numIntAlu;
      case isa::FuClass::FpAlu:
        return _fu.fpAluUsed < _cfg.numFpAlu;
      case isa::FuClass::IntMultDiv: {
        if (_fu.multDivUsed >= _cfg.numIntMultDiv)
            return false;
        if (kind == OpKind::IntMult)
            return true;
        for (Tick t : _fu.intDivBusy) {
            if (t <= now)
                return true;
            earliest = earliest ? std::min(earliest, t) : t;
        }
        return false;
      }
      case isa::FuClass::FpDiv: {
        if (_fu.fpDivUsed >= _cfg.numFpDiv)
            return false;
        for (Tick t : _fu.fpDivBusy) {
            if (t <= now)
                return true;
            earliest = earliest ? std::min(earliest, t) : t;
        }
        return false;
      }
      case isa::FuClass::Mem:
        return _fu.memPortsUsed < _cfg.memPorts;
      case isa::FuClass::None:
        return true;
    }
    return true;
}

void
Core::fuOccupy(isa::OpKind kind, Tick now)
{
    using isa::OpKind;
    switch (fuClassOf(kind)) {
      case isa::FuClass::IntAlu:
        ++_fu.intAluUsed;
        break;
      case isa::FuClass::FpAlu:
        ++_fu.fpAluUsed;
        break;
      case isa::FuClass::IntMultDiv:
        ++_fu.multDivUsed;
        if (kind == OpKind::IntDiv) {
            for (auto &t : _fu.intDivBusy) {
                if (t <= now) {
                    t = now + opLatency(kind);
                    break;
                }
            }
        }
        break;
      case isa::FuClass::FpDiv:
        ++_fu.fpDivUsed;
        for (auto &t : _fu.fpDivBusy) {
            if (t <= now) {
                t = now + opLatency(kind);
                break;
            }
        }
        break;
      case isa::FuClass::Mem:
        ++_fu.memPortsUsed;
        break;
      case isa::FuClass::None:
        break;
    }
}

bool
Core::tryIssue(RobEntry &e)
{
    using isa::OpKind;
    Tick now = curTick();
    Tick earliest = 0;
    if (!fuAvailable(e.op.kind, now, earliest)) {
        if (earliest > now)
            wakeAt(earliest);
        return false;
    }

    switch (e.op.kind) {
      case OpKind::IntAlu:
      case OpKind::IntMult:
      case OpKind::IntDiv:
      case OpKind::FpAlu:
      case OpKind::FpDiv:
        fuOccupy(e.op.kind, now);
        complete(e, opLatency(e.op.kind));
        return true;

      case OpKind::Load: {
        fuOccupy(e.op.kind, now);
        uint64_t seq = e.seq;
        issueMemAccess(e.op.addr, e.op.size, false, e.op.pc,
                       e.op.streamEligible, [this, seq]() {
                           markCompleted(seq);
                           wake();
                       });
        return true;
      }

      case OpKind::Store: {
        fuOccupy(e.op.kind, now);
        e.storeVaddr = e.op.addr;
        // Address generation + data ready; the write happens at commit
        // through the store buffer.
        complete(e, 1);
        return true;
      }

      case OpKind::StreamLoad:
      case OpKind::StreamStore:
        // A StreamLoad is only ready once its FIFO data arrived.
        fuOccupy(e.op.kind, now);
        complete(e, 1); // FIFO read / SE-generated address
        return true;

      case OpKind::StreamCfg:
      case OpKind::StreamStep:
      case OpKind::StreamEnd:
      case OpKind::Nop:
        complete(e, 1);
        return true;

      case OpKind::Barrier: {
        // Execute only at the ROB head with the store buffer drained.
        // (Younger stores may hold SQ entries speculatively; only the
        // older, committed stores in the store buffer must drain.)
        if (e.seq != _headSeq || _sbInUse > 0)
            return false;
        if (_barrier) {
            uint64_t seq = e.seq;
            _barrier->arrive([this, seq]() {
                markCompleted(seq);
                wake();
            });
        } else {
            complete(e, 1);
        }
        return true;
      }
    }
    return false;
}

uint64_t
Core::nextReady(uint64_t seq, int &skipped) const
{
    while (seq < _nextSeq) {
        uint64_t slot = seq & _robMask;
        unsigned bit = static_cast<unsigned>(slot & 63);
        // Stop at the word's end and at the youngest live entry: slots
        // beyond it hold no bits, but the ring may wrap into the head.
        uint64_t span = std::min<uint64_t>(64 - bit, _nextSeq - seq);
        uint64_t in_span = span == 64 ? ~uint64_t(0)
                                      : (uint64_t(1) << span) - 1;
        uint64_t ready = (_ready[slot >> 6] >> bit) & in_span;
        uint64_t unissued = (_unissued[slot >> 6] >> bit) & in_span;
        if (ready) {
            int k = std::countr_zero(ready);
            skipped += std::popcount(unissued & ((uint64_t(1) << k) - 1));
            return seq + static_cast<uint64_t>(k);
        }
        skipped += std::popcount(unissued);
        seq += span;
    }
    return _nextSeq;
}

bool
Core::issueStage()
{
    // Program-order walk over the ready entries only. Unissued entries
    // still waiting on a producer or on FIFO data would fail tryIssue
    // without side effects, so they are skipped, but they still fill
    // the iqSize-entry issue window, and in-order issue stops at the
    // first of them.
    int issued = 0;
    int window = 0;
    bool in_order = _cfg.kind == CoreConfig::Kind::InOrder;
    uint64_t seq = _headSeq;
    while (issued < _cfg.width) {
        int skipped = 0;
        seq = nextReady(seq, skipped);
        window += skipped + 1;
        if (seq == _nextSeq || window > _cfg.iqSize ||
            (in_order && skipped > 0))
            break;
        if (tryIssue(robAt(seq))) {
            clearBit(_unissued, seq & _robMask);
            clearBit(_ready, seq & _robMask);
            ++issued;
        } else if (in_order) {
            break; // strict program-order issue
        }
        ++seq;
    }
    return issued > 0;
}

bool
Core::commitStage()
{
    using isa::OpKind;
    int committed = 0;
    while (committed < _cfg.width && robCount() > 0) {
        RobEntry &e = robAt(_headSeq);
        if (!e.completed)
            break;

        // Shadow value at commit (idempotent: a store stalled on a
        // full SB recomputes the same value next cycle).
        uint64_t vval = 0;
        if (_verify) {
            vval = verifyValueFor(e);
            _valueRing[e.seq & 0xffff] = vval;
        }

        switch (e.op.kind) {
          case OpKind::Store:
          case OpKind::StreamStore: {
            if (_sbInUse >= _cfg.sbSize) {
                ++_stats.sbFullStalls;
                goto done_commit;
            }
            ++_sbInUse;
            Addr vaddr = e.storeVaddr;
            uint16_t size = e.op.size ? e.op.size : 4;
            if (_se)
                _se->storeCommitted(vaddr, size);
            std::shared_ptr<verify::StoreRec> vrec;
            if (_verify) {
                vrec = _verify->storeCommitted(
                    _tile, vaddr, size, vval, e.op.pc, e.op.sid,
                    e.op.kind == OpKind::StreamStore);
            }
            // The SB entry drains via drainStoreBuffer(); we record the
            // pending write and issue it from there.
            _pendingStores.push_back({vaddr, size, std::move(vrec)});
            --_sqInUse;
            if (e.op.kind == OpKind::Store)
                ++_stats.committedStores;
            else
                ++_stats.committedStreamStores;
            break;
          }
          case OpKind::Load:
            --_lqInUse;
            ++_stats.committedLoads;
            break;
          case OpKind::StreamLoad:
            --_lqInUse;
            ++_stats.committedStreamLoads;
            break;
          case OpKind::StreamCfg:
            if (_se) {
                _se->configure(
                    _source->streamConfigGroup(e.op.cfgIdx));
            }
            break;
          case OpKind::StreamStep:
            if (_se)
                _se->releaseAtCommit(e.op.sid, e.op.elems);
            break;
          case OpKind::StreamEnd:
            if (_se)
                _se->end(e.op.sid);
            break;
          case OpKind::Barrier:
            ++_stats.barriers;
            SF_DPRINTF(Core, "barrier %llu committed",
                       (unsigned long long)_stats.barriers.value());
            break;
          case OpKind::IntAlu:
          case OpKind::IntMult:
          case OpKind::IntDiv:
            ++_stats.intOps;
            break;
          case OpKind::FpAlu:
          case OpKind::FpDiv:
            ++_stats.fpOps;
            break;
          default:
            break;
        }

        ++_stats.committedOps;
        ++_headSeq;
        ++committed;
    }
  done_commit:
    return committed > 0;
}

bool
Core::drainStoreBuffer()
{
    if (_pendingStores.empty())
        return false;
    PendingStore ps = _pendingStores.front();
    _pendingStores.pop_front();

    issueMemAccess(
        ps.vaddr, ps.size, true, 0, false,
        [this]() {
            --_sbInUse;
            wake();
        },
        std::move(ps.vrec));
    return true;
}

void
Core::issueMemAccess(Addr vaddr, uint16_t size, bool is_write,
                     uint32_t pc, bool stream_eligible,
                     std::function<void()> on_done,
                     std::shared_ptr<verify::StoreRec> vrec)
{
    // Split on virtual line boundaries: pages are scrambled in the
    // physical space, so each piece must be translated separately.
    int pieces = 1 +
                 (lineAlign(vaddr) != lineAlign(vaddr + size - 1) ? 1
                                                                  : 0);
    std::shared_ptr<int> remaining;
    std::shared_ptr<std::function<void()>> joined;
    if (pieces > 1) {
        remaining = std::make_shared<int>(pieces);
        joined = std::make_shared<std::function<void()>>(
            std::move(on_done));
    }

    Addr piece_addr = vaddr;
    uint16_t left = size;
    for (int i = 0; i < pieces; ++i) {
        uint16_t piece_size = static_cast<uint16_t>(std::min<uint64_t>(
            left, lineAlign(piece_addr) + lineBytes - piece_addr));
        Cycles tlb_lat = 0;
        Addr paddr = _tlb.translate(_as, piece_addr, tlb_lat);

        mem::Access a;
        a.kind = mem::AccessKind::Demand;
        a.vaddr = piece_addr;
        a.paddr = paddr;
        a.size = piece_size;
        a.isWrite = is_write;
        a.pc = pc;
        a.streamEligible = stream_eligible;
        a.vstore = vrec;
        if (pieces > 1) {
            a.onDone = [remaining, joined]() {
                if (--*remaining == 0 && *joined)
                    (*joined)();
            };
        } else {
            a.onDone = std::move(on_done);
        }
        if (_prof) {
            // sflint: allow(T1, profiler record handle, not a tick)
            uint32_t pid = _prof->open(_tile, invalidStream, curTick());
            if (pid) {
                a.profId = pid;
                a.onDone = [this, pid,
                            inner = std::move(a.onDone)]() {
                    _prof->close(pid, curTick());
                    if (inner)
                        inner();
                };
            }
        }
        if (tlb_lat == 0) {
            _cache.access(std::move(a));
        } else {
            scheduleIn(tlb_lat, [this, a = std::move(a)]() mutable {
                _cache.access(std::move(a));
            });
        }
        piece_addr += piece_size;
        left = static_cast<uint16_t>(left - piece_size);
    }
}

bool
Core::dispatchStage()
{
    using isa::OpKind;
    int dispatched = 0;
    while (dispatched < _cfg.width) {
        if (robCount() >= static_cast<uint64_t>(_cfg.robSize)) {
            ++_stats.robFullStalls;
            break;
        }
        if (_fetchHead == _fetchBuf.size()) {
            refillFetchBuffer();
            if (_fetchHead == _fetchBuf.size())
                break;
        }

        isa::Op &head = _fetchBuf[_fetchHead];

        // Stream use dispatch needs SE acceptance: FIFO space, and no
        // in-flight (dispatched, uncommitted) reconfiguration.
        if (_se &&
            (head.kind == OpKind::StreamLoad ||
             head.kind == OpKind::StreamStep ||
             head.kind == OpKind::StreamStore) &&
            !_se->canAcceptUse(head.sid)) {
            _dispatchCreditStall = true;
            break;
        }

        // LQ/SQ entries are reserved in program order at dispatch
        // (rename), exactly so younger independent loads cannot
        // starve an older one.
        bool is_load = head.kind == OpKind::Load ||
                       head.kind == OpKind::StreamLoad;
        bool is_store = head.kind == OpKind::Store ||
                        head.kind == OpKind::StreamStore;
        if (is_load && _lqInUse >= _cfg.lqSize)
            break;
        if (is_store && _sqInUse >= _cfg.sqSize)
            break;
        if (is_load)
            ++_lqInUse;
        if (is_store)
            ++_sqInUse;

        uint64_t seq = _nextSeq++;
        uint64_t slot = seq & _robMask;
        RobEntry &re_new = _rob[slot];
        re_new = RobEntry();
        re_new.op = head;
        re_new.seq = seq;
        ++_fetchHead;

        // Chain onto every producer still executing. Seqs are
        // contiguous, so a back-reference within the live ROB names
        // its slot directly; anything older has committed.
        for (int i = 0; i < re_new.op.numSrcs; ++i) {
            uint64_t dist = re_new.op.srcs[i];
            if (dist > seq - _headSeq || robAt(seq - dist).completed)
                continue;
            auto link = static_cast<int32_t>(slot * isa::maxSrcs +
                                             static_cast<size_t>(i));
            int32_t &head_link = _waitHead[(seq - dist) & _robMask];
            _waitNext[static_cast<size_t>(link)] = head_link;
            head_link = link;
            ++re_new.waiting;
        }
        if (re_new.op.kind == OpKind::StreamLoad)
            ++re_new.waiting; // until the FIFO data arrives
        setBit(_unissued, slot);
        if (re_new.waiting == 0)
            setBit(_ready, slot);

        // Dispatch-time decoupled-stream actions (iteration map).
        if (_se) {
            switch (re_new.op.kind) {
              case OpKind::StreamLoad: {
                // Fires once, possibly right here (data already in
                // the FIFO); the entry cannot issue before it does.
                re_new.streamFirstElem = _se->requestElems(
                    re_new.op.sid, re_new.op.elems, [this, seq]() {
                        RobEntry &re = robAt(seq);
                        re.dataReady = true;
                        release(re);
                        wake();
                    });
                break;
              }
              case OpKind::StreamStep:
                _se->step(re_new.op.sid, re_new.op.elems);
                break;
              case OpKind::StreamStore:
                re_new.storeVaddr = _se->storeAddr(re_new.op.sid);
                break;
              case OpKind::StreamCfg:
                _se->noteConfigDispatched(
                    _source->streamConfigGroup(re_new.op.cfgIdx));
                break;
              default:
                break;
            }
        } else {
            sf_assert(!isStreamOp(re_new.op.kind) ||
                          re_new.op.kind == OpKind::StreamCfg,
                      "stream op with no stream engine");
        }
        ++dispatched;
    }
    return dispatched > 0;
}

void
Core::debugDump(std::FILE *f) const
{
    size_t due = 0;
    for (const auto &slot : _due)
        due += slot.size();
    std::fprintf(f,
                 "  %s rob=%llu fetchBuf=%zu lq=%d sq=%d sb=%d "
                 "pendStores=%zu sleeping=%d ticking=%d ringDue=%zu",
                 name().c_str(), (unsigned long long)robCount(),
                 _fetchBuf.size() - _fetchHead, _lqInUse, _sqInUse,
                 _sbInUse, _pendingStores.size(), _sleeping, _ticking,
                 due);
    if (_dueMask)
        std::fprintf(f, " nextDue=%llu", (unsigned long long)nextDue());
    if (parkedOnStores())
        std::fprintf(f, " parkedAt=%llu", (unsigned long long)_parkedAt);
    std::fprintf(f, "\n");
    for (uint64_t seq = _headSeq;
         seq < _nextSeq && seq < _headSeq + 4; ++seq) {
        const RobEntry &e = robAt(seq);
        uint64_t slot = seq & _robMask;
        bool issued = !((_unissued[slot >> 6] >> (slot & 63)) & 1);
        std::fprintf(f,
                     "    head op kind=%d sid=%d seq=%llu issued=%d "
                     "completed=%d dataReady=%d elems=%u srcs=[%u %u "
                     "%u] waiting=%d\n",
                     (int)e.op.kind, e.op.sid,
                     (unsigned long long)e.seq, issued, e.completed,
                     e.dataReady, e.op.elems, e.op.srcs[0],
                     e.op.srcs[1], e.op.srcs[2], e.waiting);
    }
}

void
Core::refillFetchBuffer()
{
    if (_sourceExhausted)
        return;
    _fetchBuf.clear();
    _fetchHead = 0;
    while (_fetchBuf.size() < fetchLowWater) {
        size_t n = _source->refill(_fetchBuf);
        if (n == 0) {
            _sourceExhausted = true;
            break;
        }
    }
}

void
Core::finishIfDrained()
{
    if (_done || !_sourceExhausted || _fetchHead != _fetchBuf.size() ||
        robCount() > 0 || _sbInUse > 0 || !_pendingStores.empty()) {
        return;
    }
    _done = true;
    _stats.doneTick = curTick();
    SF_DPRINTF(Core, "done: %llu ops committed",
               (unsigned long long)_stats.committedOps.value());
    if (_barrier)
        _barrier->retire();
    if (onDone)
        onDone();
}

} // namespace cpu
} // namespace sf
