#include "verify/ref_executor.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"
#include "verify/value.hh"

namespace sf {
namespace verify {

namespace {
constexpr uint64_t kRingSize = 1ULL << 16;
constexpr uint64_t kRingMask = kRingSize - 1;
} // namespace

RefResult
RefExecutor::run(const std::vector<isa::OpSource *> &sources)
{
    RefResult res;
    std::vector<Thread> threads(sources.size());
    for (size_t i = 0; i < sources.size(); ++i) {
        threads[i].src = sources[i];
        threads[i].ring.assign(kRingSize, 0);
    }

    // Phase-sequential schedule: each round runs every live thread up
    // to (and including) its next Barrier. Kernels emit matching
    // barriers, so this is a legal interleaving of any DRF program.
    bool any = true;
    while (any) {
        any = false;
        for (size_t i = 0; i < threads.size(); ++i) {
            if (threads[i].done)
                continue;
            runRound(static_cast<TileId>(i), threads[i], res);
            any = true;
        }
        if (any)
            ++res.rounds;
    }

    res.image = std::move(_image);
    _image.clear();
    return res;
}

void
RefExecutor::runRound(TileId tid, Thread &t, RefResult &res)
{
    while (true) {
        if (t.bufPos == t.buf.size()) {
            t.buf.clear();
            t.bufPos = 0;
            if (t.src->refill(t.buf) == 0) {
                t.done = true;
                return;
            }
        }
        const isa::Op &op = t.buf[t.bufPos++];
        execOp(tid, t, op, res);
        if (op.kind == isa::OpKind::Barrier)
            return;
    }
}

void
RefExecutor::execOp(TileId tid, Thread &t, const isa::Op &op,
                    RefResult &res)
{
    ++res.opCount;
    uint64_t srcs[isa::maxSrcs] = {0, 0, 0};
    for (int i = 0; i < op.numSrcs; ++i)
        srcs[i] = op.srcs[i]
                      ? t.ring[(t.pos - op.srcs[i]) & kRingMask]
                      : 0;

    uint64_t value = 0;
    switch (op.kind) {
      case isa::OpKind::IntAlu:
      case isa::OpKind::IntMult:
      case isa::OpKind::IntDiv:
      case isa::OpKind::FpAlu:
      case isa::OpKind::FpDiv:
      case isa::OpKind::Nop:
        value = computeValue(op.kind, op.pc, srcs, op.numSrcs);
        break;

      case isa::OpKind::Load: {
        uint16_t size = op.size ? op.size : 4;
        LineData buf;
        readBytes(op.addr, buf.data(), size);
        value = foldBytes(buf.data(), size);
        break;
      }

      case isa::OpKind::Store: {
        uint16_t size = op.size ? op.size : 4;
        value = storeValue(op.kind, op.pc, srcs, op.numSrcs);
        LineData buf;
        storeBytes(value, buf.data(), size);
        writeBytes(op.addr, buf.data(), size, res);
        break;
      }

      case isa::OpKind::StreamCfg: {
        for (const auto &cfg : t.src->streamConfigGroup(op.cfgIdx))
            t.streams[cfg.sid] = RefStream{cfg, 0};
        break;
      }

      case isa::OpKind::StreamLoad: {
        auto it = t.streams.find(op.sid);
        sf_assert(it != t.streams.end(),
                  "ref: stream_load on unconfigured sid=%d", op.sid);
        RefStream &s = it->second;
        uint32_t esz = s.cfg.hasIndirect ? s.cfg.indirect.elemSize
                                         : s.cfg.affine.elemSize;
        std::vector<uint8_t> bytes(
            static_cast<size_t>(op.elems) * esz);
        for (uint16_t e = 0; e < op.elems; ++e) {
            Addr va = elemVaddr(t, s, s.iter + e);
            readBytes(va, bytes.data() + static_cast<size_t>(e) * esz,
                      esz);
        }
        value = foldBytes(bytes.data(), bytes.size());
        break;
      }

      case isa::OpKind::StreamStore: {
        auto it = t.streams.find(op.sid);
        sf_assert(it != t.streams.end(),
                  "ref: stream_store on unconfigured sid=%d", op.sid);
        RefStream &s = it->second;
        uint16_t size = op.size ? op.size : 4;
        value = storeValue(op.kind, op.pc, srcs, op.numSrcs);
        LineData buf;
        storeBytes(value, buf.data(), size);
        writeBytes(s.cfg.affine.elemAddr(s.iter), buf.data(), size, res);
        break;
      }

      case isa::OpKind::StreamStep: {
        auto it = t.streams.find(op.sid);
        if (it != t.streams.end()) {
            it->second.iter += op.elems;
            res.trips[{tid, op.sid}] += op.elems;
        }
        break;
      }

      case isa::OpKind::StreamEnd:
        t.streams.erase(op.sid);
        break;

      case isa::OpKind::Barrier:
        break;
    }

    t.ring[t.pos & kRingMask] = value;
    ++t.pos;
}

Addr
RefExecutor::elemVaddr(Thread &t, const RefStream &s, uint64_t idx)
{
    if (!s.cfg.hasIndirect)
        return s.cfg.affine.elemAddr(idx);
    // An independent copy of IndirectPattern::elemAddr: the oracle
    // does not share the simulator's address arithmetic. The index
    // array is read from the *raw* PhysMem, never from computed
    // state — the simulator itself chases indices functionally, so
    // index arrays are init-only by construction.
    uint32_t w_len = std::max<uint32_t>(1, s.cfg.indirect.wLen);
    uint64_t parent_idx = idx / w_len;
    uint32_t w = static_cast<uint32_t>(idx % w_len);
    auto pit = t.streams.find(s.cfg.baseSid);
    sf_assert(pit != t.streams.end(),
              "ref: indirect sid=%d without base sid=%d", s.cfg.sid,
              s.cfg.baseSid);
    Addr idx_addr = pit->second.cfg.affine.elemAddr(parent_idx);
    int64_t idx_value = _as.readInt(idx_addr, s.cfg.indirect.idxSize);
    return s.cfg.indirect.targetAddr(idx_value, w);
}

void
RefExecutor::readBytes(Addr vaddr, uint8_t *out, size_t size)
{
    size_t done = 0;
    while (done < size) {
        Addr va = vaddr + done;
        Addr vline = lineAlign(va);
        size_t off = static_cast<size_t>(va - vline);
        size_t chunk =
            std::min(size - done, static_cast<size_t>(lineBytes) - off);
        auto it = _image.find(vline);
        if (it != _image.end()) {
            std::memcpy(out + done, it->second.data() + off, chunk);
        } else {
            Addr pline = _as.translateExisting(vline);
            if (pline == invalidAddr)
                std::memset(out + done, 0, chunk);
            else
                _as.mem().read(pline + off, out + done, chunk);
        }
        done += chunk;
    }
}

void
RefExecutor::writeBytes(Addr vaddr, const uint8_t *in, size_t size,
                        RefResult &res)
{
    (void)res;
    size_t done = 0;
    while (done < size) {
        Addr va = vaddr + done;
        Addr vline = lineAlign(va);
        size_t off = static_cast<size_t>(va - vline);
        size_t chunk =
            std::min(size - done, static_cast<size_t>(lineBytes) - off);
        auto it = _image.find(vline);
        if (it == _image.end()) {
            LineData init;
            Addr pline = _as.translateExisting(vline);
            if (pline == invalidAddr)
                init.fill(0);
            else
                _as.mem().read(pline, init.data(), lineBytes);
            it = _image.emplace(vline, init).first;
        }
        std::memcpy(it->second.data() + off, in + done, chunk);
        done += chunk;
    }
}

} // namespace verify
} // namespace sf
