/**
 * @file
 * Tiled 3D convolution (Table IV: H/W 256x256, I/O channels 16x64,
 * kernel 3x3).
 *
 * Threads partition output channels; every thread streams the *same*
 * input feature-map planes — the paper's flagship stream-confluence
 * workload (51% of conv3d's L3 requests are multicast, Fig. 14).
 *
 * Each (co, ci) pass streams the whole input plane with three
 * row-shifted 2-level affine streams (the §IV-B constant-offset form,
 * so the SE_L2 can alias the shifted copies), accumulates partial sums
 * in a private scratch plane, and streams the finished plane out on
 * the last input channel.
 */

#include "workload/kernels.hh"

#include "workload/kernel_util.hh"

namespace sf {
namespace workload {

namespace {

class Conv3dWorkload : public Workload
{
  public:
    using Workload::Workload;

    void
    init(mem::AddressSpace &as) override
    {
        _space = &as;
        // Floors keep the shared input larger than a private L2, so
        // the floating policy sees the paper's no-local-reuse pattern.
        _h = scaled(256, 128);
        _w = scaled(256, 128);
        _ci = std::max<uint64_t>(2, scaled(16, 4));
        // At least one output channel per thread, to keep every core
        // busy on the same shared input.
        _co = std::max<uint64_t>(
            static_cast<uint64_t>(params.numThreads), scaled(64, 4));
        _in = as.alloc(_ci * _h * _w * 4, "ifmap");
        _out = as.alloc(_co * _h * _w * 4, "ofmap");
        _kern = as.alloc(_co * _ci * 9 * 4, "weights");
        // Per-thread scratch is allocated here (not in the thread
        // constructor) so makeThread(tid) is idempotent: the --verify
        // reference replay must touch the same addresses as the sim.
        for (int t = 0; t < params.numThreads; ++t)
            _scratch.push_back(as.alloc(_h * _w * 4, "scratch"));
    }

    std::shared_ptr<isa::OpSource> makeThread(int tid) override;

    std::vector<verify::MemRegion>
    verifyRegions() const override
    {
        std::vector<verify::MemRegion> r = {
            {"ifmap", _in, _ci * _h * _w * 4},
            {"ofmap", _out, _co * _h * _w * 4},
            {"weights", _kern, _co * _ci * 9 * 4}};
        for (size_t t = 0; t < _scratch.size(); ++t) {
            r.push_back({"scratch" + std::to_string(t), _scratch[t],
                         _h * _w * 4});
        }
        return r;
    }

    uint64_t _h = 0, _w = 0, _ci = 0, _co = 0;
    Addr _in = 0, _out = 0, _kern = 0;
    std::vector<Addr> _scratch;
    mem::AddressSpace *_space = nullptr;
};

class Conv3dThread : public KernelThread
{
  public:
    Conv3dThread(Conv3dWorkload &w, int tid)
        : KernelThread(*w._space, w.params.useStreams, tid,
                       w.params.vecElems),
          _w(w)
    {
        _w.chunk(_w._co, tid, _coLo, _coHi);
        _co = _coLo;
        _scratch = w._scratch[tid];
    }

    size_t
    refill(std::vector<isa::Op> &out) override
    {
        size_t before = out.size();
        if (_co >= _coHi) {
            if (!_finished) {
                emitBarrier(out);
                _finished = true;
            }
            return out.size() - before;
        }

        uint64_t pitch = _w._w * 4;
        uint64_t plane = _w._h * _w._w * 4;
        uint64_t rows = _w._h - 2; // interior output rows
        Addr in_plane = _w._in + _ci * plane;
        Addr out_plane = _w._out + _co * plane;
        bool last_ci = _ci == _w._ci - 1;

        // Weights for this (co, ci) pair: tiny, stays in the L1.
        emitLoad(out, _w._kern + (_co * _w._ci + _ci) * 36, 36,
                 pcOf(90));

        // Three row-shifted 2-level streams over the whole plane:
        // the long-lived pattern the floating policy wants to see.
        constexpr StreamId sN = 0, sC = 1, sS = 2, sO = 3;
        std::vector<isa::StreamConfig> group = {
            affine2d(sN, in_plane, 4, _w._w, 4, rows,
                     static_cast<int64_t>(pitch)),
            affine2d(sC, in_plane + pitch, 4, _w._w, 4, rows,
                     static_cast<int64_t>(pitch)),
            affine2d(sS, in_plane + 2 * pitch, 4, _w._w, 4, rows,
                     static_cast<int64_t>(pitch)),
        };
        if (last_ci) {
            group.push_back(affine2d(sO, out_plane + pitch, 4, _w._w, 4,
                                     rows, static_cast<int64_t>(pitch),
                                     true));
        }
        beginStreams(out, std::move(group));

        // One refill per (co, ci): generate the whole plane pass.
        uint64_t total = rows * _w._w;
        uint64_t done = 0;
        Addr scr_row = _scratch + pitch;
        while (done < total) {
            uint64_t in_row = done % _w._w;
            auto elems = static_cast<uint16_t>(std::min<uint64_t>(
                static_cast<uint64_t>(_vec), _w._w - in_row));
            uint64_t a = loadView(out, sN, elems);
            uint64_t b = loadView(out, sC, elems);
            loadView(out, sS, elems);
            // Partial sums live in the private scratch plane (register
            // tiles in a real compiler); only the last input channel
            // streams the result out, so no stream aliases a store.
            Addr scr = scr_row + (done / _w._w) * pitch + in_row * 4;
            uint64_t acc =
                emitLoad(out, scr, uint16_t(elems * 4), pcOf(91));
            uint64_t last = emitCompute(out, isa::OpKind::FpAlu, a, b);
            for (int k = 1; k < 9; ++k)
                last = emitCompute(out, isa::OpKind::FpAlu, last, acc);
            if (last_ci) {
                storeView(out, sO, last, elems);
                stepView(out, sO, elems);
            } else {
                emitStore(out, scr, uint16_t(elems * 4), pcOf(91),
                          last);
            }
            for (StreamId s : {sN, sC, sS})
                stepView(out, s, elems);
            done += elems;
        }
        if (last_ci)
            endStreams(out, {sN, sC, sS, sO});
        else
            endStreams(out, {sN, sC, sS});

        // Advance (co, ci).
        if (++_ci >= _w._ci) {
            _ci = 0;
            ++_co;
        }
        return out.size() - before;
    }

  private:
    Conv3dWorkload &_w;
    uint64_t _coLo = 0, _coHi = 0;
    uint64_t _co = 0, _ci = 0;
    Addr _scratch = 0;
    bool _finished = false;
};

std::shared_ptr<isa::OpSource>
Conv3dWorkload::makeThread(int tid)
{
    return std::make_shared<Conv3dThread>(*this, tid);
}

} // namespace

std::unique_ptr<Workload>
makeConv3d(const WorkloadParams &p)
{
    return std::make_unique<Conv3dWorkload>(p);
}

} // namespace workload
} // namespace sf
