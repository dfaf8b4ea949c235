/**
 * @file
 * Hotspot3D (Rodinia; Table IV: 512x512x8, 8 iterations).
 *
 * 3D 7-point stencil over a thin z-stack with ping-pong buffers and a
 * barrier per iteration. (z, y) row passes stream five neighbour rows
 * plus power and store the destination row.
 */

#include "workload/kernels.hh"

#include "workload/kernel_util.hh"

namespace sf {
namespace workload {

namespace {

class Hotspot3DWorkload : public Workload
{
  public:
    using Workload::Workload;

    void
    init(mem::AddressSpace &as) override
    {
        _space = &as;
        _dim = scaled(512, 64);
        _layers = 8;
        _iters = 2;
        uint64_t cells = _dim * _dim * _layers;
        _temp[0] = as.alloc(cells * 4, "temp0");
        _temp[1] = as.alloc(cells * 4, "temp1");
        _power = as.alloc(cells * 4, "power");
    }

    std::shared_ptr<isa::OpSource> makeThread(int tid) override;

    std::vector<verify::MemRegion>
    verifyRegions() const override
    {
        uint64_t bytes = _dim * _dim * _layers * 4;
        return {{"temp0", _temp[0], bytes},
                {"temp1", _temp[1], bytes},
                {"power", _power, bytes}};
    }

    uint64_t _dim = 0;
    uint64_t _layers = 0;
    int _iters = 0;
    Addr _temp[2] = {0, 0};
    Addr _power = 0;
    mem::AddressSpace *_space = nullptr;
};

class Hotspot3DThread : public KernelThread
{
  public:
    Hotspot3DThread(Hotspot3DWorkload &w, int tid)
        : KernelThread(*w._space, w.params.useStreams, tid,
                       w.params.vecElems),
          _w(w)
    {
        // Partition (z, y) interior rows across threads.
        _rowsPerLayer = _w._dim - 2;
        uint64_t total = _rowsPerLayer * (_w._layers - 2);
        _w.chunk(total, tid, _lo, _hi);
        _pos = _lo;
    }

    size_t
    refill(std::vector<isa::Op> &out) override
    {
        size_t before = out.size();
        if (_iter >= _w._iters)
            return 0;

        Addr src = _w._temp[_iter & 1];
        Addr dst = _w._temp[(_iter + 1) & 1];
        uint64_t z = 1 + _pos / _rowsPerLayer;
        uint64_t y = 1 + _pos % _rowsPerLayer;
        uint64_t pitch = _w._dim * 4;
        uint64_t zpitch = _w._dim * _w._dim * 4;
        Addr c = src + z * zpitch + y * pitch;

        constexpr StreamId sC = 0, sN = 1, sS = 2, sU = 3, sD = 4,
                           sP = 5, sO = 6;
        beginStreams(
            out,
            {affine1d(sC, c, 4, _w._dim, 4),
             affine1d(sN, c - pitch, 4, _w._dim, 4),
             affine1d(sS, c + pitch, 4, _w._dim, 4),
             affine1d(sU, c - zpitch, 4, _w._dim, 4),
             affine1d(sD, c + zpitch, 4, _w._dim, 4),
             affine1d(sP, _w._power + z * zpitch + y * pitch, 4,
                      _w._dim, 4),
             affine1d(sO, dst + z * zpitch + y * pitch, 4, _w._dim, 4,
                      true)});
        rowPass(out, _w._dim, {sC, sN, sS, sU, sD, sP}, sO, /*fp=*/8);
        endStreams(out, {sC, sN, sS, sU, sD, sP, sO});

        ++_pos;
        if (_pos >= _hi) {
            emitBarrier(out);
            _pos = _lo;
            ++_iter;
        }
        return out.size() - before;
    }

  private:
    Hotspot3DWorkload &_w;
    uint64_t _rowsPerLayer = 0;
    uint64_t _lo = 0, _hi = 0, _pos = 0;
    int _iter = 0;
};

std::shared_ptr<isa::OpSource>
Hotspot3DWorkload::makeThread(int tid)
{
    return std::make_shared<Hotspot3DThread>(*this, tid);
}

} // namespace

std::unique_ptr<Workload>
makeHotspot3D(const WorkloadParams &p)
{
    return std::make_unique<Hotspot3DWorkload>(p);
}

} // namespace workload
} // namespace sf
