/**
 * @file
 * Hotspot thermal simulation (Rodinia; Table IV: 1024x1024, 8 iters).
 *
 * 2D 5-point stencil with a power term, ping-pong buffers and a global
 * barrier per iteration. Rows are partitioned across threads; each row
 * pass streams the three source rows plus the power row and stores the
 * destination row. Streams end before every barrier (synchronization-
 * free regions, §V-A).
 */

#include "workload/kernels.hh"

#include "workload/kernel_util.hh"

namespace sf {
namespace workload {

namespace {

class HotspotWorkload : public Workload
{
  public:
    using Workload::Workload;

    void
    init(mem::AddressSpace &as) override
    {
        _space = &as;
        _dim = scaled(1024, 128);
        _iters = 4;
        _temp[0] = as.alloc(_dim * _dim * 4, "temp0");
        _temp[1] = as.alloc(_dim * _dim * 4, "temp1");
        _power = as.alloc(_dim * _dim * 4, "power");
    }

    std::shared_ptr<isa::OpSource> makeThread(int tid) override;

    std::vector<verify::MemRegion>
    verifyRegions() const override
    {
        uint64_t bytes = _dim * _dim * 4;
        return {{"temp0", _temp[0], bytes},
                {"temp1", _temp[1], bytes},
                {"power", _power, bytes}};
    }

    uint64_t _dim = 0;
    int _iters = 0;
    Addr _temp[2] = {0, 0};
    Addr _power = 0;
    mem::AddressSpace *_space = nullptr;
};

class HotspotThread : public KernelThread
{
  public:
    HotspotThread(HotspotWorkload &w, int tid)
        : KernelThread(*w._space, w.params.useStreams, tid,
                       w.params.vecElems),
          _w(w)
    {
        _w.chunk(_w._dim - 2, tid, _rowLo, _rowHi);
        _rowLo += 1; // interior rows only
        _rowHi += 1;
        _row = _rowLo;
    }

    size_t
    refill(std::vector<isa::Op> &out) override
    {
        size_t before = out.size();
        if (_iter >= _w._iters)
            return 0;

        Addr src = _w._temp[_iter & 1];
        Addr dst = _w._temp[(_iter + 1) & 1];
        uint64_t pitch = _w._dim * 4;

        // One source-row block per refill call.
        constexpr StreamId sN = 0, sC = 1, sS = 2, sP = 3, sD = 4;
        uint64_t r = _row;
        beginStreams(
            out,
            {affine1d(sN, src + (r - 1) * pitch, 4, _w._dim, 4),
             affine1d(sC, src + r * pitch, 4, _w._dim, 4),
             affine1d(sS, src + (r + 1) * pitch, 4, _w._dim, 4),
             affine1d(sP, _w._power + r * pitch, 4, _w._dim, 4),
             affine1d(sD, dst + r * pitch, 4, _w._dim, 4, true)});
        rowPass(out, _w._dim, {sN, sC, sS, sP}, sD, /*fp=*/6);
        endStreams(out, {sN, sC, sS, sP, sD});

        ++_row;
        if (_row >= _rowHi) {
            emitBarrier(out);
            _row = _rowLo;
            ++_iter;
        }
        return out.size() - before;
    }

  private:
    HotspotWorkload &_w;
    uint64_t _rowLo = 0, _rowHi = 0, _row = 0;
    int _iter = 0;
};

std::shared_ptr<isa::OpSource>
HotspotWorkload::makeThread(int tid)
{
    return std::make_shared<HotspotThread>(*this, tid);
}

} // namespace

std::unique_ptr<Workload>
makeHotspot(const WorkloadParams &p)
{
    return std::make_unique<HotspotWorkload>(p);
}

} // namespace workload
} // namespace sf
