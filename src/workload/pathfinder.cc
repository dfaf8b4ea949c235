/**
 * @file
 * Pathfinder dynamic programming (Rodinia; Table IV: 1.5M entries, 8
 * iterations).
 *
 * Each iteration computes dst[c] = wall[r][c] + min(src[c-1], src[c],
 * src[c+1]) over a very wide row, with a barrier between iterations.
 * Columns are partitioned across threads. The three shifted source
 * windows are modelled as three affine streams with offset bases.
 */

#include "workload/kernels.hh"

#include "workload/kernel_util.hh"

namespace sf {
namespace workload {

namespace {

class PathfinderWorkload : public Workload
{
  public:
    using Workload::Workload;

    void
    init(mem::AddressSpace &as) override
    {
        _space = &as;
        _cols = scaled(1500000, 8192);
        _rows = 8;
        _wall = as.alloc(_rows * _cols * 4, "wall");
        _buf[0] = as.alloc(_cols * 4, "res0");
        _buf[1] = as.alloc(_cols * 4, "res1");
    }

    std::shared_ptr<isa::OpSource> makeThread(int tid) override;

    std::vector<verify::MemRegion>
    verifyRegions() const override
    {
        return {{"wall", _wall,
                 static_cast<uint64_t>(_rows) * _cols * 4},
                {"res0", _buf[0], _cols * 4},
                {"res1", _buf[1], _cols * 4}};
    }

    uint64_t _cols = 0;
    int _rows = 0;
    Addr _wall = 0;
    Addr _buf[2] = {0, 0};
    mem::AddressSpace *_space = nullptr;
};

class PathfinderThread : public KernelThread
{
  public:
    PathfinderThread(PathfinderWorkload &w, int tid)
        : KernelThread(*w._space, w.params.useStreams, tid,
                       w.params.vecElems),
          _w(w)
    {
        _w.chunk(_w._cols - 2, tid, _lo, _hi);
        _lo += 1;
        _hi += 1;
    }

    size_t
    refill(std::vector<isa::Op> &out) override
    {
        size_t before = out.size();
        if (_iter >= _w._rows)
            return 0;

        Addr src = _w._buf[_iter & 1];
        Addr dst = _w._buf[(_iter + 1) & 1];
        uint64_t n = _hi - _lo;

        constexpr StreamId sL = 0, sC = 1, sR = 2, sW = 3, sD = 4;
        beginStreams(
            out,
            {affine1d(sL, src + (_lo - 1) * 4, 4, n, 4),
             affine1d(sC, src + _lo * 4, 4, n, 4),
             affine1d(sR, src + (_lo + 1) * 4, 4, n, 4),
             affine1d(sW, _w._wall +
                              (static_cast<uint64_t>(_iter) * _w._cols +
                               _lo) * 4,
                      4, n, 4),
             affine1d(sD, dst + _lo * 4, 4, n, 4, true)});
        rowPass(out, n, {sL, sC, sR, sW}, sD, /*fp=*/0, /*int=*/4);
        endStreams(out, {sL, sC, sR, sW, sD});
        emitBarrier(out);
        ++_iter;
        return out.size() - before;
    }

  private:
    PathfinderWorkload &_w;
    uint64_t _lo = 0, _hi = 0;
    int _iter = 0;
};

std::shared_ptr<isa::OpSource>
PathfinderWorkload::makeThread(int tid)
{
    return std::make_shared<PathfinderThread>(*this, tid);
}

} // namespace

std::unique_ptr<Workload>
makePathfinder(const WorkloadParams &p)
{
    return std::make_unique<PathfinderWorkload>(p);
}

} // namespace workload
} // namespace sf
