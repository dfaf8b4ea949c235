/**
 * @file
 * Tiled matrix-vector multiplication (Table IV: matrix 256 x 65536).
 *
 * y[r] = sum_c A[r][c] * x[c]. Rows are partitioned across threads;
 * each row streams the (huge, reuse-free) matrix row A[r][:] and the
 * (shared) vector x[:]. The matrix stream is the archetypal affine-
 * floating candidate; the x stream is shared by all threads and can
 * form confluence groups.
 */

#include "workload/kernels.hh"

#include "workload/kernel_util.hh"

namespace sf {
namespace workload {

namespace {

class MvWorkload : public Workload
{
  public:
    using Workload::Workload;

    void
    init(mem::AddressSpace &as) override
    {
        _space = &as;
        _cols = scaled(65536, 2048);
        _rows = std::max<uint64_t>(
            static_cast<uint64_t>(params.numThreads),
            scaled(256, 16));
        _a = as.alloc(_rows * _cols * 4, "A");
        _x = as.alloc(_cols * 4, "x");
        _y = as.alloc(_rows * 4, "y");
        for (uint64_t c = 0; c < _cols; ++c)
            as.writeT<float>(_x + c * 4, static_cast<float>(c % 97));
    }

    std::shared_ptr<isa::OpSource> makeThread(int tid) override;

    std::vector<verify::MemRegion>
    verifyRegions() const override
    {
        return {{"A", _a, _rows * _cols * 4},
                {"x", _x, _cols * 4},
                {"y", _y, _rows * 4}};
    }

    uint64_t _rows = 0, _cols = 0;
    Addr _a = 0, _x = 0, _y = 0;
    mem::AddressSpace *_space = nullptr;
};

class MvThread : public KernelThread
{
  public:
    MvThread(MvWorkload &w, int tid)
        : KernelThread(*w._space, w.params.useStreams, tid,
                       w.params.vecElems),
          _w(w)
    {
        _w.chunk(_w._rows, tid, _row, _rowEnd);
    }

    size_t
    refill(std::vector<isa::Op> &out) override
    {
        size_t before = out.size();
        if (_row >= _rowEnd) {
            if (!_finished) {
                emitBarrier(out);
                _finished = true;
            }
            return out.size() - before;
        }

        constexpr StreamId sidA = 0, sidX = 1;
        beginStreams(out,
                     {affine1d(sidA, _w._a + _row * _w._cols * 4, 4,
                               _w._cols, 4),
                      affine1d(sidX, _w._x, 4, _w._cols, 4)});
        rowPass(out, _w._cols, {sidA, sidX}, invalidStream,
                /*fp=*/2);
        // Horizontal reduction and the y[r] store.
        uint64_t red = emitCompute(out, isa::OpKind::FpAlu);
        emitStore(out, _w._y + _row * 4, 4, pcOf(100), red);
        endStreams(out, {sidA, sidX});
        ++_row;
        return out.size() - before;
    }

  private:
    MvWorkload &_w;
    uint64_t _row = 0, _rowEnd = 0;
    bool _finished = false;
};

std::shared_ptr<isa::OpSource>
MvWorkload::makeThread(int tid)
{
    return std::make_shared<MvThread>(*this, tid);
}

} // namespace

std::unique_ptr<Workload>
makeMv(const WorkloadParams &p)
{
    return std::make_unique<MvWorkload>(p);
}

} // namespace workload
} // namespace sf
