/**
 * @file
 * Needleman-Wunsch sequence alignment (Rodinia; Table IV: 2048x2048).
 *
 * The score matrix is processed in BxB blocks along anti-diagonals
 * with a barrier per diagonal. Within a block, each row reads the
 * reference matrix row and the previous score row and produces the
 * next score row with a serial dependence chain. The key property the
 * paper calls out: the *blocked 2D array accessed in diagonal order*
 * defeats simple stride prefetchers, while the per-block rows are
 * clean 2-level affine streams.
 */

#include "workload/kernels.hh"

#include "workload/kernel_util.hh"

namespace sf {
namespace workload {

namespace {

constexpr uint64_t blockDim = 32;

class NwWorkload : public Workload
{
  public:
    using Workload::Workload;

    void
    init(mem::AddressSpace &as) override
    {
        _space = &as;
        _dim = scaled(2048, 256);
        _blocks = _dim / blockDim;
        _ref = as.alloc(_dim * _dim * 4, "ref");
        _mat = as.alloc(_dim * _dim * 4, "matrix");
    }

    std::shared_ptr<isa::OpSource> makeThread(int tid) override;

    std::vector<verify::MemRegion>
    verifyRegions() const override
    {
        return {{"ref", _ref, _dim * _dim * 4},
                {"matrix", _mat, _dim * _dim * 4}};
    }

    uint64_t _dim = 0, _blocks = 0;
    Addr _ref = 0, _mat = 0;
    mem::AddressSpace *_space = nullptr;
};

class NwThread : public KernelThread
{
  public:
    NwThread(NwWorkload &w, int tid)
        : KernelThread(*w._space, w.params.useStreams, tid,
                       w.params.vecElems),
          _w(w), _tidx(tid)
    {}

    size_t
    refill(std::vector<isa::Op> &out) override
    {
        size_t before = out.size();
        uint64_t num_diagonals = 2 * _w._blocks - 1;
        if (_diag >= num_diagonals)
            return 0;

        // Blocks on this anti-diagonal, statically partitioned.
        uint64_t d = _diag;
        uint64_t first_by = d < _w._blocks ? 0 : d - (_w._blocks - 1);
        uint64_t last_by = std::min(d, _w._blocks - 1);
        uint64_t count = last_by - first_by + 1;
        uint64_t lo, hi;
        uint64_t t = static_cast<uint64_t>(_w.params.numThreads);
        lo = count * static_cast<uint64_t>(_tidx) / t;
        hi = count * static_cast<uint64_t>(_tidx + 1) / t;

        uint64_t pitch = _w._dim * 4;
        constexpr StreamId sRef = 0, sUp = 1, sOut = 2;

        for (uint64_t k = lo; k < hi; ++k) {
            uint64_t by = first_by + k;
            uint64_t bx = d - by;
            Addr blk_ref = _w._ref +
                           (by * blockDim * _w._dim + bx * blockDim) * 4;
            Addr blk_mat = _w._mat +
                           (by * blockDim * _w._dim + bx * blockDim) * 4;

            // 2-level affine streams over the block's rows: this is
            // the diagonal-order pattern that breaks stride PF. The
            // block's top boundary row is read once; the remaining
            // rows carry their dependence in registers and are only
            // written (no read-after-write aliasing inside a block).
            beginStreams(
                out,
                {affine2d(sRef, blk_ref, 4, blockDim, 4, blockDim - 1,
                          static_cast<int64_t>(pitch)),
                 affine1d(sUp, blk_mat, 4, blockDim, 4),
                 affine2d(sOut, blk_mat + pitch, 4, blockDim, 4,
                          blockDim - 1, static_cast<int64_t>(pitch),
                          true)});
            rowPass(out, blockDim, {sUp}, invalidStream, /*fp=*/0,
                    /*int=*/1, /*vec=*/8);
            for (uint64_t row = 0; row + 1 < blockDim; ++row) {
                // Serial max-chain across the row (int compares).
                rowPass(out, blockDim, {sRef}, sOut, /*fp=*/0,
                        /*int=*/3, /*vec=*/8);
            }
            endStreams(out, {sRef, sUp, sOut});
        }

        emitBarrier(out);
        ++_diag;
        return out.size() - before;
    }

  private:
    NwWorkload &_w;
    int _tidx;
    uint64_t _diag = 0;
};

std::shared_ptr<isa::OpSource>
NwWorkload::makeThread(int tid)
{
    return std::make_shared<NwThread>(*this, tid);
}

} // namespace

std::unique_ptr<Workload>
makeNw(const WorkloadParams &p)
{
    return std::make_unique<NwWorkload>(p);
}

} // namespace workload
} // namespace sf
