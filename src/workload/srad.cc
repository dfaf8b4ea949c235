/**
 * @file
 * SRAD speckle-reducing anisotropic diffusion (Rodinia; Table IV:
 * 512x2048, 8 iterations).
 *
 * Two row-wise stencil passes per iteration (gradient/coefficient then
 * divergence/update) separated by barriers.
 */

#include "workload/kernels.hh"

#include "workload/kernel_util.hh"

namespace sf {
namespace workload {

namespace {

class SradWorkload : public Workload
{
  public:
    using Workload::Workload;

    void
    init(mem::AddressSpace &as) override
    {
        _space = &as;
        _rows = scaled(512, 64);
        _cols = scaled(2048, 128);
        _iters = 2;
        uint64_t cells = _rows * _cols;
        _j = as.alloc(cells * 4, "J");
        _c = as.alloc(cells * 4, "c");
        _dn = as.alloc(cells * 4, "dN");
        _ds = as.alloc(cells * 4, "dS");
    }

    std::shared_ptr<isa::OpSource> makeThread(int tid) override;

    std::vector<verify::MemRegion>
    verifyRegions() const override
    {
        uint64_t bytes = _rows * _cols * 4;
        return {{"J", _j, bytes},
                {"c", _c, bytes},
                {"dN", _dn, bytes},
                {"dS", _ds, bytes}};
    }

    uint64_t _rows = 0, _cols = 0;
    int _iters = 0;
    Addr _j = 0, _c = 0, _dn = 0, _ds = 0;
    mem::AddressSpace *_space = nullptr;
};

class SradThread : public KernelThread
{
  public:
    SradThread(SradWorkload &w, int tid)
        : KernelThread(*w._space, w.params.useStreams, tid,
                       w.params.vecElems),
          _w(w)
    {
        _w.chunk(_w._rows - 2, tid, _rowLo, _rowHi);
        _rowLo += 1;
        _rowHi += 1;
        _row = _rowLo;
    }

    size_t
    refill(std::vector<isa::Op> &out) override
    {
        size_t before = out.size();
        if (_iter >= _w._iters)
            return 0;

        uint64_t pitch = _w._cols * 4;
        uint64_t r = _row;
        constexpr StreamId s0 = 0, s1 = 1, s2 = 2, s3 = 3, s4 = 4,
                           s5 = 5;

        if (_pass == 0) {
            // Gradient + diffusion coefficient: read 3 J rows, store
            // c and the directional derivatives.
            beginStreams(
                out,
                {affine1d(s0, _w._j + (r - 1) * pitch, 4, _w._cols, 4),
                 affine1d(s1, _w._j + r * pitch, 4, _w._cols, 4),
                 affine1d(s2, _w._j + (r + 1) * pitch, 4, _w._cols, 4),
                 affine1d(s3, _w._c + r * pitch, 4, _w._cols, 4, true),
                 affine1d(s4, _w._dn + r * pitch, 4, _w._cols, 4, true),
                 affine1d(s5, _w._ds + r * pitch, 4, _w._cols, 4,
                          true)});
            // Two stores per element: c and dN (dS folded as extra fp).
            uint64_t n = _w._cols;
            uint64_t done = 0;
            while (done < n) {
                auto elems = static_cast<uint16_t>(std::min<uint64_t>(
                    static_cast<uint64_t>(_vec), n - done));
                uint64_t a = loadView(out, s0, elems);
                uint64_t b = loadView(out, s1, elems);
                loadView(out, s2, elems);
                uint64_t g = emitCompute(out, isa::OpKind::FpAlu, a, b);
                g = emitCompute(out, isa::OpKind::FpAlu, g);
                g = emitCompute(out, isa::OpKind::FpDiv, g);
                storeView(out, s3, g, elems);
                storeView(out, s4, g, elems);
                storeView(out, s5, g, elems);
                for (StreamId s : {s0, s1, s2, s3, s4, s5})
                    stepView(out, s, elems);
                done += elems;
            }
            endStreams(out, {s0, s1, s2, s3, s4, s5});
        } else {
            // Divergence + update: read c rows and derivatives,
            // update J in place.
            beginStreams(
                out,
                {affine1d(s0, _w._c + r * pitch, 4, _w._cols, 4),
                 affine1d(s1, _w._c + (r + 1) * pitch, 4, _w._cols, 4),
                 affine1d(s2, _w._dn + r * pitch, 4, _w._cols, 4),
                 affine1d(s3, _w._ds + r * pitch, 4, _w._cols, 4),
                 affine1d(s4, _w._j + r * pitch, 4, _w._cols, 4, true)});
            rowPass(out, _w._cols, {s0, s1, s2, s3}, s4, /*fp=*/5);
            endStreams(out, {s0, s1, s2, s3, s4});
        }

        ++_row;
        if (_row >= _rowHi) {
            emitBarrier(out);
            _row = _rowLo;
            if (++_pass == 2) {
                _pass = 0;
                ++_iter;
            }
        }
        return out.size() - before;
    }

  private:
    SradWorkload &_w;
    uint64_t _rowLo = 0, _rowHi = 0, _row = 0;
    int _pass = 0;
    int _iter = 0;
};

std::shared_ptr<isa::OpSource>
SradWorkload::makeThread(int tid)
{
    return std::make_shared<SradThread>(*this, tid);
}

} // namespace

std::unique_ptr<Workload>
makeSrad(const WorkloadParams &p)
{
    return std::make_unique<SradWorkload>(p);
}

} // namespace workload
} // namespace sf
