/**
 * @file
 * CFD Euler solver (Rodinia cfd; Table IV: fvcorr.domn.193K).
 *
 * Unstructured-mesh flux computation: per element, load the four
 * neighbour indices (affine), gather each neighbour's five
 * conservative variables (indirect with a w-loop of 5 - the subline
 * transfer case of §IV-B), combine with face normals (affine), and
 * store fluxes (affine store stream).
 */

#include "workload/kernels.hh"

#include "sim/rng.hh"
#include "workload/kernel_util.hh"

namespace sf {
namespace workload {

namespace {

constexpr uint32_t nVar = 5;
constexpr uint32_t nNeighbors = 4;

class CfdWorkload : public Workload
{
  public:
    using Workload::Workload;

    void
    init(mem::AddressSpace &as) override
    {
        _space = &as;
        _elems = scaled(193536, 4096);
        _iters = 2;
        _esel = as.alloc(_elems * nNeighbors * 4, "neighbors");
        _variables = as.alloc(_elems * nVar * 4, "variables");
        _normals = as.alloc(_elems * nNeighbors * 3 * 4, "normals");
        _fluxes = as.alloc(_elems * nVar * 4, "fluxes");

        Rng rng(params.seed);
        for (uint64_t i = 0; i < _elems * nNeighbors; ++i) {
            as.writeT<int32_t>(_esel + i * 4,
                               static_cast<int32_t>(rng.range(_elems)));
        }
    }

    std::shared_ptr<isa::OpSource> makeThread(int tid) override;

    std::vector<verify::MemRegion>
    verifyRegions() const override
    {
        return {{"neighbors", _esel, _elems * nNeighbors * 4},
                {"variables", _variables, _elems * nVar * 4},
                {"normals", _normals, _elems * nNeighbors * 3 * 4},
                {"fluxes", _fluxes, _elems * nVar * 4}};
    }

    uint64_t _elems = 0;
    int _iters = 0;
    Addr _esel = 0, _variables = 0, _normals = 0, _fluxes = 0;
    mem::AddressSpace *_space = nullptr;
};

class CfdThread : public KernelThread
{
  public:
    CfdThread(CfdWorkload &w, int tid)
        : KernelThread(*w._space, w.params.useStreams, tid,
                       w.params.vecElems),
          _w(w)
    {
        _w.chunk(_w._elems, tid, _lo, _hi);
        _pos = _lo;
    }

    size_t
    refill(std::vector<isa::Op> &out) override
    {
        size_t before = out.size();
        if (_iter >= _w._iters)
            return 0;

        constexpr StreamId sNb = 0, sVar = 1, sNorm = 2, sOwn = 3,
                           sFlux = 4;
        uint64_t n = _hi - _lo;

        if (_pos == _lo) {
            beginStreams(
                out,
                {// Neighbour indices: 4 per element, affine.
                 affine1d(sNb, _w._esel + _lo * nNeighbors * 4, 4,
                          n * nNeighbors, 4),
                 // Gather neighbour variables: 5 consecutive floats at
                 // each indirect location (w-loop, subline transfer).
                 indirectOn(sVar, sNb, _w._variables, 4, 4, nVar * 4,
                            nVar, n * nNeighbors * nVar),
                 affine1d(sNorm, _w._normals + _lo * nNeighbors * 12, 4,
                          n * nNeighbors * 3, 4),
                 affine1d(sOwn, _w._variables + _lo * nVar * 4, 4,
                          n * nVar, 4),
                 affine1d(sFlux, _w._fluxes + _lo * nVar * 4, 4,
                          n * nVar, 4, true)});
        }

        uint64_t chunk_end = std::min(_hi, _pos + 512);
        for (; _pos < chunk_end; ++_pos) {
            // Own variables once per element.
            uint64_t own = loadView(out, sOwn, nVar);
            uint64_t acc = 0;
            for (uint32_t nb = 0; nb < nNeighbors; ++nb) {
                uint64_t e = loadView(out, sNb, 1);
                uint64_t v = loadView(out, sVar, nVar, e);
                uint64_t nm = loadView(out, sNorm, 3);
                uint64_t f =
                    emitCompute(out, isa::OpKind::FpAlu, v, nm);
                f = emitCompute(out, isa::OpKind::FpAlu, f, own);
                f = emitCompute(out, isa::OpKind::FpAlu, f);
                acc = emitCompute(out, isa::OpKind::FpAlu, f, acc);
                stepView(out, sNb, 1);
                stepView(out, sVar, nVar);
                stepView(out, sNorm, 3);
            }
            storeView(out, sFlux, acc, nVar);
            stepView(out, sFlux, nVar);
            stepView(out, sOwn, nVar);
        }

        if (_pos >= _hi) {
            endStreams(out, {sNb, sVar, sNorm, sOwn, sFlux});
            emitBarrier(out);
            _pos = _lo;
            ++_iter;
        }
        return out.size() - before;
    }

  private:
    CfdWorkload &_w;
    uint64_t _lo = 0, _hi = 0, _pos = 0;
    int _iter = 0;
};

std::shared_ptr<isa::OpSource>
CfdWorkload::makeThread(int tid)
{
    return std::make_shared<CfdThread>(*this, tid);
}

} // namespace

std::unique_ptr<Workload>
makeCfd(const WorkloadParams &p)
{
    return std::make_unique<CfdWorkload>(p);
}

} // namespace workload
} // namespace sf
