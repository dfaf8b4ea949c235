/**
 * @file
 * Particle filter (Rodinia; Table IV: 48k particles, 1000x1000 frame).
 *
 * Per frame: (1) weight update - affine streams over the particle
 * arrays; (2) serial CDF accumulation on thread 0; (3) resampling -
 * every thread scans the *shared* CDF array from the beginning until
 * it passes its u value. All threads stream the same CDF with the same
 * pattern at the same time: the paper's second confluence showcase.
 * The scan length is data dependent, so the CDF stream has unknown
 * length and is terminated early with stream_end.
 */

#include "workload/kernels.hh"

#include "sim/rng.hh"
#include "workload/kernel_util.hh"

namespace sf {
namespace workload {

namespace {

class ParticlefilterWorkload : public Workload
{
  public:
    using Workload::Workload;

    void
    init(mem::AddressSpace &as) override
    {
        _space = &as;
        _particles = scaled(48128, 4096);
        _frames = 2;
        _weights = as.alloc(_particles * 4, "weights");
        _cdf = as.alloc(_particles * 4, "cdf");
        _arrayX = as.alloc(_particles * 4, "arrayX");
        _arrayY = as.alloc(_particles * 4, "arrayY");
        _outX = as.alloc(_particles * 4, "outX");

        // Materialize a plausible CDF so resampling scan lengths are
        // data dependent but deterministic.
        Rng rng(params.seed);
        double acc = 0;
        for (uint64_t i = 0; i < _particles; ++i) {
            acc += rng.uniform() + 0.1;
            as.writeT<float>(_cdf + i * 4, static_cast<float>(acc));
        }
        _total = acc;
    }

    std::shared_ptr<isa::OpSource> makeThread(int tid) override;

    std::vector<verify::MemRegion>
    verifyRegions() const override
    {
        uint64_t bytes = _particles * 4;
        return {{"weights", _weights, bytes},
                {"cdf", _cdf, bytes},
                {"arrayX", _arrayX, bytes},
                {"arrayY", _arrayY, bytes},
                {"outX", _outX, bytes}};
    }

    uint64_t _particles = 0;
    int _frames = 0;
    Addr _weights = 0, _cdf = 0, _arrayX = 0, _arrayY = 0, _outX = 0;
    double _total = 0;
    mem::AddressSpace *_space = nullptr;
};

class ParticlefilterThread : public KernelThread
{
  public:
    ParticlefilterThread(ParticlefilterWorkload &w, int tid)
        : KernelThread(*w._space, w.params.useStreams, tid,
                       w.params.vecElems),
          _w(w), _tidx(tid), _rng(w.params.seed ^ (71u * tid + 3u))
    {
        _w.chunk(_w._particles, tid, _lo, _hi);
    }

    size_t
    refill(std::vector<isa::Op> &out) override
    {
        size_t before = out.size();
        if (_frame >= _w._frames)
            return 0;

        constexpr StreamId sW = 0, sX = 1, sY = 2, sC = 3, sO = 4;

        switch (_phase) {
          case 0: {
            // Weight update over this thread's particles.
            uint64_t n = _hi - _lo;
            beginStreams(
                out,
                {affine1d(sX, _w._arrayX + _lo * 4, 4, n, 4),
                 affine1d(sY, _w._arrayY + _lo * 4, 4, n, 4),
                 affine1d(sW, _w._weights + _lo * 4, 4, n, 4, true)});
            rowPass(out, n, {sX, sY}, sW, /*fp=*/5);
            endStreams(out, {sX, sY, sW});
            emitBarrier(out);
            _phase = 1;
            break;
          }
          case 1: {
            // Serial CDF accumulation on thread 0 (everyone barriers).
            if (_tidx == 0) {
                uint64_t chain = 0;
                for (uint64_t i = 0; i < _w._particles;
                     i += uint64_t(_vec)) {
                    uint64_t l = emitLoad(
                        out, _w._weights + i * 4,
                        uint16_t(std::min<uint64_t>(_vec,
                                                    _w._particles - i) *
                                 4),
                        pcOf(50));
                    chain = emitCompute(out, isa::OpKind::FpAlu, l,
                                        chain);
                }
            }
            emitBarrier(out);
            _phase = 2;
            break;
          }
          case 2: {
            // Resampling: scan the shared CDF from 0 until u is
            // passed. Unknown-length stream + early stream_end.
            double u = _w._total *
                       (static_cast<double>(_lo) + 0.5) /
                       static_cast<double>(_w._particles);
            // Functional scan to find the stop point.
            uint64_t stop = 0;
            while (stop < _w._particles &&
                   _w._space->readT<float>(_w._cdf + stop * 4) <
                       static_cast<float>(u)) {
                ++stop;
            }

            isa::StreamConfig cdf_cfg =
                affine1d(sC, _w._cdf, 4, _w._particles, 4);
            cdf_cfg.lengthKnown = false;
            beginStreams(out, {cdf_cfg});
            uint64_t scanned = 0;
            while (scanned <= stop) {
                auto elems = static_cast<uint16_t>(std::min<uint64_t>(
                    static_cast<uint64_t>(_vec), stop + 1 - scanned));
                uint64_t l = loadView(out, sC, elems);
                emitCompute(out, isa::OpKind::FpAlu, l);
                stepView(out, sC, elems);
                scanned += elems;
            }
            endStreams(out, {sC});

            // Gather the selected particle and write the new state.
            uint64_t g = emitLoad(out, _w._arrayX + stop * 4, 4,
                                  pcOf(51));
            beginStreams(out, {affine1d(sO, _w._outX + _lo * 4, 4,
                                        _hi - _lo, 4, true)});
            storeView(out, sO, g, 1);
            stepView(out, sO, 1);
            endStreams(out, {sO});
            emitBarrier(out);
            _phase = 0;
            ++_frame;
            break;
          }
        }
        return out.size() - before;
    }

  private:
    ParticlefilterWorkload &_w;
    int _tidx;
    Rng _rng;
    uint64_t _lo = 0, _hi = 0;
    int _phase = 0;
    int _frame = 0;
};

std::shared_ptr<isa::OpSource>
ParticlefilterWorkload::makeThread(int tid)
{
    return std::make_shared<ParticlefilterThread>(*this, tid);
}

} // namespace

std::unique_ptr<Workload>
makeParticlefilter(const WorkloadParams &p)
{
    return std::make_unique<ParticlefilterWorkload>(p);
}

} // namespace workload
} // namespace sf
