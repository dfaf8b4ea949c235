/**
 * @file
 * Nearest neighbor (Rodinia nn; Table IV: 768k entries).
 *
 * Each record holds (lat, lng); every thread streams its slice of the
 * record array once, computes the Euclidean distance to the query
 * point and keeps a running minimum. Pure streaming with zero reuse:
 * the workload floats almost entirely and is memory-bandwidth bound.
 */

#include "workload/kernels.hh"

#include "workload/kernel_util.hh"

namespace sf {
namespace workload {

namespace {

class NnWorkload : public Workload
{
  public:
    using Workload::Workload;

    void
    init(mem::AddressSpace &as) override
    {
        _space = &as;
        _records = scaled(768 * 1024, 4096);
        _recs = as.alloc(_records * 8, "records");
    }

    std::shared_ptr<isa::OpSource> makeThread(int tid) override;

    std::vector<verify::MemRegion>
    verifyRegions() const override
    {
        return {{"records", _recs, _records * 8}};
    }

    uint64_t _records = 0;
    Addr _recs = 0;
    mem::AddressSpace *_space = nullptr;
};

class NnThread : public KernelThread
{
  public:
    NnThread(NnWorkload &w, int tid)
        : KernelThread(*w._space, w.params.useStreams, tid,
                       w.params.vecElems),
          _w(w)
    {
        _w.chunk(_w._records, tid, _lo, _hi);
    }

    size_t
    refill(std::vector<isa::Op> &out) override
    {
        size_t before = out.size();
        if (_done)
            return 0;

        constexpr StreamId sidR = 0;
        // 8-byte records: stream them as 8B elements.
        beginStreams(out, {affine1d(sidR, _w._recs + _lo * 8, 8,
                                    _hi - _lo, 8)});
        uint64_t iters = _hi - _lo;
        uint64_t done = 0;
        int vec = std::max(1, _vec / 2); // 8 records per 64B vector
        while (done < iters) {
            auto elems = static_cast<uint16_t>(
                std::min<uint64_t>(vec, iters - done));
            uint64_t l = loadView(out, sidR, elems);
            // dx*dx + dy*dy, sqrt-free compare, running min.
            uint64_t d = emitCompute(out, isa::OpKind::FpAlu, l);
            d = emitCompute(out, isa::OpKind::FpAlu, d);
            emitCompute(out, isa::OpKind::IntAlu, d); // min update
            stepView(out, sidR, elems);
            done += elems;
        }
        endStreams(out, {sidR});
        emitBarrier(out);
        _done = true;
        return out.size() - before;
    }

  private:
    NnWorkload &_w;
    uint64_t _lo = 0, _hi = 0;
    bool _done = false;
};

std::shared_ptr<isa::OpSource>
NnWorkload::makeThread(int tid)
{
    return std::make_shared<NnThread>(*this, tid);
}

} // namespace

std::unique_ptr<Workload>
makeNn(const WorkloadParams &p)
{
    return std::make_unique<NnWorkload>(p);
}

} // namespace workload
} // namespace sf
