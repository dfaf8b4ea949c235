/**
 * @file
 * Breadth-first search (Rodinia-style level-synchronous BFS;
 * Table IV: 1M nodes, ~600k edges).
 *
 * Each level iterates the edge list: the edge targets are an affine
 * stream A = edges[], and the per-target visited reads are the
 * indirect stream B[A[i]] - the paper's indirect-floating showcase
 * (subline transfer matters because visited[] reads have no spatial
 * locality). Updates go to a separate "updating" mask, so reads in a
 * level never alias the level's writes (double buffering, as in
 * Rodinia).
 */

#include "workload/kernels.hh"

#include "sim/rng.hh"
#include "workload/kernel_util.hh"

namespace sf {
namespace workload {

namespace {

class BfsWorkload : public Workload
{
  public:
    using Workload::Workload;

    void
    init(mem::AddressSpace &as) override
    {
        _space = &as;
        _nodes = scaled(1000000, 4096);
        _edges = scaled(599970, 4096);
        _levels = 2;
        _edgeArr = as.alloc(_edges * 4, "edges");
        _visited = as.alloc(_nodes * 4, "visited");
        _updating = as.alloc(_nodes * 4, "updating");

        Rng rng(params.seed);
        for (uint64_t e = 0; e < _edges; ++e) {
            as.writeT<int32_t>(_edgeArr + e * 4,
                               static_cast<int32_t>(rng.range(_nodes)));
        }
    }

    std::shared_ptr<isa::OpSource> makeThread(int tid) override;

    std::vector<verify::MemRegion>
    verifyRegions() const override
    {
        return {{"edges", _edgeArr, _edges * 4},
                {"visited", _visited, _nodes * 4},
                {"updating", _updating, _nodes * 4}};
    }

    uint64_t _nodes = 0, _edges = 0;
    int _levels = 0;
    Addr _edgeArr = 0, _visited = 0, _updating = 0;
    mem::AddressSpace *_space = nullptr;
};

class BfsThread : public KernelThread
{
  public:
    BfsThread(BfsWorkload &w, int tid)
        : KernelThread(*w._space, w.params.useStreams, tid,
                       w.params.vecElems),
          _w(w), _rng(w.params.seed ^ (0x9e37u + tid))
    {
        _w.chunk(_w._edges, tid, _lo, _hi);
        _pos = _lo;
    }

    size_t
    refill(std::vector<isa::Op> &out) override
    {
        size_t before = out.size();
        if (_level >= _w._levels)
            return 0;

        constexpr StreamId sE = 0, sV = 1;
        uint64_t n = _hi - _lo;

        if (_pos == _lo) {
            beginStreams(
                out,
                {affine1d(sE, _w._edgeArr + _lo * 4, 4, n, 4),
                 indirectOn(sV, sE, _w._visited, 4, 4, 4, 1, n)});
        }

        uint64_t chunk_end = std::min(_hi, _pos + 2048);
        for (; _pos < chunk_end; ++_pos) {
            uint64_t e = loadView(out, sE, 1);
            // The visited read depends on the edge value (indirect).
            uint64_t v = loadView(out, sV, 1, e);
            uint64_t c = emitCompute(out, isa::OpKind::IntAlu, v);
            // A fraction of targets is newly discovered and queued.
            int32_t tgt = _as.readT<int32_t>(viewAddr(sE));
            if (_rng.chance(0.2)) {
                emitStore(out,
                          _w._updating + static_cast<uint64_t>(tgt) * 4,
                          4, pcOf(77), c);
            }
            stepView(out, sE, 1);
            stepView(out, sV, 1);
        }

        if (_pos >= _hi) {
            endStreams(out, {sE, sV});
            emitBarrier(out);
            _pos = _lo;
            ++_level;
        }
        return out.size() - before;
    }

  private:
    BfsWorkload &_w;
    Rng _rng;
    uint64_t _lo = 0, _hi = 0, _pos = 0;
    int _level = 0;
};

std::shared_ptr<isa::OpSource>
BfsWorkload::makeThread(int tid)
{
    return std::make_shared<BfsThread>(*this, tid);
}

} // namespace

std::unique_ptr<Workload>
makeBfs(const WorkloadParams &p)
{
    return std::make_unique<BfsWorkload>(p);
}

} // namespace workload
} // namespace sf
