/**
 * @file
 * B+ tree lookups and range queries (Rodinia b+tree; Table IV: 1M
 * leaves, 10k lookups, 6k range queries).
 *
 * The tree is materialized as per-level node arrays. Queries stream
 * affinely; each lookup walks the levels with genuinely data-dependent
 * loads (the child index is read from the node), which streams cannot
 * cover - so b+tree exercises the demand path and shows only modest
 * floating benefit, as in the paper. Range queries additionally scan
 * consecutive leaves (short affine bursts).
 */

#include "workload/kernels.hh"

#include "sim/rng.hh"
#include "workload/kernel_util.hh"

namespace sf {
namespace workload {

namespace {

constexpr uint32_t fanout = 16;
constexpr uint32_t nodeBytes = fanout * 8; // keys + child refs

class BtreeWorkload : public Workload
{
  public:
    using Workload::Workload;

    void
    init(mem::AddressSpace &as) override
    {
        _space = &as;
        _leaves = scaled(1000000, 16384);
        _lookups = scaled(10000, 512);
        _ranges = scaled(6000, 256);
        _rangeLen = 64;

        // Build level sizes from the leaves up.
        uint64_t n = _leaves;
        while (true) {
            _levels.push_back(n);
            if (n <= 1)
                break;
            n = (n + fanout - 1) / fanout;
        }
        std::reverse(_levels.begin(), _levels.end()); // root first
        for (uint64_t level_nodes : _levels)
            _levelArr.push_back(as.alloc(level_nodes * nodeBytes));

        _queries = as.alloc((_lookups + _ranges) * 4, "queries");
        Rng rng(params.seed);
        for (uint64_t q = 0; q < _lookups + _ranges; ++q) {
            as.writeT<int32_t>(_queries + q * 4,
                               static_cast<int32_t>(rng.range(_leaves)));
        }
        // Fill nodes with child offsets so walks read real data.
        for (size_t l = 0; l + 1 < _levels.size(); ++l) {
            for (uint64_t node = 0; node < _levels[l]; ++node) {
                as.writeT<int32_t>(_levelArr[l] + node * nodeBytes,
                                   static_cast<int32_t>(
                                       std::min(node * fanout,
                                                _levels[l + 1] - 1)));
            }
        }
    }

    std::shared_ptr<isa::OpSource> makeThread(int tid) override;

    std::vector<verify::MemRegion>
    verifyRegions() const override
    {
        std::vector<verify::MemRegion> r;
        for (size_t l = 0; l < _levels.size(); ++l) {
            r.push_back({"level" + std::to_string(l), _levelArr[l],
                         _levels[l] * nodeBytes});
        }
        r.push_back({"queries", _queries, (_lookups + _ranges) * 4});
        return r;
    }

    uint64_t _leaves = 0, _lookups = 0, _ranges = 0, _rangeLen = 0;
    std::vector<uint64_t> _levels;
    std::vector<Addr> _levelArr;
    Addr _queries = 0;
    mem::AddressSpace *_space = nullptr;
};

class BtreeThread : public KernelThread
{
  public:
    BtreeThread(BtreeWorkload &w, int tid)
        : KernelThread(*w._space, w.params.useStreams, tid,
                       w.params.vecElems),
          _w(w)
    {
        _w.chunk(_w._lookups + _w._ranges, tid, _lo, _hi);
        _pos = _lo;
    }

    size_t
    refill(std::vector<isa::Op> &out) override
    {
        size_t before = out.size();
        if (_done)
            return 0;

        constexpr StreamId sQ = 0;
        if (_lo >= _hi) {
            emitBarrier(out);
            _done = true;
            return out.size() - before;
        }
        if (_pos == _lo) {
            beginStreams(out, {affine1d(sQ, _w._queries + _lo * 4, 4,
                                        _hi - _lo, 4)});
        }

        uint64_t chunk_end = std::min(_hi, _pos + 256);
        for (; _pos < chunk_end; ++_pos) {
            uint64_t q = loadView(out, sQ, 1);
            int32_t key = _w._space->readT<int32_t>(viewAddr(sQ));
            stepView(out, sQ, 1);

            // Walk root -> leaf: each level's load depends on the
            // previous node's contents (pointer chase).
            uint64_t prev = q;
            uint64_t node = 0;
            for (size_t l = 0; l < _w._levels.size(); ++l) {
                Addr node_addr = _w._levelArr[l] + node * nodeBytes;
                uint64_t ld = emitLoad(out, node_addr, 64,
                                       pcOf(10 + int(l)), prev);
                prev = emitCompute(out, isa::OpKind::IntAlu, ld);
                if (l + 1 < _w._levels.size()) {
                    auto child = static_cast<uint64_t>(
                        _w._space->readT<int32_t>(node_addr));
                    uint64_t within = static_cast<uint64_t>(key) %
                                      fanout;
                    node = std::min(child + within,
                                    _w._levels[l + 1] - 1);
                }
            }

            // Range queries scan consecutive leaves from the hit.
            bool is_range = _pos >= _lo + (_hi - _lo) *
                                 _w._lookups /
                                 (_w._lookups + _w._ranges);
            if (is_range) {
                Addr leaf_base = _w._levelArr.back() +
                                 node * nodeBytes;
                uint64_t span = std::min<uint64_t>(
                    _w._rangeLen, _w._levels.back() - node);
                constexpr StreamId sR = 1;
                beginStreams(out,
                             {affine1d(sR, leaf_base, 8,
                                       span * (nodeBytes / 8), 8)});
                rowPass(out, span * (nodeBytes / 8), {sR},
                        invalidStream, /*fp=*/0, /*int=*/1, /*vec=*/8);
                endStreams(out, {sR});
            }
        }

        if (_pos >= _hi) {
            endStreams(out, {sQ});
            emitBarrier(out);
            _done = true;
        }
        return out.size() - before;
    }

  private:
    BtreeWorkload &_w;
    uint64_t _lo = 0, _hi = 0, _pos = 0;
    bool _done = false;
};

std::shared_ptr<isa::OpSource>
BtreeWorkload::makeThread(int tid)
{
    return std::make_shared<BtreeThread>(*this, tid);
}

} // namespace

std::unique_ptr<Workload>
makeBtree(const WorkloadParams &p)
{
    return std::make_unique<BtreeWorkload>(p);
}

} // namespace workload
} // namespace sf
