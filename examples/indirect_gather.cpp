/**
 * @file
 * Indirect-floating example (the bfs/cfd pattern of §IV-B).
 *
 * Builds a graph-style gather — an affine index stream A[i] feeding an
 * indirect value stream B[A[i]] — and shows what floating both streams
 * does: the remote SE_L3 chases the indirection between banks and
 * ships back only the requested sublines, instead of the core
 * round-tripping every index.
 *
 * Usage: indirect_gather [edges] [nodes]
 */

#include <cstdio>

#include "sim/arg_parse.hh"
#include "sim/rng.hh"
#include "system/tiled_system.hh"
#include "workload/kernel_util.hh"
#include "workload/workload.hh"

using namespace sf;

namespace {

/** A minimal hand-rolled workload: per-thread edge gather. */
class GatherWorkload : public workload::Workload
{
  public:
    GatherWorkload(const workload::WorkloadParams &p, uint64_t edges,
                   uint64_t nodes)
        : Workload(p), _edges(edges), _nodes(nodes)
    {}

    void
    init(mem::AddressSpace &as) override
    {
        _space = &as;
        _edgeArr = as.alloc(_edges * 4);
        _values = as.alloc(_nodes * 4);
        Rng rng(7);
        for (uint64_t e = 0; e < _edges; ++e) {
            as.writeT<int32_t>(_edgeArr + e * 4,
                               static_cast<int32_t>(rng.range(_nodes)));
        }
    }

    std::shared_ptr<isa::OpSource> makeThread(int tid) override;

    uint64_t _edges, _nodes;
    Addr _edgeArr = 0, _values = 0;
    mem::AddressSpace *_space = nullptr;
};

class GatherThread : public workload::KernelThread
{
  public:
    GatherThread(GatherWorkload &w, int tid)
        : KernelThread(*w._space, w.params.useStreams, tid,
                       w.params.vecElems),
          _w(w)
    {
        _w.chunk(_w._edges, tid, _lo, _hi);
        _pos = _lo;
    }

    size_t
    refill(std::vector<isa::Op> &out) override
    {
        size_t before = out.size();
        if (_done)
            return 0;
        constexpr StreamId sIdx = 0, sVal = 1;
        if (_pos == _lo) {
            beginStreams(
                out,
                {affine1d(sIdx, _w._edgeArr + _lo * 4, 4, _hi - _lo, 4),
                 indirectOn(sVal, sIdx, _w._values, 4, 4, 4, 1,
                            _hi - _lo)});
        }
        uint64_t end = std::min(_hi, _pos + 2048);
        for (; _pos < end; ++_pos) {
            uint64_t e = loadView(out, sIdx, 1);
            uint64_t v = loadView(out, sVal, 1, e);
            emitCompute(out, isa::OpKind::IntAlu, v);
            stepView(out, sIdx, 1);
            stepView(out, sVal, 1);
        }
        if (_pos >= _hi) {
            endStreams(out, {sIdx, sVal});
            emitBarrier(out);
            _done = true;
        }
        return out.size() - before;
    }

  private:
    GatherWorkload &_w;
    uint64_t _lo = 0, _hi = 0, _pos = 0;
    bool _done = false;
};

std::shared_ptr<isa::OpSource>
GatherWorkload::makeThread(int tid)
{
    return std::make_shared<GatherThread>(*this, tid);
}

sys::SimResults
runMachine(sys::Machine m, uint64_t edges, uint64_t nodes)
{
    sys::SystemConfig cfg =
        sys::SystemConfig::make(m, cpu::CoreConfig::ooo8(), 4, 4);
    sys::TiledSystem system(cfg);
    workload::WorkloadParams wp;
    wp.numThreads = cfg.numTiles();
    wp.useStreams = sys::machineUsesStreams(m);
    GatherWorkload wl(wp, edges, nodes);
    wl.init(system.addressSpace());
    return system.run(wl.makeAllThreads());
}

} // namespace

int
driverMain(int argc, char **argv)
{
    uint64_t edges = 100000;
    uint64_t nodes = 1000000;
    OptionTable t(argv[0]);
    t.bind("edges", "", "edges to gather (default 100000)", edges,
           parseSize);
    t.bind("nodes", "", "nodes in the value array (default 1000000)",
           nodes, parseSize);
    t.parse(argc, argv);
    std::printf("indirect gather: %llu edges into %llu nodes "
                "(4x4 OOO8)\n\n",
                (unsigned long long)edges, (unsigned long long)nodes);

    auto ss = runMachine(sys::Machine::SS, edges, nodes);
    auto sf_aff = runMachine(sys::Machine::SFAff, edges, nodes);
    auto sf = runMachine(sys::Machine::SF, edges, nodes);

    std::printf("%-26s %12s %12s %12s\n", "", "SS", "SF-affine",
                "SF-indirect");
    std::printf("%-26s %12llu %12llu %12llu\n", "cycles",
                (unsigned long long)ss.cycles,
                (unsigned long long)sf_aff.cycles,
                (unsigned long long)sf.cycles);
    std::printf("%-26s %12llu %12llu %12llu\n", "NoC flit-hops",
                (unsigned long long)ss.traffic.totalFlitHops(),
                (unsigned long long)sf_aff.traffic.totalFlitHops(),
                (unsigned long long)sf.traffic.totalFlitHops());
    std::printf("%-26s %12llu %12llu %12llu\n",
                "indirect reqs at SE_L3",
                (unsigned long long)ss.seL3IndirectRequests,
                (unsigned long long)sf_aff.seL3IndirectRequests,
                (unsigned long long)sf.seL3IndirectRequests);
    std::printf("\nWith indirect floating the gather's dependent "
                "accesses are generated bank-to-bank at the L3 and\n"
                "only the hit sublines travel back (%0.1f%% less "
                "traffic than SS here).\n",
                100.0 * (1.0 - double(sf.traffic.totalFlitHops()) /
                                   double(ss.traffic.totalFlitHops())));
    return 0;
}
