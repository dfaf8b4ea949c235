/**
 * @file
 * Stream-confluence example (the conv3d / particlefilter pattern of
 * §IV-C).
 *
 * All cores stream the *same* shared array at the same time — a
 * shared input feature map, a shared CDF. With confluence, the SE_L3
 * merge unit detects the identical patterns from each 2x2 tile block
 * and multicasts one response to the whole group.
 *
 * Usage: confluence_sharing [kilobytes]
 */

#include <cstdio>

#include "sim/arg_parse.hh"
#include "system/tiled_system.hh"
#include "workload/kernel_util.hh"
#include "workload/workload.hh"

using namespace sf;

namespace {

/** Every thread scans the same shared array (think: weights, CDF). */
class SharedScanWorkload : public workload::Workload
{
  public:
    SharedScanWorkload(const workload::WorkloadParams &p, uint64_t bytes)
        : Workload(p), _bytes(bytes)
    {}

    void
    init(mem::AddressSpace &as) override
    {
        _space = &as;
        _arr = as.alloc(_bytes);
    }

    std::shared_ptr<isa::OpSource> makeThread(int tid) override;

    uint64_t _bytes;
    Addr _arr = 0;
    mem::AddressSpace *_space = nullptr;
};

class SharedScanThread : public workload::KernelThread
{
  public:
    SharedScanThread(SharedScanWorkload &w, int tid)
        : KernelThread(*w._space, w.params.useStreams, tid,
                       w.params.vecElems),
          _w(w)
    {}

    size_t
    refill(std::vector<isa::Op> &out) override
    {
        size_t before = out.size();
        if (_round >= 2)
            return 0;
        constexpr StreamId s = 0;
        uint64_t n = _w._bytes / 4;
        beginStreams(out, {affine1d(s, _w._arr, 4, n, 4)});
        rowPass(out, n, {s}, invalidStream, /*fp=*/2);
        endStreams(out, {s});
        emitBarrier(out);
        ++_round;
        return out.size() - before;
    }

  private:
    SharedScanWorkload &_w;
    int _round = 0;
};

std::shared_ptr<isa::OpSource>
SharedScanWorkload::makeThread(int tid)
{
    return std::make_shared<SharedScanThread>(*this, tid);
}

sys::SimResults
runMachine(sys::Machine m, uint64_t bytes, bool confluence)
{
    sys::SystemConfig cfg =
        sys::SystemConfig::make(m, cpu::CoreConfig::ooo8(), 4, 4);
    cfg.sel3.enableConfluence = confluence;
    sys::TiledSystem system(cfg);
    workload::WorkloadParams wp;
    wp.numThreads = cfg.numTiles();
    wp.useStreams = sys::machineUsesStreams(m);
    SharedScanWorkload wl(wp, bytes);
    wl.init(system.addressSpace());
    return system.run(wl.makeAllThreads());
}

} // namespace

int
driverMain(int argc, char **argv)
{
    uint64_t kb = 2048;
    OptionTable t(argv[0]);
    t.bind("kilobytes", "", "size of the shared array (default 2048)", kb,
           parseSize);
    t.parse(argc, argv);
    uint64_t bytes = kb * 1024;
    std::printf("confluence demo: 16 cores streaming the same %llu kB "
                "array (4x4 OOO8)\n\n",
                (unsigned long long)kb);

    auto solo = runMachine(sys::Machine::SF, bytes, false);
    auto merged = runMachine(sys::Machine::SF, bytes, true);

    std::printf("%-28s %14s %14s\n", "", "SF (no confl)", "SF (confl)");
    std::printf("%-28s %14llu %14llu\n", "cycles",
                (unsigned long long)solo.cycles,
                (unsigned long long)merged.cycles);
    std::printf("%-28s %14llu %14llu\n", "NoC flit-hops",
                (unsigned long long)solo.traffic.totalFlitHops(),
                (unsigned long long)merged.traffic.totalFlitHops());
    std::printf("%-28s %14llu %14llu\n", "confluence merges",
                (unsigned long long)solo.confluenceMerges,
                (unsigned long long)merged.confluenceMerges);
    std::printf("%-28s %14llu %14llu\n", "multicast stream requests",
                (unsigned long long)solo.confluenceRequests,
                (unsigned long long)merged.confluenceRequests);
    std::printf("\nConfluence merged the identical streams inside each "
                "2x2 tile block and multicast the data,\ncutting "
                "traffic by %.1f%%.\n",
                100.0 * (1.0 - double(merged.traffic.totalFlitHops()) /
                                   double(solo.traffic.totalFlitHops())));
    return 0;
}
