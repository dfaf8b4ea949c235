/**
 * @file
 * Differential stream-program fuzzer for the --verify oracle.
 *
 * Each seed deterministically generates a random kernel within the
 * stream ISA's limits — affine streams at 1/2/3 loop levels, indirect
 * gathers (with the w loop), reduction chains, and conditional
 * (data-dependent) stepping — partitioned across all tiles with
 * barriers between phases. The kernel then runs on every machine in
 * the differential matrix
 *
 *   {in-order, OOO} x {stride-prefetch, no-float, float,
 *                      float+confluence}
 *
 * with the verify data plane enabled, and each run's end-of-sim
 * memory image and trip counts are diffed against the functional
 * reference executor. Any disagreement dies with exit code 67 and the
 * first-divergence diagnostic.
 *
 * The outcome log (one line per seed x config, with the golden image
 * hash) is byte-identical across invocations with the same seeds, so
 * CI can replay a fixed corpus and assert determinism.
 *
 * Usage: fuzz [--seeds=LO:HI] [--seed-file=FILE] [--log=FILE]; --help
 * explains them. A bad option, value (LO >= HI too) or seed-file line
 * exits 2, an unopenable seed file or --log 1, before any kernel runs.
 *
 * SF_VERIFY_BUG injects a protocol bug (see L3Bank::setVerifyBug) so
 * the fuzzer's own detection path can be exercised negatively.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/rng.hh"
#include "workload/kernel_util.hh"

using namespace sf;

namespace {

/** One barrier-delimited phase of a generated kernel. */
struct FuzzPhase
{
    enum class Kind
    {
        Map1D,    //!< out[i] = f(in[i])
        Map2D,    //!< 2-level affine walk with a row pitch
        Map3D,    //!< 3-level affine walk
        Gather,   //!< out[i,w] = f(target[idx[i]*s + w])
        Reduce,   //!< per-thread reduction chain, one store per tile
        CondCopy, //!< compact odd elements (conditional stepping)
    };
    Kind kind = Kind::Map1D;
    uint64_t elems = 0; //!< total elements (thread-partitioned)
    uint64_t inner = 1; //!< innermost dim (2D/3D)
    uint64_t mid = 1;   //!< middle dim (3D)
    int fpOps = 1;      //!< compute chain length per vector
    uint32_t wLen = 1;  //!< consecutive gather items (Eq. 1 w loop)
    /**
     * Source array: -1 reads the init-only input; >= 0 reads that
     * phase's output with a *reversed* thread partition — a cross-tile
     * producer/consumer handoff through the barrier, which is the
     * pattern that makes dirty-owner forwards (FwdGetU, §IV-E)
     * observable to the differential matrix.
     */
    int src = -1;
};

/** Seed-deterministic kernel descriptor, shared by every config. */
struct FuzzProgram
{
    uint64_t seed = 0;
    uint64_t inElems = 64;
    uint64_t idxElems = 0;
    uint64_t targetElems = 256;
    std::vector<FuzzPhase> phases;

    static FuzzProgram
    generate(uint64_t seed)
    {
        Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1234);
        FuzzProgram p;
        p.seed = seed;
        int n_phases = static_cast<int>(rng.rangeInclusive(1, 3));
        for (int i = 0; i < n_phases; ++i) {
            FuzzPhase ph;
            ph.kind = static_cast<FuzzPhase::Kind>(
                rng.rangeInclusive(0, 5));
            ph.fpOps = static_cast<int>(rng.rangeInclusive(1, 3));
            switch (ph.kind) {
              case FuzzPhase::Kind::Map1D:
              case FuzzPhase::Kind::Reduce:
              case FuzzPhase::Kind::CondCopy:
                ph.elems = 256 * rng.rangeInclusive(1, 16);
                if (ph.kind == FuzzPhase::Kind::Map1D && i > 0 &&
                    rng.chance(0.5)) {
                    const FuzzPhase &pp = p.phases[i - 1];
                    if (pp.kind != FuzzPhase::Kind::Gather &&
                        pp.kind != FuzzPhase::Kind::Reduce) {
                        ph.src = i - 1;
                        ph.elems = pp.elems;
                    }
                }
                break;
              case FuzzPhase::Kind::Map2D:
                ph.inner = 8ULL << rng.rangeInclusive(0, 2);
                ph.elems = ph.inner * 8 * rng.rangeInclusive(1, 8);
                break;
              case FuzzPhase::Kind::Map3D:
                ph.inner = 4ULL << rng.rangeInclusive(0, 1);
                ph.mid = static_cast<uint64_t>(rng.rangeInclusive(2, 4));
                ph.elems = ph.inner * ph.mid * 8 *
                           rng.rangeInclusive(1, 4);
                break;
              case FuzzPhase::Kind::Gather:
                ph.elems = 256 * rng.rangeInclusive(1, 8);
                ph.wLen = rng.chance(0.3) ? 2 : 1;
                break;
            }
            if (ph.kind == FuzzPhase::Kind::Gather)
                p.idxElems = std::max(p.idxElems, ph.elems);
            else
                p.inElems = std::max(p.inElems, ph.elems);
            p.phases.push_back(ph);
        }
        p.targetElems = 256 * rng.rangeInclusive(1, 4);
        return p;
    }
};

class FuzzWorkload;

class FuzzThread : public workload::KernelThread
{
  public:
    FuzzThread(FuzzWorkload &w, int tid);

    size_t refill(std::vector<isa::Op> &out) override;

  private:
    void emitPhase(std::vector<isa::Op> &out, const FuzzPhase &ph,
                   size_t pi);

    FuzzWorkload &_w;
    size_t _phase = 0;
};

class FuzzWorkload : public workload::Workload
{
  public:
    FuzzWorkload(const workload::WorkloadParams &p,
                 const FuzzProgram &prog)
        : Workload(p), prog(prog)
    {}

    void
    init(mem::AddressSpace &as) override
    {
        space = &as;
        Rng rng(prog.seed ^ 0xabcdef0123ULL);
        in = as.alloc(prog.inElems * 4, "in");
        for (uint64_t i = 0; i < prog.inElems; ++i)
            as.writeT<uint32_t>(in + 4 * i,
                                static_cast<uint32_t>(rng.next()));
        target = as.alloc(prog.targetElems * 4, "target");
        for (uint64_t i = 0; i < prog.targetElems; ++i)
            as.writeT<uint32_t>(target + 4 * i,
                                static_cast<uint32_t>(rng.next()));
        uint64_t idx_elems = std::max<uint64_t>(1, prog.idxElems);
        idx = as.alloc(idx_elems * 4, "idx");
        // Keep every gathered address in range even with the w loop.
        uint64_t bound = prog.targetElems > 2 ? prog.targetElems - 2 : 1;
        for (uint64_t i = 0; i < idx_elems; ++i)
            as.writeT<uint32_t>(idx + 4 * i,
                                static_cast<uint32_t>(rng.range(bound)));
        for (size_t pi = 0; pi < prog.phases.size(); ++pi) {
            const FuzzPhase &ph = prog.phases[pi];
            uint64_t bytes;
            if (ph.kind == FuzzPhase::Kind::Reduce)
                bytes = static_cast<uint64_t>(params.numThreads) * 8;
            else if (ph.kind == FuzzPhase::Kind::Gather)
                bytes = ph.elems * ph.wLen * 4;
            else
                bytes = ph.elems * 4;
            outs.push_back(
                as.alloc(bytes, "out" + std::to_string(pi)));
            outBytes.push_back(bytes);
        }
    }

    std::shared_ptr<isa::OpSource>
    makeThread(int tid) override
    {
        return std::make_shared<FuzzThread>(*this, tid);
    }

    std::vector<verify::MemRegion>
    verifyRegions() const override
    {
        std::vector<verify::MemRegion> r = {
            {"in", in, prog.inElems * 4},
            {"target", target, prog.targetElems * 4},
            {"idx", idx, std::max<uint64_t>(1, prog.idxElems) * 4}};
        for (size_t pi = 0; pi < outs.size(); ++pi)
            r.push_back({"out" + std::to_string(pi), outs[pi],
                         outBytes[pi]});
        return r;
    }

    FuzzProgram prog;
    Addr in = 0, target = 0, idx = 0;
    std::vector<Addr> outs;
    std::vector<uint64_t> outBytes;
    mem::AddressSpace *space = nullptr;
};

FuzzThread::FuzzThread(FuzzWorkload &w, int tid)
    : KernelThread(*w.space, w.params.useStreams, tid, w.params.vecElems),
      _w(w)
{}

size_t
FuzzThread::refill(std::vector<isa::Op> &out)
{
    size_t before = out.size();
    if (_phase >= _w.prog.phases.size())
        return 0;
    size_t pi = _phase++;
    emitPhase(out, _w.prog.phases[pi], pi);
    emitBarrier(out);
    return out.size() - before;
}

void
FuzzThread::emitPhase(std::vector<isa::Op> &out, const FuzzPhase &ph,
                      size_t pi)
{
    Addr out_a = _w.outs[pi];
    constexpr StreamId sIn = 0, sOut = 1, sIdx = 2;
    uint64_t lo = 0, hi = 0;

    switch (ph.kind) {
      case FuzzPhase::Kind::Map1D: {
        _w.chunk(ph.elems, _tid, lo, hi);
        if (lo >= hi)
            return;
        // Cross-phase source: read the previous phase's output with
        // the thread partition reversed, so every read crosses tiles.
        Addr src_a = ph.src < 0 ? _w.in : _w.outs[ph.src];
        uint64_t plo = lo, phi = hi;
        if (ph.src >= 0) {
            _w.chunk(ph.elems, _w.params.numThreads - 1 - _tid, plo,
                     phi);
        }
        uint64_t n = std::min(hi - lo, phi - plo);
        beginStreams(out, {affine1d(sIn, src_a + plo * 4, 4, n, 4),
                           affine1d(sOut, out_a + lo * 4, 4, n, 4,
                                    true)});
        rowPass(out, n, {sIn}, sOut, ph.fpOps);
        endStreams(out, {sIn, sOut});
        break;
      }

      case FuzzPhase::Kind::Map2D:
      case FuzzPhase::Kind::Map3D: {
        // Partition the outermost level; vector chunks never cross
        // the innermost dim (the conv3d idiom), so stream and plain
        // variants observe the same bytes per access.
        uint64_t plane = ph.inner * ph.mid;
        uint64_t outer = ph.elems / plane;
        _w.chunk(outer, _tid, lo, hi);
        if (lo >= hi)
            return;
        isa::StreamConfig cin =
            affine2d(sIn, _w.in + lo * plane * 4, 4, ph.inner, 4,
                     (hi - lo) * ph.mid,
                     static_cast<int64_t>(ph.inner * 4));
        if (ph.kind == FuzzPhase::Kind::Map3D) {
            cin = affine2d(sIn, _w.in + lo * plane * 4, 4, ph.inner, 4,
                           ph.mid, static_cast<int64_t>(ph.inner * 4));
            cin.affine.nDims = 3;
            cin.affine.stride[2] = static_cast<int64_t>(plane * 4);
            cin.affine.len[2] = hi - lo;
        }
        uint64_t n = (hi - lo) * plane;
        beginStreams(out, {cin, affine1d(sOut, out_a + lo * plane * 4,
                                         4, n, 4, true)});
        uint64_t done = 0;
        while (done < n) {
            uint64_t in_row = done % ph.inner;
            auto elems = static_cast<uint16_t>(std::min<uint64_t>(
                static_cast<uint64_t>(_vec), ph.inner - in_row));
            uint64_t v = loadView(out, sIn, elems);
            uint64_t last = v;
            for (int k = 0; k < ph.fpOps; ++k)
                last = emitCompute(out, isa::OpKind::FpAlu, last);
            storeView(out, sOut, last, elems);
            stepView(out, sOut, elems);
            stepView(out, sIn, elems);
            done += elems;
        }
        endStreams(out, {sIn, sOut});
        break;
      }

      case FuzzPhase::Kind::Gather: {
        _w.chunk(ph.elems, _tid, lo, hi);
        if (lo >= hi)
            return;
        uint64_t n = hi - lo;
        beginStreams(
            out,
            {affine1d(sIdx, _w.idx + lo * 4, 4, n, 4),
             indirectOn(sIn, sIdx, _w.target, 4, 4, 4, ph.wLen,
                        n * ph.wLen),
             affine1d(sOut, out_a + lo * ph.wLen * 4, 4, n * ph.wLen,
                      4, true)});
        for (uint64_t i = 0; i < n; ++i) {
            uint64_t e = loadView(out, sIdx, 1);
            for (uint32_t w = 0; w < ph.wLen; ++w) {
                uint64_t v = loadView(out, sIn, 1, e);
                uint64_t c = emitCompute(out, isa::OpKind::FpAlu, v);
                storeView(out, sOut, c, 1);
                stepView(out, sOut, 1);
                stepView(out, sIn, 1);
            }
            stepView(out, sIdx, 1);
        }
        endStreams(out, {sIdx, sIn, sOut});
        break;
      }

      case FuzzPhase::Kind::Reduce: {
        _w.chunk(ph.elems, _tid, lo, hi);
        if (lo >= hi)
            return;
        uint64_t n = hi - lo;
        beginStreams(out, {affine1d(sIn, _w.in + lo * 4, 4, n, 4)});
        uint64_t acc = 0;
        uint64_t done = 0;
        while (done < n) {
            auto elems = static_cast<uint16_t>(
                std::min<uint64_t>(static_cast<uint64_t>(_vec),
                                   n - done));
            uint64_t v = loadView(out, sIn, elems);
            acc = emitCompute(out, isa::OpKind::FpAlu, acc ? acc : v,
                              acc ? v : 0);
            stepView(out, sIn, elems);
            done += elems;
        }
        emitStore(out, out_a + static_cast<uint64_t>(_tid) * 8, 8,
                  pcOf(40), acc);
        endStreams(out, {sIn});
        break;
      }

      case FuzzPhase::Kind::CondCopy: {
        _w.chunk(ph.elems, _tid, lo, hi);
        if (lo >= hi)
            return;
        uint64_t n = hi - lo;
        beginStreams(out, {affine1d(sIn, _w.in + lo * 4, 4, n, 4),
                           affine1d(sOut, out_a + lo * 4, 4, n, 4,
                                    true)});
        for (uint64_t i = lo; i < hi; ++i) {
            uint64_t v = loadView(out, sIn, 1);
            if (_as.readT<uint32_t>(_w.in + 4 * i) & 1) {
                storeView(out, sOut, v, 1);
                stepView(out, sOut, 1);
            }
            stepView(out, sIn, 1);
        }
        endStreams(out, {sIn, sOut});
        break;
      }
    }
}

/** Order-independent hash of a golden result, for the outcome log. */
uint64_t
goldenHash(const verify::RefResult &g)
{
    uint64_t h = verify::mix64(0x5eedULL ^ g.opCount);
    for (const auto &kv : g.image) {
        h = verify::mix64(h ^ kv.first);
        h = verify::mix64(
            h ^ verify::foldBytes(kv.second.data(), lineBytes));
    }
    for (const auto &kv : g.trips) {
        h = verify::mix64(
            h ^ (static_cast<uint64_t>(kv.first.first) << 32) ^
            kv.first.second);
        h = verify::mix64(h ^ kv.second);
    }
    return h;
}

struct ConfigPoint
{
    const char *cpuName;
    cpu::CoreConfig core;
    sys::Machine machine;
};

/** Run one (seed, config) point; dies with exit 67 on divergence. */
uint64_t
runPoint(const FuzzProgram &prog, const ConfigPoint &pt, uint64_t *ops)
{
    sys::SystemConfig cfg =
        sys::SystemConfig::make(pt.machine, pt.core, 2, 2);
    cfg.maxCycles = 50'000'000;
    cfg.verify = true;
    // sflint: allow(D2, driver copies SF_VERIFY_BUG into SystemConfig)
    if (const char *bug = std::getenv("SF_VERIFY_BUG"))
        cfg.verifyBug = bug;
    // Tiny floating budget: even the fuzzer's small footprints float.
    cfg.seCore.l2CapacityBytes = 1024;
    sys::TiledSystem system(cfg);

    workload::WorkloadParams wp;
    wp.numThreads = cfg.numTiles();
    wp.useStreams = sys::machineUsesStreams(pt.machine);
    FuzzWorkload wl(wp, prog);
    wl.init(system.addressSpace());
    sys::SimResults r = system.run(wl.makeAllThreads());
    if (r.hitCycleLimit) {
        fatal("fuzz: seed=%llu %s/%s hit cycle limit",
              (unsigned long long)prog.seed, pt.cpuName,
              sys::machineName(pt.machine));
    }

    verify::RefResult golden = bench::checkAgainstReference(
        system, wl,
        "fuzz seed " + std::to_string(prog.seed) + " on " + pt.cpuName +
            "/" + sys::machineName(pt.machine));
    *ops = r.committedOps;
    return goldenHash(golden);
}

std::vector<uint64_t>
loadSeedFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("fuzz: cannot open seed file %s", path.c_str());
    std::vector<uint64_t> seeds;
    std::string line;
    for (int n = 1; std::getline(is, line); ++n) {
        size_t start = line.find_first_not_of(" \t");
        if (start == std::string::npos || line[start] == '#')
            continue;
        seeds.push_back(parseCount(line.substr(start),
                                   path + ":" + std::to_string(n)));
    }
    if (seeds.empty())
        throw UsageError("seed file " + path + " lists no seeds");
    return seeds;
}

} // namespace

int
driverMain(int argc, char **argv)
{
    uint64_t lo = 0, hi = 50;
    std::string seed_file, log_file;
    OptionTable t(argv[0]);
    t.add("--seeds", "LO:HI", "fuzz seeds LO..HI-1 (default 0:50)",
          [&](const std::string &v) {
              size_t colon = v.find(':');
              if (colon != std::string::npos) {
                  lo = parseCount(v.substr(0, colon), "--seeds");
                  hi = parseCount(v.substr(colon + 1), "--seeds");
              }
              if (colon == std::string::npos || lo >= hi)
                  throw UsageError("--seeds must be LO:HI with LO < HI, "
                                   "got '" + v + "'");
          });
    t.text("--seed-file", "FILE",
           "newline-separated seed list ('#' comments)", seed_file);
    t.text("--log", "FILE", "also write the outcome log to FILE", log_file);
    t.parse(argc, argv);

    std::vector<uint64_t> seeds;
    if (!seed_file.empty()) {
        seeds = loadSeedFile(seed_file);
    } else {
        for (uint64_t s = lo; s < hi; ++s)
            seeds.push_back(s);
    }
    std::ofstream log_os;
    if (!log_file.empty())
        log_os = openOutputFile(log_file, "--log");

    // The differential matrix: {io4, ooo4} x these four machines.
    std::vector<ConfigPoint> points;
    for (const char *core : {"io4", "ooo4"}) {
        for (sys::Machine m : {sys::Machine::StridePf, sys::Machine::SS,
                               sys::Machine::SFInd, sys::Machine::SF})
            points.push_back({core, cpu::CoreConfig::fromName(core, "cpu"), m});
    }

    for (uint64_t seed : seeds) {
        FuzzProgram prog = FuzzProgram::generate(seed);
        for (const auto &pt : points) {
            uint64_t ops = 0;
            uint64_t h = runPoint(prog, pt, &ops);
            char line[160];
            std::snprintf(line, sizeof(line),
                          "seed=%llu cfg=%s/%s status=ok ops=%llu "
                          "golden=%016llx\n",
                          (unsigned long long)seed, pt.cpuName,
                          sys::machineName(pt.machine),
                          (unsigned long long)ops,
                          (unsigned long long)h);
            log_os << line; // a no-op without --log
            std::fputs(line, stdout);
        }
    }

    std::printf("fuzz: %zu seed(s) x %zu config(s), all agree with "
                "reference\n",
                seeds.size(), points.size());
    return 0;
}
