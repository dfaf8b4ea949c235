/**
 * @file
 * simbench: the simulator's end-to-end benchmark driver.
 *
 * One invocation measures one named workload. Every simulation runs in
 * a forked child process built through the public path
 *   sys::SystemConfig::make -> sys::TiledSystem ->
 *   workload::makeWorkload / init / makeAllThreads -> TiledSystem::run
 * and is timed from outside those calls. Per-layer work is read from
 * the program's own counters (TiledSystem::buildStatRegistry with host
 * stats included). A child that exits nonzero, dies on a signal, hits
 * the cycle limit, diverges from the reference executor or changes its
 * determinism fingerprint counts as one failed simulation; the harness
 * itself carries on.
 *
 * Modelled caches start empty in every simulation: the paper reports
 * cold whole-region runs, so no warm-up interval is skipped.
 *
 * The last stdout line is one JSON object:
 *   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
 * holding the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). See perfbench/README.md for the metric and layer map.
 */

#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "noc/mesh.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stat_registry.hh"
#include "system/tiled_system.hh"
#include "verify/oracle.hh"
#include "workload/workload.hh"

namespace {

using namespace sf;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct WorkloadSpec
{
    const char *name;
    const char *kernel;
    sys::Machine machine;
    bool ooo8;     //!< OOO8 core, else IO4
    int mesh;      //!< mesh side (mesh x mesh tiles)
    int threads;   //!< simulator worker threads
    double scale;  //!< dataset scale for one simulation
    bool seeded;   //!< the kernel's dataset depends on the seed
};

// Why each workload exists is documented in perfbench/README.md. The
// last one is too noisy with two simulator threads for BENCHMARK.json
// and runs by hand only.
const WorkloadSpec kWorkloads[] = {
    {"stream_conv3d", "conv3d", sys::Machine::SF, true, 4, 1, 0.06, false},
    {"stride_bfs", "bfs", sys::Machine::StridePf, false, 4, 1, 0.06, true},
    {"stream_srad_writes", "srad", sys::Machine::SF, true, 4, 1, 0.5,
     false},
    {"mesh8_pathfinder_t2", "pathfinder", sys::Machine::SF, true, 8, 2,
     0.02, false},
};

constexpr uint64_t kDefaultSeed = 1;
/** Reserved for confirming a claimed gain; never used while tuning. */
constexpr uint64_t kHeldOutSeed = 20211;

// ---------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------

struct Options
{
    const WorkloadSpec *wl = nullptr;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    double scale = 0.0; //!< 0 = the workload's own scale
    std::string traceOut;
};

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: simbench --workload NAME [--seed N] [--seconds S] "
        "[--trace 0|1]\n"
        "                [--scale X] [--trace-out FILE]\n"
        "  --workload NAME  one of:");
    for (const auto &w : kWorkloads)
        std::fprintf(out, " %s", w.name);
    std::fprintf(
        out,
        "\n"
        "  --seed N         input seed (default %llu; held-out seed "
        "%llu)\n"
        "  --seconds S      measured time per invocation (default 10)\n"
        "  --trace 0|1      0: end-to-end metrics; 1: per-layer metrics "
        "from a\n"
        "                   traced run (profiler on, spans recorded)\n"
        "  --scale X        override the workload's dataset scale "
        "(0 < X <= 1)\n"
        "  --trace-out FILE write the spans as a Chrome trace "
        "(with --trace 1)\n"
        "Flags take their value as the next argument or after '='.\n",
        static_cast<unsigned long long>(kDefaultSeed),
        static_cast<unsigned long long>(kHeldOutSeed));
}

[[noreturn]] void
badInput(const std::string &why)
{
    std::fprintf(stderr, "simbench: %s\n", why.c_str());
    usage(stderr);
    std::exit(2);
}

bool
parseU64(const std::string &s, uint64_t &out)
{
    if (s.empty() || s.size() > 20 ||
        !std::all_of(s.begin(), s.end(),
                     [](char c) { return c >= '0' && c <= '9'; }))
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parseDouble(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (errno != 0 || *end != '\0' || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        }
        if (arg.compare(0, 2, "--") != 0)
            badInput("unexpected argument '" + arg + "'");
        std::string key = arg, val;
        bool have_val = false;
        if (size_t eq = arg.find('='); eq != std::string::npos) {
            key = arg.substr(0, eq);
            val = arg.substr(eq + 1);
            have_val = true;
        }
        static const char *known[] = {"--workload", "--seed", "--seconds",
                                      "--trace", "--scale", "--trace-out"};
        if (std::find_if(std::begin(known), std::end(known),
                         [&](const char *k) { return key == k; }) ==
            std::end(known))
            badInput("unknown flag '" + key + "'");
        if (!have_val) {
            if (i + 1 >= argc)
                badInput(key + " needs a value");
            val = argv[++i];
        }

        if (key == "--workload") {
            for (const auto &w : kWorkloads) {
                if (val == w.name)
                    o.wl = &w;
            }
            if (!o.wl)
                badInput("unknown workload '" + val + "'");
            have_workload = true;
        } else if (key == "--seed") {
            if (!parseU64(val, o.seed))
                badInput("--seed: '" + val + "' is not an unsigned integer");
        } else if (key == "--seconds") {
            if (!parseDouble(val, o.seconds) || o.seconds <= 0 ||
                o.seconds > 120)
                badInput("--seconds: '" + val +
                         "' is not a number in (0, 120]");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                badInput("--trace: '" + val + "' is not 0 or 1");
            o.trace = val == "1";
        } else if (key == "--scale") {
            if (!parseDouble(val, o.scale) || o.scale <= 0 || o.scale > 1)
                badInput("--scale: '" + val +
                         "' is not a number in (0, 1]");
        } else {
            if (val.empty())
                badInput("--trace-out: empty path");
            o.traceOut = val;
        }
    }
    if (!have_workload)
        badInput("--workload is required");
    return o;
}

// ---------------------------------------------------------------------
// One simulation in a child process
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    std::string parent;
    double start = 0; //!< seconds since the harness started
    double end = 0;
};

/** What a child reports back: named values and its spans. */
struct Sample
{
    std::map<std::string, double> v;
    std::vector<Span> spans;

    double
    at(const std::string &k) const
    {
        auto it = v.find(k);
        return it == v.end() ? 0.0 : it->second;
    }
};

/** Harness start; children inherit it across fork(). */
Clock::time_point g_t0;

double
sinceStart()
{
    return std::chrono::duration<double>(Clock::now() - g_t0).count();
}

/** Run @p fn and record it as span @p name under @p parent. */
template <typename F>
double
timed(Sample &s, const std::string &name, const std::string &parent, F &&fn)
{
    double a = sinceStart();
    fn();
    double b = sinceStart();
    s.spans.push_back({name, parent, a, b});
    return b - a;
}

struct ChildResult
{
    bool ok = false;
    std::string why; //!< failure description
    Sample sample;
    double maxRssMb = 0;
};

/**
 * Fork, run @p body in the child and collect its Sample over a pipe.
 * The child's stdout is redirected to stderr so the result line stays
 * last. @p timeoutS bounds the child's wall time (SIGALRM).
 */
ChildResult
runChild(const std::function<void(Sample &)> &body, unsigned timeoutS)
{
    ChildResult res;
    int fds[2];
    if (pipe(fds) != 0) {
        res.why = "pipe failed";
        return res;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        res.why = "fork failed";
        return res;
    }
    if (pid == 0) {
        close(fds[0]);
        dup2(STDERR_FILENO, STDOUT_FILENO);
        alarm(std::max(1u, timeoutS));
        int code = 0;
        std::ostringstream os;
        os.precision(17);
        try {
            Sample s;
            body(s);
            for (const auto &[k, v] : s.v)
                os << "V " << k << ' ' << v << '\n';
            for (const auto &sp : s.spans)
                os << "S " << sp.name << ' ' << sp.parent << ' '
                   << sp.start << ' ' << sp.end << '\n';
        } catch (const FatalError &e) {
            code = e.exitStatus();
        } catch (const PanicError &) {
            code = 70;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "simbench: child error: %s\n", e.what());
            code = 71;
        }
        std::string out = os.str();
        const char *p = out.data();
        size_t left = out.size();
        while (left > 0) {
            ssize_t n = write(fds[1], p, left);
            if (n <= 0)
                break;
            p += n;
            left -= static_cast<size_t>(n);
        }
        close(fds[1]);
        std::fflush(nullptr);
        _exit(code);
    }

    close(fds[1]);
    std::string text;
    char buf[65536];
    for (;;) {
        ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n > 0) {
            text.append(buf, static_cast<size_t>(n));
        } else if (n == 0 || errno != EINTR) {
            break;
        }
    }
    close(fds[0]);

    int status = 0;
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    while (wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR) {
            res.why = "wait4 failed";
            return res;
        }
    }
    res.maxRssMb = double(ru.ru_maxrss) / 1024.0;
    if (WIFSIGNALED(status)) {
        res.why = std::string("killed by signal ") +
                  std::to_string(WTERMSIG(status));
        return res;
    }
    if (WEXITSTATUS(status) != 0) {
        res.why = "exit code " + std::to_string(WEXITSTATUS(status));
        return res;
    }

    std::istringstream is(text);
    std::string tag;
    while (is >> tag) {
        if (tag == "V") {
            std::string k;
            double v = 0;
            is >> k >> v;
            res.sample.v[k] = v;
        } else if (tag == "S") {
            Span sp;
            is >> sp.name >> sp.parent >> sp.start >> sp.end;
            res.sample.spans.push_back(sp);
        }
    }
    res.ok = true;
    return res;
}

// ---------------------------------------------------------------------
// Building and reading one simulation
// ---------------------------------------------------------------------

sys::SystemConfig
makeConfig(const WorkloadSpec &w)
{
    cpu::CoreConfig core =
        w.ooo8 ? cpu::CoreConfig::ooo8() : cpu::CoreConfig::io4();
    sys::SystemConfig cfg =
        sys::SystemConfig::make(w.machine, core, w.mesh, w.mesh);
    cfg.threads = w.threads;
    return cfg;
}

workload::WorkloadParams
makeParams(const WorkloadSpec &w, const sys::SystemConfig &cfg,
           double scale, uint64_t seed)
{
    workload::WorkloadParams wp;
    wp.numThreads = cfg.numTiles();
    wp.scale = scale;
    wp.useStreams = sys::machineUsesStreams(w.machine);
    wp.seed = seed;
    return wp;
}

/** Sum @p stat over every registry group whose name ends in @p suffix. */
double
sumStat(const stats::StatRegistry &reg, const std::string &suffix,
        const std::string &stat)
{
    double total = 0;
    reg.forEachGroup([&](const stats::StatGroup &g) {
        const std::string &n = g.name();
        if (n.size() < suffix.size() ||
            n.compare(n.size() - suffix.size(), suffix.size(), suffix) != 0)
            return;
        if (const auto *s = g.findScalar(stat))
            total += double(s->value());
        auto f = g.formulas().find(stat);
        if (f != g.formulas().end())
            total += f->second();
    });
    return total;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Deterministic counts of one finished simulation. */
void
readCounts(sys::TiledSystem &system, const sys::SimResults &r, Sample &s)
{
    system.includeHostStats(true);
    stats::StatRegistry reg;
    system.buildStatRegistry(reg);
    auto &v = s.v;

    v["sim_cycles"] = double(r.cycles);
    v["hit_cycle_limit"] = r.hitCycleLimit ? 1 : 0;
    v["sim.events"] = double(r.eventsExecuted);
    v["sim.eventq.tombstones"] = sumStat(reg, "sim.eventq", "tombstones");
    v["sim.eventq.compactions"] = sumStat(reg, "sim.eventq", "compactions");

    v["cpu.committed_ops"] = double(r.committedOps);
    v["cpu.ipc"] = r.ipc();
    v["cpu.rob_full_stalls"] = sumStat(reg, ".core", "robFullStalls");

    v["stream.fetches_issued"] = sumStat(reg, ".seCore", "fetchesIssued");
    v["stream.floated_fetches"] =
        sumStat(reg, ".seCore", "floatedFetchesIssued");
    v["stream.elements_consumed"] =
        sumStat(reg, ".seCore", "elementsConsumed");
    v["stream.streams_floated"] = double(r.streamsFloated);
    v["stream.streams_sunk"] = double(r.streamsSunk);

    v["flt.sel2.data_arrived"] = sumStat(reg, ".seL2", "dataArrived");
    v["flt.sel2.credits_sent"] = sumStat(reg, ".seL2", "creditsSent");
    v["flt.sel2.float_nacks"] = sumStat(reg, ".seL2", "floatNacks");
    v["flt.sel3.line_requests"] = double(r.seL3LineRequests);
    v["flt.sel3.indirect_requests"] = double(r.seL3IndirectRequests);
    v["flt.sel3.migrations"] = double(r.migrations);
    v["flt.confluence_merge_ratio"] =
        ratio(double(r.confluenceMerges), double(r.confluenceRequests));

    v["mem.l1_hit_rate"] =
        ratio(double(r.l1Hits), double(r.l1Hits + r.l1Misses));
    v["mem.l2_misses"] = double(r.l2Misses);
    v["mem.l2_unreused_eviction_ratio"] =
        ratio(double(r.l2EvictionsUnreused), double(r.l2Evictions));
    v["mem.writebacks"] = sumStat(reg, ".priv", "writebacks");
    double l3req = 0;
    for (uint64_t c : r.l3RequestsByClass)
        l3req += double(c);
    v["mem.l3_requests"] = l3req;
    v["mem.l3_hit_rate"] = r.l3HitRate;
    v["mem.l3_fwd_requests"] = sumStat(reg, ".l3", "fwdRequests");
    v["mem.dram_reads"] = double(r.dramReads);
    v["mem.dram_writes"] = double(r.dramWrites);

    v["prefetch.issued"] = double(r.prefetchesIssued);
    v["prefetch.accuracy"] =
        ratio(double(r.prefetchesUseful), double(r.prefetchesIssued));

    static const char *cls[] = {"control", "data", "stream"};
    double packets = 0;
    for (int c = 0; c < 3; ++c) {
        v[std::string("noc.flit_hops.") + cls[c]] =
            double(r.traffic.flitHops[c]);
        v[std::string("noc.packets.") + cls[c]] =
            double(r.traffic.packets[c]);
        packets += double(r.traffic.packets[c]);
    }
    v["noc.packets"] = packets;
    v["noc.utilization"] = r.nocUtilization;

    v["energy.total_nj"] = r.energyNj;
}

/** Profiler read-out of a traced simulation (cfg.profile). */
void
readProfile(prof::Profiler &p, Sample &s)
{
    prof::Profiler::PhaseHists merged{};
    for (const auto &kv : p.aggregates())
        for (size_t i = 0; i < prof::numPhases; ++i)
            merged[i].merge(kv.second[i]);
    static const std::pair<const char *, prof::Phase> phases[] = {
        {"PrivCache", prof::Phase::PrivCache},
        {"Remote", prof::Phase::Remote},
        {"NocReqQueue", prof::Phase::NocReqQueue},
        {"L3Queue", prof::Phase::L3Queue},
        {"Mem", prof::Phase::Mem},
        {"SEBuffer", prof::Phase::SEBuffer},
        {"Total", prof::Phase::Total},
    };
    for (const auto &[n, ph] : phases) {
        const prof::LatHist &h = merged[size_t(ph)];
        s.v[std::string("lat.") + n + ".p50"] = h.p50();
        s.v[std::string("lat.") + n + ".p95"] = h.p95();
    }

    // Core accounts only ("tileN.core"); the SE accounts split the
    // same cycles again from the stream engine's point of view.
    static const std::pair<const char *, prof::Bucket> buckets[] = {
        {"retired", prof::Bucket::Retired},
        {"stalled_data", prof::Bucket::StalledData},
        {"stalled_sebuf", prof::Bucket::StalledSebuf},
        {"stalled_credit", prof::Bucket::StalledCredit},
        {"idle", prof::Bucket::Idle},
    };
    double covered = 0;
    std::map<std::string, double> td;
    for (const auto &[name, acct] : p.topDownAccounts()) {
        if (name.size() < 5 || name.compare(name.size() - 5, 5, ".core"))
            continue;
        covered += double(acct.accountedUpTo());
        for (const auto &[bn, b] : buckets)
            td[bn] += double(acct.cycles(b));
    }
    for (const auto &[bn, c] : td)
        s.v[std::string("cpu.topdown.") + bn] = c;
    s.v["cpu.topdown.covered"] = covered;
}

enum class Mode
{
    Timed,   //!< plain timing simulation
    Traced,  //!< cfg.profile on
    Verify,  //!< cfg.verify on, diffed against the reference executor
    Setup,   //!< system and workload builds only, no run
};

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Timed: return "sim.timed";
      case Mode::Traced: return "sim.traced";
      case Mode::Verify: return "sim.verify";
      case Mode::Setup: return "sim.setup";
    }
    return "?";
}

/** Child body: build, run and read one simulation. */
void
simulate(const WorkloadSpec &w, double scale, uint64_t seed, Mode mode,
         Sample &s)
{
    const std::string root = modeName(mode);
    double t_begin = sinceStart();

    std::unique_ptr<sys::TiledSystem> system;
    s.v["system.build_s"] = timed(s, "system.build", root, [&] {
        sys::SystemConfig cfg = makeConfig(w);
        cfg.profile = mode == Mode::Traced;
        cfg.verify = mode == Mode::Verify;
        if (mode == Mode::Verify) {
            if (const char *bug = std::getenv("SF_VERIFY_BUG"))
                cfg.verifyBug = bug;
        }
        system = std::make_unique<sys::TiledSystem>(cfg);
    });

    std::unique_ptr<workload::Workload> wl;
    std::vector<std::shared_ptr<isa::OpSource>> threads;
    s.v["workload.build_s"] = timed(s, "workload.build", root, [&] {
        wl = workload::makeWorkload(
            w.kernel, makeParams(w, system->config(), scale, seed));
        wl->init(system->addressSpace());
        threads = wl->makeAllThreads();
    });

    if (mode == Mode::Setup) {
        s.spans.push_back({root, "-", t_begin, sinceStart()});
        return;
    }

    sys::SimResults r;
    s.v["system.run_s"] =
        timed(s, "system.run", root, [&] { r = system->run(threads); });
    readCounts(*system, r, s);
    if (mode == Mode::Traced)
        readProfile(*system->profiler(), s);

    if (mode == Mode::Verify) {
        verify::RefResult golden;
        s.v["verify.reference_s"] =
            timed(s, "verify.reference", root, [&] {
                auto ref_threads = wl->makeAllThreads();
                std::vector<isa::OpSource *> srcs;
                for (auto &t : ref_threads)
                    srcs.push_back(t.get());
                golden = verify::runReference(system->addressSpace(), srcs);
            });
        s.v["verify.check_s"] = timed(s, "verify.check", root, [&] {
            verify::checkOrDie(*system->verifyPlane(), golden,
                               system->addressSpace(), wl->verifyRegions(),
                               std::string(w.name));
        });
    }
    s.spans.push_back({root, "-", t_begin, sinceStart()});
}

/**
 * Child body for the two layer probes. isa: drain a fresh
 * makeAllThreads() set through OpSource::refill. noc: replay the run's
 * packet count per class through a standalone noc::Mesh (round-robin
 * sources, seeded unicast destinations), timing Mesh::send plus
 * EventQueue::run.
 */
void
probes(const WorkloadSpec &w, double scale, uint64_t seed,
       const std::array<double, 3> &packets, Sample &s)
{
    const std::string root = "probe";
    double t_begin = sinceStart();
    sys::SystemConfig cfg = makeConfig(w);

    mem::PhysMem phys;
    mem::AddressSpace as(0, phys);
    auto wl = workload::makeWorkload(w.kernel,
                                     makeParams(w, cfg, scale, seed));
    wl->init(as);
    auto threads = wl->makeAllThreads();
    uint64_t ops = 0;
    double isa_s = timed(s, "probe.isa", root, [&] {
        std::vector<isa::Op> buf;
        for (auto &t : threads) {
            for (;;) {
                buf.clear();
                size_t n = t->refill(buf);
                if (n == 0)
                    break;
                ops += n;
            }
        }
    });
    s.v["isa.ops_generated"] = double(ops);
    s.v["isa.probe_ns_per_op"] = ops ? isa_s * 1e9 / double(ops) : 0.0;

    EventQueue eq;
    noc::Mesh mesh(eq, cfg.noc);
    uint64_t delivered = 0;
    for (TileId t = 0; t < mesh.numTiles(); ++t)
        mesh.bindSink(t, [&delivered](const noc::MsgPtr &) { ++delivered; });
    std::array<uint64_t, 3> left;
    uint64_t total = 0;
    for (int c = 0; c < 3; ++c) {
        left[c] = uint64_t(packets[c]);
        total += left[c];
    }
    Rng rng(seed ^ 0x6e6f63ull);
    const int tiles = mesh.numTiles();
    double noc_s = timed(s, "probe.noc", root, [&] {
        int c = 0;
        while (left[0] + left[1] + left[2] > 0) {
            // One packet per source tile, then drain the mesh.
            for (int src = 0; src < tiles; ++src) {
                while (left[c] == 0)
                    c = (c + 1) % 3;
                --left[c];
                auto m = std::make_shared<noc::Message>();
                m->src = src;
                m->dests = {TileId(rng.next() % uint64_t(tiles))};
                m->cls = noc::FlitClass(c);
                m->payloadBytes = m->cls == noc::FlitClass::Data ? 64 : 0;
                m->vnet = m->cls == noc::FlitClass::Data
                              ? noc::VNet::Response
                              : noc::VNet::Request;
                mesh.send(m);
                c = (c + 1) % 3;
                if (left[0] + left[1] + left[2] == 0)
                    break;
            }
            eq.run();
        }
    });
    if (delivered != total) {
        fatal("noc probe delivered %llu of %llu packets",
              static_cast<unsigned long long>(delivered),
              static_cast<unsigned long long>(total));
    }
    s.v["noc.probe_ns_per_packet"] =
        total ? noc_s * 1e9 / double(total) : 0.0;
    s.spans.push_back({root, "-", t_begin, sinceStart()});
}

// ---------------------------------------------------------------------
// Aggregation and output
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Values every simulation of one workload and seed must repeat. */
const char *kFingerprint[] = {
    "sim_cycles",         "cpu.committed_ops", "noc.flit_hops.control",
    "noc.flit_hops.data", "noc.flit_hops.stream", "mem.l2_misses",
    "energy.total_nj",
};

/** Empty when @p s matches @p ref on the fingerprint, else the field. */
std::string
fingerprintMismatch(const Sample &ref, const Sample &s)
{
    for (const char *k : kFingerprint) {
        if (ref.at(k) != s.at(k))
            return k;
    }
    return "";
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
writeTrace(const std::string &path, const std::vector<Sample> &samples)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "simbench: cannot write %s\n", path.c_str());
        return;
    }
    json::Writer w(os, /*pretty=*/false);
    w.beginObject();
    w.kv("displayTimeUnit", "ns");
    w.beginArray("traceEvents");
    int tid = 0;
    for (const auto &s : samples) {
        ++tid;
        for (const auto &sp : s.spans) {
            w.beginObject();
            w.kv("name", sp.name);
            w.kv("ph", "X");
            w.kv("pid", 1);
            w.kv("tid", tid);
            w.kv("ts", sp.start * 1e6);
            w.kv("dur", (sp.end - sp.start) * 1e6);
            w.beginObject("args");
            w.kv("parent", sp.parent);
            w.endObject();
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

int
runBenchmark(const Options &o)
{
    const WorkloadSpec &w = *o.wl;
    const double scale = o.scale > 0 ? o.scale : w.scale;
    // Every invocation must end within 180 s; keep margin for the
    // untimed passes that follow the measured loop.
    const double hard_budget = 170.0;
    auto child_timeout = [&]() {
        double left = hard_budget - sinceStart();
        return unsigned(std::max(1.0, left));
    };

    unsigned attempted = 0, failed = 0;
    auto fail = [&](const std::string &what, const std::string &why) {
        ++failed;
        std::fprintf(stderr, "simbench: %s %s failed: %s\n", w.name,
                     what.c_str(), why.c_str());
    };

    std::vector<Sample> timed_reps, traced_reps, trace_log;
    std::vector<double> rss;
    std::optional<Sample> ref;
    auto check = [&](const Sample &s, const std::string &what) {
        if (s.at("hit_cycle_limit") != 0) {
            fail(what, "hit the cycle limit");
            return false;
        }
        if (!ref) {
            ref = s;
            return true;
        }
        std::string k = fingerprintMismatch(*ref, s);
        if (!k.empty()) {
            fail(what, "determinism fingerprint differs in " + k);
            return false;
        }
        return true;
    };
    auto simulateOnce = [&](Mode mode) -> std::optional<ChildResult> {
        ++attempted;
        ChildResult c = runChild(
            [&](Sample &s) { simulate(w, scale, o.seed, mode, s); },
            child_timeout());
        if (!c.ok) {
            fail(modeName(mode), c.why);
            return std::nullopt;
        }
        if (mode != Mode::Setup && !check(c.sample, modeName(mode)))
            return std::nullopt;
        return c;
    };

    // Measured loop: untimed passes come after it. With --trace 1,
    // traced simulations alternate with untraced ones so both see the
    // same host conditions.
    // The loop stops before a simulation that would overrun --seconds
    // (predicted from the previous one), once min_reps are in.
    const double loop_start = sinceStart();
    const int min_reps = 3;
    double last = 0;
    for (int i = 0;; ++i) {
        double spent = sinceStart() - loop_start;
        int have = int(timed_reps.size());
        if (spent + last > o.seconds && have >= min_reps)
            break;
        if (sinceStart() + last > 0.6 * hard_budget)
            break;
        double rep_start = sinceStart();
        bool traced = o.trace && i % 2 == 1;
        auto c = simulateOnce(traced ? Mode::Traced : Mode::Timed);
        last = sinceStart() - rep_start;
        if (!c)
            continue;
        std::fprintf(stderr, "simbench: %s rep %d: run %.4f s, build %.4f s\n",
                     traced ? "traced" : "timed", i,
                     c->sample.at("system.run_s"),
                     c->sample.at("system.build_s") +
                         c->sample.at("workload.build_s"));
        if (traced) {
            traced_reps.push_back(c->sample);
            trace_log.push_back(c->sample);
        } else {
            timed_reps.push_back(c->sample);
            rss.push_back(c->maxRssMb);
        }
    }

    // A build takes only tens of milliseconds, so the few builds of the
    // measured loop are topped up with build-only samples for setup_s.
    std::vector<Sample> setups = timed_reps;
    for (int i = 0; i < 12 && sinceStart() < 0.7 * hard_budget; ++i) {
        if (auto c = simulateOnce(Mode::Setup))
            setups.push_back(c->sample);
    }

    // Correctness pass: cfg.verify forces one worker, so for a
    // multi-worker workload its fingerprint check doubles as the
    // serial-versus-parallel comparison.
    std::optional<Sample> verified;
    if (auto c = simulateOnce(Mode::Verify)) {
        verified = c->sample;
        trace_log.push_back(c->sample);
    }

    std::optional<Sample> probe;
    if (o.trace && ref) {
        std::array<double, 3> packets = {ref->at("noc.packets.control"),
                                         ref->at("noc.packets.data"),
                                         ref->at("noc.packets.stream")};
        ++attempted;
        ChildResult c = runChild(
            [&](Sample &s) { probes(w, scale, o.seed, packets, s); },
            child_timeout());
        if (c.ok) {
            probe = c.sample;
            trace_log.push_back(c.sample);
        } else {
            fail("probe", c.why);
        }
    }

    for (const auto &s : traced_reps) {
        double parts = 0;
        for (const char *b : {"retired", "stalled_data", "stalled_sebuf",
                              "stalled_credit", "idle"})
            parts += s.at(std::string("cpu.topdown.") + b);
        if (parts != s.at("cpu.topdown.covered")) {
            fail("sim.traced", "top-down buckets do not sum to covered "
                               "cycles");
        }
    }

    auto per_rep = [](const std::vector<Sample> &v,
                      const std::function<double(const Sample &)> &f) {
        std::vector<double> x;
        for (const auto &s : v)
            x.push_back(f(s));
        return median(x);
    };
    auto med = [&](const std::vector<Sample> &v, const std::string &k) {
        return per_rep(v, [&k](const Sample &s) { return s.at(k); });
    };

    const Sample none;
    const Sample &base = ref ? *ref : none;
    std::vector<Metric> out;
    if (!o.trace) {
        out.push_back({"sim_kcycles_per_s",
                       per_rep(timed_reps,
                               [](const Sample &s) {
                                   return ratio(s.at("sim_cycles"),
                                                s.at("system.run_s")) /
                                          1e3;
                               }),
                       "kcycles/s"});
        out.push_back({"setup_s",
                       per_rep(setups,
                               [](const Sample &s) {
                                   return s.at("system.build_s") +
                                          s.at("workload.build_s");
                               }),
                       "s"});
        out.push_back({"peak_rss_mb", median(rss), "MB"});
        out.push_back({"sim_cycles", base.at("sim_cycles"), "cycles"});
        out.push_back({"pass_ratio",
                       attempted ? 1.0 - double(failed) / attempted : 0.0,
                       "ratio"});
    } else {
        double run_s = med(timed_reps, "system.run_s");
        double events = base.at("sim.events");
        double cycles = base.at("sim_cycles");
        out.push_back({"system.build_s", med(setups, "system.build_s"),
                       "s"});
        out.push_back({"workload.build_s", med(setups, "workload.build_s"),
                       "s"});
        out.push_back({"system.run_s", run_s, "s"});
        out.push_back({"sim.events", events, "count"});
        out.push_back({"sim.events_per_kcycle", ratio(events, cycles) * 1e3,
                       "events/kcycle"});
        out.push_back({"sim.events_per_s",
                       per_rep(timed_reps,
                               [](const Sample &s) {
                                   return ratio(s.at("sim.events"),
                                                s.at("system.run_s"));
                               }),
                       "1/s"});
        out.push_back({"sim.host_ns_per_event", ratio(run_s, events) * 1e9,
                       "ns"});
        for (const char *k : {"sim.eventq.tombstones",
                              "sim.eventq.compactions",
                              "cpu.committed_ops", "cpu.rob_full_stalls"})
            out.push_back({k, base.at(k), "count"});
        out.push_back({"cpu.ipc", base.at("cpu.ipc"), "ops/cycle"});
        const Sample &tr = traced_reps.empty() ? none : traced_reps.front();
        for (const char *b : {"retired", "stalled_data", "stalled_sebuf",
                              "stalled_credit", "idle", "covered"}) {
            std::string k = std::string("cpu.topdown.") + b;
            out.push_back({k, tr.at(k), "cycles"});
        }
        for (const char *k :
             {"stream.fetches_issued", "stream.floated_fetches",
              "stream.elements_consumed", "stream.streams_floated",
              "stream.streams_sunk", "flt.sel2.data_arrived",
              "flt.sel2.credits_sent", "flt.sel2.float_nacks",
              "flt.sel3.line_requests", "flt.sel3.indirect_requests",
              "flt.sel3.migrations"})
            out.push_back({k, base.at(k), "count"});
        for (const char *k : {"flt.confluence_merge_ratio",
                              "mem.l1_hit_rate"})
            out.push_back({k, base.at(k), "ratio"});
        out.push_back({"mem.l2_misses", base.at("mem.l2_misses"), "count"});
        out.push_back({"mem.l2_unreused_eviction_ratio",
                       base.at("mem.l2_unreused_eviction_ratio"), "ratio"});
        for (const char *k : {"mem.writebacks", "mem.l3_requests"})
            out.push_back({k, base.at(k), "count"});
        out.push_back({"mem.l3_hit_rate", base.at("mem.l3_hit_rate"),
                       "ratio"});
        for (const char *k : {"mem.l3_fwd_requests", "mem.dram_reads",
                              "mem.dram_writes", "prefetch.issued"})
            out.push_back({k, base.at(k), "count"});
        out.push_back({"prefetch.accuracy", base.at("prefetch.accuracy"),
                       "ratio"});
        out.push_back({"noc.packets", base.at("noc.packets"), "count"});
        for (const char *k : {"noc.flit_hops.control", "noc.flit_hops.data",
                              "noc.flit_hops.stream"})
            out.push_back({k, base.at(k), "flit-hops"});
        out.push_back({"noc.utilization", base.at("noc.utilization"),
                       "ratio"});
        const Sample &pr = probe ? *probe : none;
        out.push_back({"noc.probe_ns_per_packet",
                       pr.at("noc.probe_ns_per_packet"), "ns"});
        out.push_back({"isa.ops_generated", pr.at("isa.ops_generated"),
                       "count"});
        out.push_back({"isa.probe_ns_per_op", pr.at("isa.probe_ns_per_op"),
                       "ns"});
        const Sample &vf = verified ? *verified : none;
        out.push_back({"verify.reference_s", vf.at("verify.reference_s"),
                       "s"});
        out.push_back({"verify.check_s", vf.at("verify.check_s"), "s"});
        out.push_back({"verify.fail_ratio",
                       attempted ? double(failed) / attempted : 1.0,
                       "ratio"});
        for (const char *ph : {"PrivCache", "Remote", "NocReqQueue",
                               "L3Queue", "Mem", "SEBuffer", "Total"}) {
            for (const char *q : {"p50", "p95"}) {
                std::string k = std::string("lat.") + ph + "." + q;
                out.push_back({k, tr.at(k), "cycles"});
            }
        }
        double traced_run = med(traced_reps, "system.run_s");
        out.push_back({"trace.overhead_pct",
                       (ratio(traced_run, run_s) - 1.0) * 100.0, "%"});
        out.push_back({"energy.total_nj", base.at("energy.total_nj"),
                       "nJ"});
    }

    if (o.trace && !o.traceOut.empty())
        writeTrace(o.traceOut, trace_log);

    std::fprintf(stderr,
                 "simbench: %s seed=%llu (%s) scale=%g threads=%d "
                 "reps=%zu traced=%zu attempted=%u failed=%u\n",
                 w.name, static_cast<unsigned long long>(o.seed),
                 w.seeded ? "dataset depends on it" : "dataset ignores it",
                 scale, w.threads, timed_reps.size(), traced_reps.size(),
                 attempted, failed);

    bool correct = failed == 0 && ref && verified && !timed_reps.empty() &&
                   (!o.trace || (probe && !traced_reps.empty()));
    std::ostringstream os;
    json::Writer jw(os, /*pretty=*/false);
    jw.beginObject();
    jw.kv("correct", correct);
    jw.kv("attempted", uint64_t(attempted));
    jw.kv("failed", uint64_t(failed));
    jw.beginObject("metrics");
    for (const auto &m : out) {
        jw.beginObject(m.name);
        jw.kv("value", m.value);
        jw.kv("unit", m.unit);
        jw.endObject();
    }
    jw.endObject();
    jw.endObject();
    std::printf("%s\n", os.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    g_t0 = Clock::now();
    Options o = parseOptions(argc, argv);
    return runBenchmark(o);
}
