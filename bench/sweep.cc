/**
 * @file
 * Parallel sweep runner: fans the fig13 grid (core config x machine
 * variant x workload) across `-j N` worker processes and merges the
 * per-point stats.json dumps into one sweep report.
 *
 * Determinism contract: every point runs in its own forked child (even
 * at -j 1), each child writes its stats.json under a deterministic
 * per-point filename, and the parent merges the files in fixed grid
 * order. The merged `BENCH_sweep.det.json` is therefore byte-identical
 * no matter how many jobs ran or in what order they finished; host
 * wall-clock numbers only appear in the companion `BENCH_sweep.json`.
 *
 * Crash resilience: every child runs under a wall-clock deadline
 * (`--point-timeout`, SIGKILL on expiry) and gets one bounded retry
 * after a crash or timeout. Points that still fail are recorded as
 * `"status": "failed"` entries in the merged report instead of
 * aborting the whole sweep; when nothing fails the report bytes are
 * unchanged. `--resume` VALIDATES existing point results before
 * skipping them: each completed child drops a `<stem>.ok` sidecar
 * carrying CRC-32s of its stats.json and host report, and a point is
 * only reused when the recomputed CRCs match — a torn or corrupted
 * result re-runs from tick 0, as does every point a killed sweep had
 * not finished.
 *
 * On top of the common bench options, --help lists -j/--jobs, --out,
 * --cpus, --machines (names in any case), --point-timeout and --resume
 * with their defaults. An unknown name, a bad value or an unknown
 * option prints usage and exits 2 before any point is forked.
 *
 * Test hooks (used by tests/smoke_sweep.cmake): a child whose point
 * stem equals $SF_SWEEP_TEST_CRASH aborts, $SF_SWEEP_TEST_HANG spins
 * forever, $SF_SWEEP_TEST_FLAKY aborts on the first attempt only, and
 * $SF_SWEEP_TEST_PARENT_KILL_AFTER=<n> SIGKILLs the whole sweep after
 * n completed points (crash-recovery CI).
 */

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <deque>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench/bench_util.hh"

using namespace sf;
using namespace sf::bench;

namespace {

struct SweepOptions
{
    BenchOptions bench;
    int jobs = 1;
    std::string outDir = "sweep_out";
    /** Per-point wall-clock limit in seconds; expired children are
     *  SIGKILLed and retried once. */
    double pointTimeout = 300.0;
    /** Skip points whose `.ok` sidecar CRCs still validate. */
    bool resume = false;
    std::vector<std::string> cpus = {"io4", "ooo4", "ooo8"};
    std::vector<std::string> machines = {"Base", "Stride", "Bingo", "SS",
                                         "SF"};
};

SweepOptions
parseSweep(int argc, char **argv)
{
    SweepOptions o;
    OptionTable t(argv[0]);
    o.bench.addRunOptions(t);
    o.bench.addGridOptions(t);
    t.bind("--jobs", "N", "worker processes (default 1)", o.jobs,
           parseThreadCount);
    t.bind("-j", "N", "same as --jobs=N", o.jobs, parseThreadCount);
    t.text("--out", "DIR", "output directory (default sweep_out)",
           o.outDir);
    t.add("--cpus", "a,b", "subset of io4,ooo4,ooo8 (default all)",
          [&o](const std::string &v) {
              o.cpus = parseList(v, "--cpus");
              for (const std::string &c : o.cpus)
                  cpu::CoreConfig::fromName(c, "--cpus");
          });
    t.add("--machines", "a,b",
          "Base,Stride,Bingo,SS,SF-Aff,SF-Ind,SF (default first 5)",
          [&o](const std::string &v) {
              o.machines = parseList(v, "--machines");
              for (const std::string &m : o.machines)
                  sys::machineFromName(m, "--machines");
          });
    t.bind("--point-timeout", "S", "seconds per point, then retry (300)",
           o.pointTimeout, parsePositiveReal);
    t.flag("--resume", "skip points whose .ok CRCs still validate",
           o.resume);
    t.parse(argc, argv);
    return o;
}

/** One cell of the sweep grid, in fixed enumeration order. */
struct Point
{
    cpu::CoreConfig core;
    sys::Machine machine;
    std::string workload;
    /** Deterministic file stem, the one runSim() writes under. */
    std::string stem;
};

std::vector<Point>
enumerateGrid(const SweepOptions &o)
{
    std::vector<Point> points;
    for (const std::string &cpu_name : o.cpus) {
        cpu::CoreConfig core = cpu::CoreConfig::fromName(cpu_name, "--cpus");
        for (const std::string &wl : o.bench.workloads) {
            for (const std::string &m : o.machines) {
                Point p;
                p.core = core;
                p.machine = sys::machineFromName(m, "--machines");
                p.workload = wl;
                p.stem = runStem(core, p.machine, wl);
                points.push_back(p);
            }
        }
    }
    return points;
}

/** Host-side measurements a child reports back through a side file. */
struct HostReport
{
    double seconds = 0.0;
    uint64_t events = 0;
    uint64_t cycles = 0;
};

/**
 * Lookup table for the reflected CRC-32 polynomial 0xedb88320. Changing
 * the polynomial would make --resume reject every existing sidecar.
 */
struct CrcTable
{
    uint32_t t[256];

    constexpr CrcTable() : t()
    {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
    }
};

constexpr CrcTable kCrc;

/**
 * CRC-32 (IEEE 802.3, reflected) of a file's raw bytes as the eight
 * lower-case hex digits a `.ok` sidecar records; empty if unreadable.
 */
std::string
fileCrc(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream ss;
    ss << in.rdbuf();
    uint32_t crc = 0xffffffffu;
    for (char ch : ss.str())
        crc = kCrc.t[(crc ^ uint8_t(ch)) & 0xffu] ^ (crc >> 8);
    char hex[9];
    std::snprintf(hex, sizeof(hex), "%08x", crc ^ 0xffffffffu);
    return hex;
}

/** The files a `.ok` sidecar guards: (field name, file suffix). */
std::vector<std::pair<std::string, std::string>>
guardedFiles(const SweepOptions &o)
{
    std::vector<std::pair<std::string, std::string>> files = {
        {"stats_crc", ".stats.json"}, {"host_crc", ".host"}};
    if (o.bench.profile)
        files.push_back({"prof_crc", ".profsum.json"});
    return files;
}

/** Run one point to completion; only ever called in a forked child. */
int
runPoint(const Point &p, const SweepOptions &o,
         const std::string &points_dir, int attempt)
{
    // Deterministic failure hooks so the sweep's own tests can force a
    // crash, a hang, or a first-attempt-only crash on a chosen point.
    if (const char *v = std::getenv("SF_SWEEP_TEST_CRASH"))
        if (p.stem == v)
            std::abort();
    if (const char *v = std::getenv("SF_SWEEP_TEST_HANG"))
        if (p.stem == v)
            for (;;)
                pause();
    if (const char *v = std::getenv("SF_SWEEP_TEST_FLAKY"))
        if (p.stem == v && attempt == 1)
            std::abort();
    try {
        BenchOptions bo = o.bench;
        bo.statsJsonDir = points_dir;
        sys::SimResults r = runSim(p.machine, p.core, p.workload, bo);
        std::ofstream host(points_dir + "/" + p.stem + ".host");
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "seconds=%.6f events=%llu cycles=%llu\n",
                      r.hostSeconds,
                      static_cast<unsigned long long>(r.eventsExecuted),
                      static_cast<unsigned long long>(r.cycles));
        host << buf;
        host.flush();
        if (!host.good())
            return 1;
        // Validation sidecar, written last: --resume only reuses this
        // point when the CRCs recorded here still match the recomputed
        // ones, so a SIGKILL at any earlier instant leaves a point
        // that re-runs.
        std::string ok;
        for (const auto &[field, suffix] : guardedFiles(o)) {
            std::string crc = fileCrc(points_dir + "/" + p.stem + suffix);
            if (crc.empty())
                return 1;
            ok += (ok.empty() ? "" : " ") + field + "=" + crc;
        }
        std::ofstream okf(points_dir + "/" + p.stem + ".ok");
        okf << ok << "\n";
        okf.flush();
        return okf.good() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sweep: point %s failed: %s\n",
                     p.stem.c_str(), e.what());
        return 1;
    }
}

/** The "key=value" fields on the first line of a sidecar file. */
std::map<std::string, std::string>
readFields(const std::string &path)
{
    std::map<std::string, std::string> fields;
    std::ifstream in(path);
    std::string line, field;
    std::getline(in, line);
    std::istringstream ss(line);
    while (ss >> field) {
        size_t eq = field.find('=');
        if (eq != std::string::npos)
            fields[field.substr(0, eq)] = field.substr(eq + 1);
    }
    return fields;
}

bool
readHostReport(const std::string &path, HostReport &h)
{
    auto f = readFields(path);
    try {
        h.seconds = std::stod(f.at("seconds"));
        h.events = std::stoull(f.at("events"));
        h.cycles = std::stoull(f.at("cycles"));
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

/**
 * A point's results are reusable under --resume only when its `.ok`
 * sidecar exists and the CRC32s it recorded still match the
 * recomputed checksums of stats.json, the host report, and (for
 * profile sweeps) profsum.json. The sidecar is the last file a child
 * writes, so a SIGKILL at any instant leaves a point that fails this
 * check and re-runs; a torn or bit-flipped result file fails the CRC
 * comparison the same way.
 */
bool
pointComplete(const SweepOptions &o, const std::string &points_dir,
              const std::string &stem)
{
    auto recorded = readFields(points_dir + "/" + stem + ".ok");
    for (const auto &[field, suffix] : guardedFiles(o)) {
        std::string crc = fileCrc(points_dir + "/" + stem + suffix);
        if (crc.empty() || recorded[field] != crc)
            return false;
    }
    HostReport h;
    return readHostReport(points_dir + "/" + stem + ".host", h);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("missing file: " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string s = ss.str();
    while (!s.empty() && (s.back() == '\n' || s.back() == ' '))
        s.pop_back();
    return s;
}

void
writeStringArray(std::ostream &os, const std::vector<std::string> &v)
{
    os << "[";
    for (size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << "\"" << v[i] << "\"";
    os << "]";
}

/**
 * The deterministic part of the report: grid description plus every
 * point's raw stats.json spliced in fixed grid order. Each per-point
 * dump is itself deterministic (the host stat group is off by
 * default), so these bytes are independent of job count and
 * completion order.
 */
void
writeDetSections(std::ostream &os, const SweepOptions &o,
                 const std::vector<Point> &points,
                 const std::string &points_dir,
                 const std::vector<char> &failed)
{
    char buf[96];
    os << "{\n  \"schema\": \"sf-sweep-1\",\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"grid\": {\"nx\": %d, \"ny\": %d, \"scale\": %.6f, ",
                  o.bench.nx, o.bench.ny, o.bench.scale);
    os << buf << "\"cpus\": ";
    writeStringArray(os, o.cpus);
    os << ", \"machines\": ";
    writeStringArray(os, o.machines);
    os << ", \"workloads\": ";
    writeStringArray(os, o.bench.workloads);
    os << "},\n  \"points\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        os << "    {\"id\": \"" << p.stem << "\", \"core\": \""
           << p.core.label << "\", \"machine\": \""
           << sys::machineName(p.machine) << "\", \"workload\": \""
           << p.workload << "\",\n     ";
        // Failed points carry a status marker instead of stats so the
        // report stays byte-identical whenever nothing failed.
        if (failed[i]) {
            os << "\"status\": \"failed\"}";
        } else {
            os << "\"stats\": "
               << slurp(points_dir + "/" + p.stem + ".stats.json");
            // Profile runs drop a per-point summary next to the stats;
            // splice it so the merged report carries the top-down
            // split and phase p95s per point.
            if (o.bench.profile) {
                os << ",\n     \"profile\": "
                   << slurp(points_dir + "/" + p.stem + ".profsum.json");
            }
            os << "}";
        }
        os << (i + 1 < points.size() ? "," : "") << "\n";
    }
    os << "  ]";
}

void
writeHostSection(std::ostream &os, const SweepOptions &o,
                 const std::vector<Point> &points,
                 const std::map<std::string, HostReport> &hosts,
                 double wall_seconds)
{
    char buf[192];
    double total_sec = 0.0;
    uint64_t total_events = 0;
    os << ",\n  \"host\": {\n";
    std::snprintf(buf, sizeof(buf), "    \"jobs\": %d,\n", o.jobs);
    os << buf << "    \"points\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
        auto it = hosts.find(points[i].stem);
        if (it == hosts.end()) {
            std::snprintf(buf, sizeof(buf),
                          "      {\"id\": \"%s\", \"status\": "
                          "\"failed\"}%s\n",
                          points[i].stem.c_str(),
                          i + 1 < points.size() ? "," : "");
            os << buf;
            continue;
        }
        const HostReport &h = it->second;
        total_sec += h.seconds;
        total_events += h.events;
        std::snprintf(buf, sizeof(buf),
                      "      {\"id\": \"%s\", \"seconds\": %.6f, "
                      "\"events\": %llu, \"eventsPerSec\": %.0f}%s\n",
                      points[i].stem.c_str(), h.seconds,
                      static_cast<unsigned long long>(h.events),
                      h.seconds > 0 ? double(h.events) / h.seconds : 0.0,
                      i + 1 < points.size() ? "," : "");
        os << buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "    ],\n    \"wallSeconds\": %.6f,\n"
                  "    \"cpuSeconds\": %.6f,\n"
                  "    \"totalEvents\": %llu,\n"
                  "    \"eventsPerWallSec\": %.0f\n  }",
                  wall_seconds, total_sec,
                  static_cast<unsigned long long>(total_events),
                  wall_seconds > 0 ? double(total_events) / wall_seconds
                                   : 0.0);
    os << buf;
}

/** State of one forked worker, keyed by pid in the scheduler. */
struct Child
{
    size_t idx;
    int attempt;
    // sflint: allow(D2, host-side child-timeout deadline of the sweep scheduler)
    std::chrono::steady_clock::time_point deadline;
    bool killed = false;
};

/** SIGKILL and reap every remaining child before the parent exits. */
void
killAll(std::map<pid_t, Child> &running)
{
    for (const auto &kv : running)
        kill(kv.first, SIGKILL);
    for (const auto &kv : running) {
        int status = 0;
        while (waitpid(kv.first, &status, 0) < 0 && errno == EINTR) {
        }
    }
    running.clear();
}

} // namespace

int
main(int argc, char **argv)
{
    SweepOptions opt = parseSweep(argc, argv);
    std::vector<Point> points = enumerateGrid(opt);
    std::string points_dir = opt.outDir + "/points";
    std::filesystem::create_directories(points_dir);

    std::printf("sweep: %zu points (%zu cpus x %zu machines x %zu "
                "workloads), %d job(s)\n",
                points.size(), opt.cpus.size(), opt.machines.size(),
                opt.bench.workloads.size(), opt.jobs);

    auto wall_start = std::chrono::steady_clock::now();

    // Work queue in fixed grid order; crashed/timed-out points requeue
    // once at the tail. --resume drops points whose results still pass
    // their recorded CRCs, so an interrupted sweep re-runs exactly the
    // missing or damaged points.
    std::deque<size_t> queue;
    std::vector<int> attempts(points.size(), 0);
    std::vector<char> failed(points.size(), 0);
    for (size_t i = 0; i < points.size(); ++i) {
        if (opt.resume && pointComplete(opt, points_dir, points[i].stem)) {
            std::printf("sweep: resume skip %s\n",
                        points[i].stem.c_str());
            continue;
        }
        queue.push_back(i);
    }

    // Fork one child per point; up to `jobs` run concurrently. Every
    // point forks (even -j 1) so serial and parallel runs execute
    // byte-identical code paths. Reaping polls with WNOHANG so the
    // parent can enforce each child's wall-clock deadline.
    std::map<pid_t, Child> running;
    int failures = 0;
    // Crash-recovery test hook (tests/smoke_sweep.cmake): SIGKILL
    // the whole sweep after n completed points, as an OOM-killed or
    // rebooted host would.
    long parent_kill_after = 0;
    if (const char *v = std::getenv("SF_SWEEP_TEST_PARENT_KILL_AFTER"))
        parent_kill_after = std::atol(v);
    long completed = 0;
    const auto timeout = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(opt.pointTimeout));
    while (!queue.empty() || !running.empty()) {
        while (running.size() < size_t(opt.jobs) && !queue.empty()) {
            size_t idx = queue.front();
            queue.pop_front();
            ++attempts[idx];
            std::fflush(stdout);
            std::fflush(stderr);
            pid_t pid = fork();
            if (pid < 0) {
                std::perror("sweep: fork");
                killAll(running);
                return 1;
            }
            if (pid == 0) {
                // In the child: run the point and leave immediately
                // without flushing inherited stdio buffers twice.
                std::_Exit(runPoint(points[idx], opt, points_dir,
                                    attempts[idx]));
            }
            running[pid] = Child{idx, attempts[idx],
                                 std::chrono::steady_clock::now() +
                                     timeout,
                                 false};
        }
        int status = 0;
        pid_t done = waitpid(-1, &status, WNOHANG);
        if (done < 0) {
            if (errno == EINTR)
                continue;
            std::perror("sweep: waitpid");
            killAll(running);
            return 1;
        }
        if (done == 0) {
            // Nothing exited: enforce deadlines, then poll again.
            auto now = std::chrono::steady_clock::now();
            for (auto &kv : running) {
                if (!kv.second.killed && now >= kv.second.deadline) {
                    kv.second.killed = true;
                    kill(kv.first, SIGKILL);
                    std::printf("sweep: timeout %s after %.0fs, "
                                "killing\n",
                                points[kv.second.idx].stem.c_str(),
                                opt.pointTimeout);
                }
            }
            usleep(20'000);
            continue;
        }
        auto it = running.find(done);
        if (it == running.end())
            continue;
        Child c = it->second;
        running.erase(it);
        const Point &p = points[c.idx];
        bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (ok) {
            std::printf("sweep: done %s\n", p.stem.c_str());
            ++completed;
            if (parent_kill_after > 0 && completed >= parent_kill_after) {
                std::fflush(stdout);
                killAll(running);
                raise(SIGKILL);
            }
            continue;
        }
        const char *why = c.killed             ? "timed out"
                          : WIFSIGNALED(status) ? "crashed"
                                                : "failed";
        if (c.attempt < 2) {
            std::printf("sweep: %s %s (status %d), retrying\n", why,
                        p.stem.c_str(), status);
            queue.push_back(c.idx);
        } else {
            ++failures;
            failed[c.idx] = 1;
            std::printf("sweep: FAILED %s (%s, status %d, "
                        "%d attempts)\n",
                        p.stem.c_str(), why, status, c.attempt);
        }
    }
    double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    if (failures)
        std::printf("sweep: %d point(s) failed after retry, recording "
                    "in report\n", failures);

    // Collect the host-side reports for the companion file; failed
    // points have none and get a status marker instead.
    std::map<std::string, HostReport> hosts;
    for (size_t i = 0; i < points.size(); ++i) {
        if (failed[i])
            continue;
        HostReport h;
        if (!readHostReport(points_dir + "/" + points[i].stem + ".host",
                            h)) {
            std::fprintf(stderr, "sweep: missing host report for %s\n",
                         points[i].stem.c_str());
            return 1;
        }
        hosts[points[i].stem] = h;
    }

    // Deterministic merge: fixed grid order, deterministic content.
    {
        std::ofstream det(opt.outDir + "/BENCH_sweep.det.json");
        writeDetSections(det, opt, points, points_dir, failed);
        det << "\n}\n";
    }
    {
        std::ofstream full(opt.outDir + "/BENCH_sweep.json");
        writeDetSections(full, opt, points, points_dir, failed);
        writeHostSection(full, opt, points, hosts, wall_seconds);
        full << "\n}\n";
    }

    double cpu_seconds = 0.0;
    uint64_t total_events = 0;
    for (const auto &kv : hosts) {
        cpu_seconds += kv.second.seconds;
        total_events += kv.second.events;
    }
    std::printf("sweep: merged %zu points -> %s/BENCH_sweep{.det,}.json\n",
                points.size(), opt.outDir.c_str());
    std::printf("sweep: wall %.2fs, sim cpu %.2fs, %.1f M events, "
                "%.2f M events/s wall\n",
                wall_seconds, cpu_seconds, double(total_events) / 1e6,
                wall_seconds > 0
                    ? double(total_events) / wall_seconds / 1e6
                    : 0.0);
    return 0;
}
