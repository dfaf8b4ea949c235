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
 * Isolation: the parent forks one child per point and reaps it with a
 * blocking waitpid(), so a fatal() or crash in one simulation cannot
 * abort the grid and no simulator state leaks between points. Every
 * child is deterministic, so a point that fails would fail the same
 * way again: it is recorded once as a `"status": "failed"` entry with
 * the child's `"exitCode"` or `"signal"` (the report bytes are
 * unchanged when nothing fails), and the sweep exits 1 after writing
 * both reports. An interrupted sweep is re-run.
 *
 * On top of the common bench options, --help lists -j/--jobs, --out,
 * --cpus and --machines (names in any case) with their defaults. An
 * unknown name, a bad value or an unknown option prints usage and
 * exits 2 before any point is forked.
 */

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
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
};

/** Run one point to completion; only ever called in a forked child. */
int
runPoint(const Point &p, const SweepOptions &o,
         const std::string &points_dir)
{
    BenchOptions bo = o.bench;
    bo.statsJsonDir = points_dir;
    sys::SimResults r = runSim(p.machine, p.core, p.workload, bo);
    std::ofstream host(points_dir + "/" + p.stem + ".host");
    char buf[96];
    std::snprintf(buf, sizeof(buf), "seconds=%.6f events=%llu\n",
                  r.hostSeconds,
                  static_cast<unsigned long long>(r.eventsExecuted));
    host << buf;
    host.flush();
    return host.good() ? 0 : 1;
}

bool
readHostReport(const std::string &path, HostReport &h)
{
    std::ifstream in(path);
    std::string line;
    unsigned long long events = 0;
    if (!std::getline(in, line) ||
        std::sscanf(line.c_str(), "seconds=%lf events=%llu", &h.seconds,
                    &events) != 2)
        return false;
    h.events = events;
    return true;
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
                 const std::vector<std::string> &failed)
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
        if (!failed[i].empty()) {
            os << "\"status\": \"failed\", " << failed[i] << "}";
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
                 const std::vector<std::string> &failed,
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
        if (!failed[i].empty()) {
            std::snprintf(buf, sizeof(buf),
                          "      {\"id\": \"%s\", \"status\": "
                          "\"failed\", %s}%s\n",
                          points[i].stem.c_str(), failed[i].c_str(),
                          i + 1 < points.size() ? "," : "");
            os << buf;
            continue;
        }
        const HostReport &h = hosts.at(points[i].stem);
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

/** SIGKILL and reap every remaining child before the parent exits. */
void
killAll(std::map<pid_t, size_t> &running)
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
driverMain(int argc, char **argv)
{
    SweepOptions opt = parseSweep(argc, argv);
    std::vector<Point> points = enumerateGrid(opt);
    std::string points_dir = opt.outDir + "/points";
    ensureOutputDir(points_dir, "--out");

    std::printf("sweep: %zu points (%zu cpus x %zu machines x %zu "
                "workloads), %d job(s)\n",
                points.size(), opt.cpus.size(), opt.machines.size(),
                opt.bench.workloads.size(), opt.jobs);

    // sflint: allow(D2, sweep wall clock, only in the host report)
    auto wall_start = std::chrono::steady_clock::now();

    // Fork one child per point in fixed grid order; up to `jobs` run
    // concurrently. Every point forks (even -j 1) so serial and
    // parallel runs execute byte-identical code paths.
    std::map<pid_t, size_t> running;
    // Per point: "" or the failed child's "exitCode"/"signal" field.
    std::vector<std::string> failed(points.size());
    int failures = 0;
    size_t next = 0;
    while (next < points.size() || !running.empty()) {
        while (running.size() < size_t(opt.jobs) && next < points.size()) {
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
                std::_Exit(guardedRun(argv[0], [&] {
                    return runPoint(points[next], opt, points_dir);
                }));
            }
            running[pid] = next++;
        }
        int status = 0;
        pid_t done = waitpid(-1, &status, 0);
        if (done < 0) {
            if (errno == EINTR)
                continue;
            std::perror("sweep: waitpid");
            killAll(running);
            return 1;
        }
        auto it = running.find(done);
        if (it == running.end())
            continue;
        const Point &p = points[it->second];
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            std::printf("sweep: done %s\n", p.stem.c_str());
        } else {
            ++failures;
            bool exited = WIFEXITED(status);
            int code = exited ? WEXITSTATUS(status) : WTERMSIG(status);
            failed[it->second] = (exited ? "\"exitCode\": " : "\"signal\": ") +
                                 std::to_string(code);
            std::printf("sweep: FAILED %s (%s %d)\n", p.stem.c_str(),
                        exited ? "exit" : "signal", code);
        }
        running.erase(it);
    }
    double wall_seconds =
        // sflint: allow(D2, sweep wall clock, only in the host report)
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    if (failures)
        std::printf("sweep: %d point(s) failed, recording in report\n",
                    failures);

    // Collect the host-side reports for the companion file; failed
    // points have none and get a status marker instead.
    std::map<std::string, HostReport> hosts;
    for (size_t i = 0; i < points.size(); ++i) {
        if (!failed[i].empty())
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
        writeHostSection(full, opt, points, failed, hosts, wall_seconds);
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
    return failures ? 1 : 0;
}
