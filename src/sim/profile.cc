/**
 * @file
 * Latency-attribution profiler implementation (see profile.hh).
 */

#include "sim/profile.hh"

#include <algorithm>

namespace sf {
namespace prof {

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::PrivCache: return "privCache";
      case Phase::Remote: return "remote";
      case Phase::Fill: return "fill";
      case Phase::SEBuffer: return "seBuffer";
      case Phase::NocReqQueue: return "nocReqQueue";
      case Phase::NocReqXfer: return "nocReqXfer";
      case Phase::L3Queue: return "l3Queue";
      case Phase::L3Service: return "l3Service";
      case Phase::Mem: return "mem";
      case Phase::NocRspQueue: return "nocRspQueue";
      case Phase::NocRspXfer: return "nocRspXfer";
      case Phase::Total: return "total";
      default: return "?";
    }
}

const char *
bucketName(Bucket b)
{
    switch (b) {
      case Bucket::Retired: return "retired";
      case Bucket::StalledData: return "stalledData";
      case Bucket::StalledSebuf: return "stalledSebuf";
      case Bucket::StalledCredit: return "stalledCredit";
      case Bucket::Idle: return "idle";
      default: return "?";
    }
}

std::string
streamLabel(StreamId sid)
{
    if (sid == invalidStream)
        return "demand";
    return "s" + std::to_string(sid);
}

double
LatHist::percentile(double q) const
{
    if (!_count)
        return 0.0;
    // Rank of the q-th sample (1-based, ceil), then interpolate
    // linearly inside the bucket that holds it. Integer state in,
    // fixed arithmetic out: byte-stable across runs.
    uint64_t rank = static_cast<uint64_t>(q * double(_count));
    if (rank < 1)
        rank = 1;
    if (rank > _count)
        rank = _count;
    uint64_t cum = 0;
    for (int b = 0; b < numBuckets; ++b) {
        if (!_buckets[b])
            continue;
        if (cum + _buckets[b] >= rank) {
            double lo = double(bucketLo(b));
            double hi = double(std::min(bucketHi(b), _max));
            double within = double(rank - cum) / double(_buckets[b]);
            return lo + (hi - lo) * within;
        }
        cum += _buckets[b];
    }
    return double(_max);
}

std::string
TopDownAccount::verify(const std::string &name) const
{
    uint64_t sum = total();
    if (sum != _upTo) {
        return "topdown[" + name + "]: buckets sum to " +
               std::to_string(sum) + " but " + std::to_string(_upTo) +
               " cycles were accounted";
    }
    return "";
}

uint32_t
Profiler::open(TileId tile, StreamId sid, Tick now)
{
    uint32_t slot;
    if (!_freeSlots.empty()) {
        slot = _freeSlots.back();
        _freeSlots.pop_back();
    } else {
        if (_recs.size() >= maxSlots)
            return 0;
        _recs.push_back(Rec{});
        slot = static_cast<uint32_t>(_recs.size() - 1);
    }
    Rec &r = _recs[slot];
    r.openTick = now;
    r.lastMark = now;
    r.agg = &_agg[{tile, sid}];
    r.live = true;
    return ((slot + 1) << slotShift) | r.gen;
}

void
Profiler::mark(uint32_t id, Phase p, Tick now)
{
    Rec *r = resolve(id);
    if (!r)
        return;
    (*r->agg)[size_t(p)].sample(now - r->lastMark);
    r->lastMark = now;
}

void
Profiler::add(uint32_t id, Phase p, uint64_t cycles)
{
    Rec *r = resolve(id);
    if (!r)
        return;
    (*r->agg)[size_t(p)].sample(cycles);
}

void
Profiler::close(uint32_t id, Tick now, Phase residual)
{
    Rec *r = resolve(id);
    if (!r)
        return;
    (*r->agg)[size_t(residual)].sample(now - r->lastMark);
    (*r->agg)[size_t(Phase::Total)].sample(now - r->openTick);
    r->live = false;
    r->gen = (r->gen + 1) & genMask;
    r->agg = nullptr;
    _freeSlots.push_back(static_cast<uint32_t>(r - _recs.data()));
}

TopDownAccount &
Profiler::topDown(const std::string &name)
{
    return _topDown[name];
}

std::vector<std::string>
Profiler::finalizeTopDown(Tick end)
{
    for (auto &kv : _topDown)
        kv.second.finalize(end);
    return verifyTopDown();
}

std::vector<std::string>
Profiler::verifyTopDown() const
{
    std::vector<std::string> violations;
    for (const auto &kv : _topDown) {
        std::string v = kv.second.verify(kv.first);
        if (!v.empty())
            violations.push_back(std::move(v));
    }
    return violations;
}

void
Profiler::registerStats(stats::StatRegistry &reg) const
{
    for (const auto &[key, hists] : _agg) {
        stats::StatGroup &g =
            reg.group("profile.tile" + std::to_string(key.first));
        std::string stem = streamLabel(key.second) + ".";
        for (size_t p = 0; p < numPhases; ++p) {
            const LatHist &h = hists[p];
            if (!h.count())
                continue;
            std::string pn = stem + phaseName(Phase(p));
            g.regFormula(pn + ".count",
                         [&h]() { return double(h.count()); });
            g.regFormula(pn + ".mean", [&h]() { return h.mean(); });
            g.regFormula(pn + ".p50", [&h]() { return h.p50(); });
            g.regFormula(pn + ".p95", [&h]() { return h.p95(); });
            g.regFormula(pn + ".max", [&h]() { return double(h.max()); });
        }
    }
    stats::StatGroup &g = reg.group("profile.topdown");
    for (const auto &kv : _topDown) {
        const TopDownAccount &acct = kv.second;
        for (size_t b = 0; b < numBuckets; ++b) {
            g.regFormula(kv.first + "." + bucketName(Bucket(b)),
                         [&acct, b]() {
                             return double(acct.cycles(Bucket(b)));
                         });
        }
    }
}

void
Profiler::dumpJson(json::Writer &w) const
{
    w.beginArray("phases");
    for (size_t p = 0; p < numPhases; ++p)
        w.value(std::string(phaseName(Phase(p))));
    w.endArray();

    w.beginObject("latency");
    for (auto it = _agg.begin(); it != _agg.end();) {
        TileId tile = it->first.first;
        w.beginObject("tile" + std::to_string(tile));
        for (; it != _agg.end() && it->first.first == tile; ++it) {
            w.beginObject(streamLabel(it->first.second));
            for (size_t p = 0; p < numPhases; ++p) {
                const LatHist &h = it->second[p];
                if (!h.count())
                    continue;
                w.beginObject(phaseName(Phase(p)));
                w.kv("count", h.count());
                w.kv("sum", h.sum());
                w.kv("max", h.max());
                w.kv("mean", h.mean());
                w.kv("p50", h.p50());
                w.kv("p95", h.p95());
                // Trim trailing zero buckets: the boundary scheme is
                // fixed, so the prefix alone is unambiguous.
                int last = -1;
                for (int b = 0; b < LatHist::numBuckets; ++b) {
                    if (h.buckets()[b])
                        last = b;
                }
                w.beginArray("buckets");
                for (int b = 0; b <= last; ++b)
                    w.value(h.buckets()[b]);
                w.endArray();
                w.endObject();
            }
            w.endObject();
        }
        w.endObject();
    }
    w.endObject();

    w.beginObject("topdown");
    for (const auto &kv : _topDown) {
        const TopDownAccount &acct = kv.second;
        w.beginObject(kv.first);
        for (size_t b = 0; b < numBuckets; ++b)
            w.kv(bucketName(Bucket(b)), acct.cycles(Bucket(b)));
        w.kv("total", acct.total());
        w.endObject();
    }
    w.endObject();

    w.kv("openRecords", static_cast<uint64_t>(openRecords()));
    w.kv("staleMarks", staleMarks());
}

void
Profiler::dumpSummaryJson(json::Writer &w) const
{
    w.beginObject();
    // Aggregate top-down split across every account.
    std::array<uint64_t, numBuckets> td{};
    for (const auto &kv : _topDown)
        for (size_t b = 0; b < numBuckets; ++b)
            td[b] += kv.second.cycles(Bucket(b));
    w.beginObject("topdown");
    for (size_t b = 0; b < numBuckets; ++b)
        w.kv(bucketName(Bucket(b)), td[b]);
    w.endObject();
    // Per-phase p95 over the merge of all (tile, stream) aggregates.
    PhaseHists merged{};
    for (const auto &kv : _agg)
        for (size_t p = 0; p < numPhases; ++p)
            merged[p].merge(kv.second[p]);
    w.beginObject("p95");
    for (size_t p = 0; p < numPhases; ++p) {
        if (merged[p].count())
            w.kv(phaseName(Phase(p)), merged[p].p95());
    }
    w.endObject();
    w.endObject();
}

} // namespace prof
} // namespace sf
