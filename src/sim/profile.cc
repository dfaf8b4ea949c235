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

void
Profiler::configureTiles(int numTiles)
{
    if (numTiles > int(maxTiles))
        numTiles = int(maxTiles);
    if (size_t(numTiles) > _tiles.size())
        _tiles.resize(size_t(numTiles));
}

uint32_t
Profiler::open(TileId tile, StreamId sid, Tick now)
{
    if (tile < 0 || uint32_t(tile) >= maxTiles)
        return 0;
    if (size_t(tile) >= _tiles.size()) {
        // Standalone use grows lazily; TiledSystem pre-sizes via
        // configureTiles().
        _tiles.resize(size_t(tile) + 1);
    }
    TileState &t = _tiles[size_t(tile)];
    uint32_t slot;
    if (!t.freeSlots.empty()) {
        slot = t.freeSlots.back();
        t.freeSlots.pop_back();
    } else {
        if (t.recs.size() >= slotMask - 1)
            return 0;
        t.recs.push_back(Rec{});
        slot = static_cast<uint32_t>(t.recs.size() - 1);
    }
    Rec &r = t.recs[slot];
    r.openTick = now;
    r.lastMark = now;
    r.agg = &t.agg[sid];
    r.live = true;
    ++t.open;
    return (uint32_t(tile) << tileShift) | ((slot + 1) << slotShift) |
           r.gen;
}

void
Profiler::markNow(uint32_t id, Phase p, Tick now)
{
    Rec *r = resolve(id);
    if (!r)
        return;
    (*r->agg)[size_t(p)].sample(now - r->lastMark);
    r->lastMark = now;
}

void
Profiler::addNow(uint32_t id, Phase p, uint64_t cycles)
{
    Rec *r = resolve(id);
    if (!r)
        return;
    (*r->agg)[size_t(p)].sample(cycles);
}

void
Profiler::closeNow(uint32_t id, Tick now, Phase residual)
{
    Rec *r = resolve(id);
    if (!r)
        return;
    (*r->agg)[size_t(residual)].sample(now - r->lastMark);
    (*r->agg)[size_t(Phase::Total)].sample(now - r->openTick);
    r->live = false;
    r->gen = (r->gen + 1) & genMask;
    r->agg = nullptr;
    TileState &t = _tiles[size_t(tileOf(id))];
    --t.open;
    t.freeSlots.push_back(static_cast<uint32_t>(r - t.recs.data()));
}

void
Profiler::flushDeferred()
{
    for (TileState &t : _tiles) {
        for (const DeferredOp &op : t.deferred) {
            switch (op.kind) {
              case OpKind::Mark:
                markNow(op.id, op.phase, Tick(op.value));
                break;
              case OpKind::Add:
                addNow(op.id, op.phase, op.value);
                break;
              case OpKind::Close:
                closeNow(op.id, Tick(op.value), op.residual);
                break;
            }
        }
        t.deferred.clear();
    }
}

std::map<std::pair<TileId, StreamId>, Profiler::PhaseHists>
Profiler::aggregates() const
{
    std::map<std::pair<TileId, StreamId>, PhaseHists> out;
    for (size_t t = 0; t < _tiles.size(); ++t) {
        for (const auto &kv : _tiles[t].agg)
            out.emplace(std::make_pair(TileId(t), kv.first), kv.second);
    }
    return out;
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
    for (size_t tile = 0; tile < _tiles.size(); ++tile) {
        for (const auto &kv : _tiles[tile].agg) {
            StreamId sid = kv.first;
            const PhaseHists &hists = kv.second;
            stats::StatGroup &g =
                reg.group("profile.tile" + std::to_string(tile));
            std::string stem = streamLabel(sid) + ".";
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
                g.regFormula(pn + ".max",
                             [&h]() { return double(h.max()); });
            }
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
    for (size_t tile = 0; tile < _tiles.size(); ++tile) {
        if (_tiles[tile].agg.empty())
            continue;
        w.beginObject("tile" + std::to_string(tile));
        for (const auto &kv : _tiles[tile].agg) {
            w.beginObject(streamLabel(kv.first));
            for (size_t p = 0; p < numPhases; ++p) {
                const LatHist &h = kv.second[p];
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
    for (const TileState &t : _tiles)
        for (const auto &kv : t.agg)
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
