#include "sim/stream_trace.hh"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "sim/json.hh"

namespace sf {
namespace trace {

const char *
phaseName(StreamPhase p)
{
    switch (p) {
      case StreamPhase::Config: return "config";
      case StreamPhase::Float: return "float";
      case StreamPhase::Arrive: return "arrive";
      case StreamPhase::Migrate: return "migrate";
      case StreamPhase::CreditStall: return "credit-stall";
      case StreamPhase::Resume: return "resume";
      case StreamPhase::Sink: return "sink";
      case StreamPhase::End: return "end";
    }
    return "?";
}

namespace {

/** Chrome trace timestamps are microseconds; the chip runs at 2 GHz. */
double
tickToUs(Tick t)
{
    return static_cast<double>(t) / 2000.0;
}

void
writeEvent(json::Writer &w, const StreamEvent &e, int tid, const char *ph,
           Tick dur_ticks)
{
    w.beginObject();
    w.kv("name", phaseName(e.phase));
    w.kv("cat", "stream");
    w.kv("ph", ph);
    w.kv("ts", tickToUs(e.tick));
    if (ph[0] == 'X')
        w.kv("dur", tickToUs(dur_ticks));
    if (ph[0] == 'i')
        w.kv("s", "t");
    w.kv("pid", static_cast<int>(e.gsid.core));
    w.kv("tid", tid);
    w.beginObject("args");
    w.kv("tick", e.tick);
    w.kv("gen", static_cast<uint64_t>(e.gen));
    w.kv("tile", static_cast<int>(e.tile));
    if (!e.detail.empty())
        w.kv("detail", e.detail);
    w.endObject();
    w.endObject();
}

} // namespace

void
writeChromeTrace(std::ostream &os, const std::vector<StreamLog> &logs)
{
    std::map<std::tuple<TileId, StreamId, uint32_t>,
             std::vector<const StreamEvent *>>
        perTrack;
    for (const StreamLog &log : logs) {
        for (const auto &e : log)
            perTrack[{e.gsid.core, e.gsid.sid, e.gen}].push_back(&e);
    }
    for (auto &[key, evs] : perTrack) {
        std::stable_sort(evs.begin(), evs.end(),
                         [](const StreamEvent *a, const StreamEvent *b) {
                             return a->tick < b->tick;
                         });
    }

    json::Writer w(os, /*pretty=*/false);
    w.beginObject();
    w.kv("displayTimeUnit", "ns");
    w.beginArray("traceEvents");

    // Name each per-core process track once.
    std::set<TileId> cores;
    for (const auto &[key, evs] : perTrack)
        cores.insert(std::get<0>(key));
    for (TileId core : cores) {
        w.beginObject();
        w.kv("name", "process_name");
        w.kv("ph", "M");
        w.kv("pid", static_cast<int>(core));
        w.beginObject("args");
        w.kv("name", "core" + std::to_string(core) + " streams");
        w.endObject();
        w.endObject();
    }

    // One named thread per track; tids count up per core in
    // (stream id, gen) order.
    TileId lastCore = invalidTile;
    int tid = 0;
    for (const auto &[key, evs] : perTrack) {
        const auto &[core, sid, gen] = key;
        tid = core == lastCore ? tid + 1 : 0;
        lastCore = core;
        w.beginObject();
        w.kv("name", "thread_name");
        w.kv("ph", "M");
        w.kv("pid", static_cast<int>(core));
        w.kv("tid", tid);
        // Not `"s" + std::to_string(sid)`: gcc 12 at -O3 flags that
        // with a false -Wrestrict.
        std::string name = "s";
        name += std::to_string(sid) + " gen " + std::to_string(gen);
        w.beginObject("args");
        w.kv("name", name);
        w.endObject();
        w.endObject();
        for (size_t i = 0; i < evs.size(); ++i) {
            const StreamEvent &e = *evs[i];
            if (i + 1 < evs.size() && e.phase != StreamPhase::End) {
                writeEvent(w, e, tid, "X", evs[i + 1]->tick - e.tick);
            } else {
                // Final transition, or an end that a later incarnation
                // which never floated shares the track with: an
                // instant marker.
                writeEvent(w, e, tid, "i", 0);
            }
        }
    }

    w.endArray();
    w.endObject();
    os << "\n";
}

} // namespace trace
} // namespace sf
