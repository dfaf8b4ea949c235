#include "sim/stream_trace.hh"

#include <algorithm>
#include <map>
#include <set>

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
writeEvent(json::Writer &w, const StreamEvent &e, const char *ph,
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
    w.kv("tid", static_cast<int>(e.gsid.sid));
    w.beginObject("args");
    w.kv("tick", e.tick);
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
    std::map<std::pair<TileId, StreamId>, std::vector<const StreamEvent *>>
        perStream;
    for (const StreamLog &log : logs) {
        for (const auto &e : log)
            perStream[{e.gsid.core, e.gsid.sid}].push_back(&e);
    }
    for (auto &[key, evs] : perStream) {
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
    for (const auto &[key, evs] : perStream)
        cores.insert(key.first);
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

    for (const auto &[key, evs] : perStream) {
        for (size_t i = 0; i < evs.size(); ++i) {
            const StreamEvent &e = *evs[i];
            if (i + 1 < evs.size()) {
                writeEvent(w, e, "X", evs[i + 1]->tick - e.tick);
            } else {
                // Final transition: an instant marker.
                writeEvent(w, e, "i", 0);
            }
        }
    }

    w.endArray();
    w.endObject();
    os << "\n";
}

} // namespace trace
} // namespace sf
