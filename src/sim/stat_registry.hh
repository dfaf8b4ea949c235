/**
 * @file
 * Global statistics registry: a named collection of StatGroups that can
 * be walked as a whole, the equivalent of gem5's flat stats file.
 *
 * Components keep owning their counters; a registry is (re)built by
 * whoever assembles the system (TiledSystem) and rendered either as the
 * classic text dump or as schema-versioned JSON for machine-readable
 * figure pipelines.
 */

#ifndef SF_SIM_STAT_REGISTRY_HH
#define SF_SIM_STAT_REGISTRY_HH

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/stats.hh"

namespace sf {
namespace stats {

/** Schema identifier stamped into every JSON stat dump. */
constexpr const char *jsonSchemaName = "sf-stats";
constexpr int jsonSchemaVersion = 1;

class StatRegistry
{
  public:
    /** Create (or fetch) the group with this name; address is stable. */
    StatGroup &
    group(const std::string &name)
    {
        for (auto &g : _groups) {
            if (g->name() == name)
                return *g;
        }
        _groups.push_back(std::make_unique<StatGroup>(name));
        return *_groups.back();
    }

    const StatGroup *
    find(const std::string &name) const
    {
        for (auto &g : _groups) {
            if (g->name() == name)
                return g.get();
        }
        return nullptr;
    }

    size_t size() const { return _groups.size(); }

    /** Visit every group in registration order. */
    void
    forEachGroup(const std::function<void(const StatGroup &)> &fn) const
    {
        for (const auto &g : _groups)
            fn(*g);
    }

    /** Classic flat text dump of every registered group. */
    void
    dump(std::ostream &os) const
    {
        for (const auto &g : _groups)
            g->dump(os);
    }

    /**
     * Emit every group as one JSON object keyed by group name. The
     * writer must be positioned inside an open object; this adds one
     * "groups" member.
     */
    void
    dumpJson(json::Writer &w) const
    {
        w.beginObject("groups");
        for (const auto &g : _groups) {
            w.beginObject(g->name());
            for (const auto &[n, s] : g->scalars())
                w.kv(n, s->value());
            for (const auto &[n, h] : g->histograms()) {
                w.beginObject(n);
                w.kv("count", h->count());
                w.kv("mean", h->mean());
                w.kv("bucketWidth", h->bucketWidth());
                w.beginArray("buckets");
                for (uint64_t b : h->buckets())
                    w.value(b);
                w.endArray();
                w.endObject();
            }
            for (const auto &[n, f] : g->formulas())
                w.kv(n, f());
            w.endObject();
        }
        w.endObject();
    }

  private:
    std::vector<std::unique_ptr<StatGroup>> _groups;
};

} // namespace stats
} // namespace sf

#endif // SF_SIM_STAT_REGISTRY_HH
