/**
 * @file
 * Benchmark factory (Table IV).
 */

#include "workload/workload.hh"

#include "sim/arg_parse.hh"
#include "sim/logging.hh"
#include "workload/kernels.hh"

namespace sf {
namespace workload {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "conv3d", "mv",      "b+tree",         "bfs",
        "cfd",    "hotspot", "hotspot3D",      "nn",
        "nw",     "particlefilter", "pathfinder", "srad",
    };
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadParams &params)
{
    if (name == "conv3d")
        return makeConv3d(params);
    if (name == "mv")
        return makeMv(params);
    if (name == "b+tree" || name == "btree")
        return makeBtree(params);
    if (name == "bfs")
        return makeBfs(params);
    if (name == "cfd")
        return makeCfd(params);
    if (name == "hotspot")
        return makeHotspot(params);
    if (name == "hotspot3D" || name == "hotspot3d")
        return makeHotspot3D(params);
    if (name == "nn")
        return makeNn(params);
    if (name == "nw")
        return makeNw(params);
    if (name == "particlefilter")
        return makeParticlefilter(params);
    if (name == "pathfinder")
        return makePathfinder(params);
    if (name == "srad")
        return makeSrad(params);
    fatal("unknown workload '%s'", name.c_str());
}

std::string
parseWorkloadName(const std::string &value, const std::string &flag)
{
    std::string list;
    for (const std::string &n : workloadNames()) {
        if (n == value)
            return value;
        list += (list.empty() ? "" : ", ") + n;
    }
    // The two aliases makeWorkload() also accepts.
    if (value == "btree" || value == "hotspot3d")
        return value;
    throw UsageError(flag + " must be one of " + list + ", got '" + value +
                     "'");
}

} // namespace workload
} // namespace sf
