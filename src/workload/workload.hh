/**
 * @file
 * Workload interface: each benchmark allocates and initializes its
 * dataset in the shared address space, then produces one OpSource per
 * hardware thread (OpenMP-style static partitioning with barriers).
 *
 * Datasets follow Table IV structurally; the `scale` parameter shrinks
 * them uniformly so full sweeps finish in reasonable wall-clock time
 * (see DESIGN.md substitutions). `useStreams` selects between the
 * stream-specialized binary (SS/SF machines) and the plain binary
 * (Base and prefetcher machines) - the same role the paper's compiler
 * flag plays.
 */

#ifndef SF_WORKLOAD_WORKLOAD_HH
#define SF_WORKLOAD_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "isa/op_source.hh"
#include "mem/phys_mem.hh"
#include "verify/region.hh"

namespace sf {
namespace workload {

struct WorkloadParams
{
    int numThreads = 16;
    /** Uniform dataset scale: 1.0 = paper-size (Table IV). */
    double scale = 0.1;
    /** Emit decoupled-stream ops (SS/SF) vs plain loads (baselines). */
    bool useStreams = false;
    /** SIMD width in 4-byte elements (AVX-512 = 16). */
    int vecElems = 16;
    uint64_t seed = 12345;
};

/** One benchmark. */
class Workload
{
  public:
    explicit Workload(const WorkloadParams &p) : params(p) {}
    virtual ~Workload() = default;

    /** Allocate and initialize the dataset. Called exactly once. */
    virtual void init(mem::AddressSpace &as) = 0;

    /** Create the op source for thread @p tid. */
    virtual std::shared_ptr<isa::OpSource> makeThread(int tid) = 0;

    /**
     * Named dataset arrays, for --verify divergence diagnostics
     * ("which array went bad"). Valid after init().
     */
    virtual std::vector<verify::MemRegion> verifyRegions() const
    {
        return {};
    }

    std::vector<std::shared_ptr<isa::OpSource>>
    makeAllThreads()
    {
        std::vector<std::shared_ptr<isa::OpSource>> v;
        for (int t = 0; t < params.numThreads; ++t)
            v.push_back(makeThread(t));
        return v;
    }

    WorkloadParams params;

    /** Contiguous static partition [lo, hi) of @p n items for @p tid. */
    void
    chunk(uint64_t n, int tid, uint64_t &lo, uint64_t &hi) const
    {
        uint64_t t = static_cast<uint64_t>(params.numThreads);
        lo = n * static_cast<uint64_t>(tid) / t;
        hi = n * static_cast<uint64_t>(tid + 1) / t;
    }

    /** Scale a paper-size dimension, keeping a sane floor. */
    uint64_t
    scaled(uint64_t paper_size, uint64_t floor_size = 64) const
    {
        auto v = static_cast<uint64_t>(
            static_cast<double>(paper_size) * params.scale);
        return std::max(v, floor_size);
    }
};

/** Factory over the 12 evaluated benchmarks (Table IV). */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadParams &params);

/** Names of all 12 benchmarks, in the paper's figure order. */
const std::vector<std::string> &workloadNames();

/** @p value if makeWorkload() takes it; else a UsageError naming @p flag. */
std::string parseWorkloadName(const std::string &value,
                              const std::string &flag);

} // namespace workload
} // namespace sf

#endif // SF_WORKLOAD_WORKLOAD_HH
