/**
 * @file
 * IntervalSampler: periodic snapshots of selected counters.
 *
 * End-of-run totals hide phase behaviour; the sampler wakes every N
 * cycles and appends one point per registered probe to an in-memory
 * time series, which the JSON stat dump embeds. Two probe kinds:
 *
 *  - value:  an instantaneous quantity sampled as-is (queue depth).
 *  - ratio:  delta(numerator) / delta(denominator) over the interval —
 *            the natural shape for IPC (ops/cycles), hit rates
 *            (hits/accesses) and utilizations (busy/available).
 */

#ifndef SF_SIM_INTERVAL_SAMPLER_HH
#define SF_SIM_INTERVAL_SAMPLER_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/sim_object.hh"

namespace sf {
namespace stats {

class IntervalSampler : public SimObject
{
  public:
    using Source = std::function<double()>;

    struct Series
    {
        std::string name;
        std::vector<double> values;
    };

    IntervalSampler(const std::string &name, EventQueue &eq,
                    Cycles interval)
        : SimObject(name, eq),
          _interval(interval ? interval : 1),
          _tick(eq)
    {}

    /** Sample fn() directly every interval. */
    void
    addValue(const std::string &series_name, Source fn)
    {
        _probes.push_back({std::move(fn), nullptr, 0.0, 0.0, false});
        _series.push_back({series_name, {}});
    }

    /**
     * Sample delta(numer)/delta(denom) over each interval; empty
     * intervals (delta denom == 0) record 0.
     */
    void
    addRatio(const std::string &series_name, Source numer, Source denom)
    {
        _probes.push_back(
            {std::move(numer), std::move(denom), 0.0, 0.0, true});
        _series.push_back({series_name, {}});
    }

    /** Fills the current cumulative totals, one entry per cell. */
    using MatrixSource = std::function<void(std::vector<uint64_t> &)>;

    struct MatrixSeries
    {
        std::string name;
        int rows;
        int cols;
        MatrixSource fn;
        std::vector<uint64_t> prev;
        /** One delta matrix (row-major) per sampled interval. */
        std::vector<std::vector<uint64_t>> frames;
    };

    /**
     * Sample a rows x cols matrix of cumulative counters every
     * interval, recording per-interval deltas (NoC heatmaps).
     */
    void
    addMatrix(const std::string &series_name, int rows, int cols,
              MatrixSource fn)
    {
        _matrices.push_back({series_name, rows, cols, std::move(fn),
                             std::vector<uint64_t>(
                                 size_t(rows) * size_t(cols), 0),
                             {}});
    }

    /** Begin sampling (first snapshot one interval from now). */
    void
    start()
    {
        if (_running)
            return;
        _running = true;
        for (auto &p : _probes) {
            p.prevNumer = p.numer();
            p.prevDenom = p.denom ? p.denom() : 0.0;
        }
        for (auto &m : _matrices)
            m.fn(m.prev);
        _tick.start(_interval, [this]() { sampleOnce(); },
                    EventPriority::Service);
    }

    /**
     * Stop sampling. When the sim length is not a multiple of the
     * interval, the tail cycles since the last snapshot are emitted
     * as one final partial sample instead of being dropped.
     */
    void
    stop()
    {
        if (_running && (_ticks.empty() || _ticks.back() != curTick()))
            sampleOnce();
        _running = false;
        _tick.stop();
    }

    Cycles interval() const { return _interval; }
    const std::vector<Tick> &ticks() const { return _ticks; }
    const std::vector<Series> &series() const { return _series; }
    const std::vector<MatrixSeries> &matrices() const
    {
        return _matrices;
    }

  private:
    struct Probe
    {
        Source numer;
        Source denom; //!< null for value probes
        double prevNumer;
        double prevDenom;
        bool isRatio;
    };

    void
    sampleOnce()
    {
        if (!_running)
            return;
        _ticks.push_back(curTick());
        for (size_t i = 0; i < _probes.size(); ++i) {
            Probe &p = _probes[i];
            double v;
            if (p.isRatio) {
                double n = p.numer();
                double d = p.denom();
                double dn = n - p.prevNumer;
                double dd = d - p.prevDenom;
                v = dd != 0.0 ? dn / dd : 0.0;
                p.prevNumer = n;
                p.prevDenom = d;
            } else {
                v = p.numer();
            }
            _series[i].values.push_back(v);
        }
        for (auto &m : _matrices) {
            std::vector<uint64_t> cur(m.prev.size(), 0);
            m.fn(cur);
            std::vector<uint64_t> delta(cur.size());
            for (size_t c = 0; c < cur.size(); ++c)
                delta[c] = cur[c] - m.prev[c];
            m.frames.push_back(std::move(delta));
            m.prev = std::move(cur);
        }
        // The recurring event re-queues itself for the next snapshot.
    }

    Cycles _interval;
    bool _running = false;
    std::vector<Probe> _probes;
    std::vector<Tick> _ticks;
    std::vector<Series> _series;
    std::vector<MatrixSeries> _matrices;
    /** Fixed-period snapshot; requeues its own node each interval. */
    RecurringEvent _tick;
};

} // namespace stats
} // namespace sf

#endif // SF_SIM_INTERVAL_SAMPLER_HH
