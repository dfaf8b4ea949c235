/**
 * @file
 * Lightweight statistics package.
 *
 * Components own Scalar / Formula-style statistics registered with a
 * StatGroup; a SimResults-style consumer can walk the registry or read
 * individual counters directly. This is a deliberately small subset of
 * gem5's stats package: scalars, histograms and formulas.
 */

#ifndef SF_SIM_STATS_HH
#define SF_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace sf {
namespace stats {

/** A monotonically increasing 64-bit counter. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { ++_value; return *this; }
    Scalar &operator+=(uint64_t v) { _value += v; return *this; }
    void reset() { _value = 0; }

    uint64_t value() const { return _value; }
    operator uint64_t() const { return _value; }

  private:
    uint64_t _value = 0;
};

/** Fixed-bucket histogram over [0, max) plus an overflow bucket. */
class Histogram
{
  public:
    Histogram(uint64_t bucket_width = 1, size_t num_buckets = 16)
        : _width(bucket_width ? bucket_width : 1),
          _buckets(num_buckets + 1, 0)
    {}

    void
    sample(uint64_t v)
    {
        size_t idx = v / _width;
        if (idx >= _buckets.size() - 1)
            idx = _buckets.size() - 1;
        ++_buckets[idx];
        ++_count;
        _sum += v;
    }

    uint64_t count() const { return _count; }
    double mean() const { return _count ? double(_sum) / _count : 0.0; }
    const std::vector<uint64_t> &buckets() const { return _buckets; }
    uint64_t bucketWidth() const { return _width; }

  private:
    uint64_t _width;
    std::vector<uint64_t> _buckets;
    uint64_t _count = 0;
    uint64_t _sum = 0;
};

/**
 * A named collection of statistics. Components register their counters
 * so a report can be emitted without each experiment hand-walking
 * component internals.
 */
class StatGroup
{
  public:
    /** A derived statistic evaluated lazily at dump time. */
    using Formula = std::function<double()>;

    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    void
    regScalar(const std::string &stat_name, const Scalar *stat)
    {
        _scalars.emplace(stat_name, stat);
    }

    void
    regHistogram(const std::string &stat_name, const Histogram *stat)
    {
        _histograms.emplace(stat_name, stat);
    }

    void
    regFormula(const std::string &stat_name, Formula f)
    {
        _formulas.emplace(stat_name, std::move(f));
    }

    const std::string &name() const { return _name; }

    /** Look up a scalar by name; nullptr when missing. */
    const Scalar *
    findScalar(const std::string &stat_name) const
    {
        auto it = _scalars.find(stat_name);
        return it == _scalars.end() ? nullptr : it->second;
    }

    /** Look up a histogram by name; nullptr when missing. */
    const Histogram *
    findHistogram(const std::string &stat_name) const
    {
        auto it = _histograms.find(stat_name);
        return it == _histograms.end() ? nullptr : it->second;
    }

    void
    dump(std::ostream &os) const
    {
        for (const auto &[n, s] : _scalars)
            os << _name << "." << n << " " << s->value() << "\n";
        for (const auto &[n, h] : _histograms) {
            os << _name << "." << n << ".count " << h->count() << "\n";
            os << _name << "." << n << ".mean " << h->mean() << "\n";
            os << _name << "." << n << ".buckets";
            for (uint64_t b : h->buckets())
                os << " " << b;
            os << "\n";
        }
        for (const auto &[n, f] : _formulas)
            os << _name << "." << n << " " << f() << "\n";
    }

    // --- iteration for registry walkers (JSON export etc.) ---
    const std::map<std::string, const Scalar *> &
    scalars() const { return _scalars; }
    const std::map<std::string, const Histogram *> &
    histograms() const { return _histograms; }
    const std::map<std::string, Formula> &
    formulas() const { return _formulas; }

  private:
    std::string _name;
    std::map<std::string, const Scalar *> _scalars;
    std::map<std::string, const Histogram *> _histograms;
    std::map<std::string, Formula> _formulas;
};

} // namespace stats
} // namespace sf

#endif // SF_SIM_STATS_HH
