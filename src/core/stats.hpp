/**
 * @file
 * Lightweight counter/accumulator statistics used by every hardware model.
 *
 * Each unit owns its own stats struct; this header only provides the
 * shared primitives: a named-counter registry used by integration
 * tests, exact running moments, and a sample-keeping summary used by
 * the DRAM-distribution experiment (Fig. 19) and serving latencies.
 */

#ifndef POINTACC_CORE_STATS_HPP
#define POINTACC_CORE_STATS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pointacc {

/** A simple named 64-bit counter registry. */
class StatRegistry
{
  public:
    void
    add(const std::string &name, std::uint64_t delta = 1)
    {
        counters[name] += delta;
    }

    std::uint64_t
    get(const std::string &name) const
    {
        const auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }

    void clear() { counters.clear(); }

    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters;
    }

  private:
    std::map<std::string, std::uint64_t> counters;
};

/**
 * Exact running moments of a scalar stream: count, sum, min and max,
 * with no samples kept. The sum accumulates in record() order and a
 * merge() adds the other stream's total in one step, so a fold gives
 * the same bits as a Summary fed the same calls (mean() included).
 * For a report field that no percentile reads.
 */
class Moments
{
  public:
    void
    record(double v)
    {
        total += v;
        if (n++ == 0) {
            lo = hi = v;
        } else {
            if (v < lo) lo = v;
            if (v > hi) hi = v;
        }
    }

    /** Fold another stream in, as if its values were record()ed here
     *  after ours: the totals add, min and max combine. */
    void merge(const Moments &other);

    /** Reset to the freshly constructed state. */
    void clear() { *this = Moments(); }

    std::size_t count() const { return n; }
    double sum() const { return total; }
    double min() const { return lo; }
    double max() const { return hi; }

    double
    mean() const
    {
        return n == 0 ? 0.0 : total / static_cast<double>(n);
    }

  private:
    std::size_t n = 0;
    double total = 0.0;
    double lo = 0.0;
    double hi = 0.0;
};

/**
 * Moments plus the raw samples, for nearest-rank percentiles and so
 * distribution plots (violin-style, Fig. 19) can be rebuilt.
 */
class Summary
{
  public:
    void
    record(double v)
    {
        samples.push_back(v);
        stats.record(v);
    }

    /** Fold another summary into this one, as if every sample of
     *  `other` had been record()ed here (append order: ours first,
     *  then other's — percentiles are permutation-invariant, so the
     *  merged summary equals a single-summary run over the union).
     *  The shard-merge primitive behind bench_simperf's per-shard
     *  event loops. */
    void merge(const Summary &other);

    /** Reset to the freshly constructed state (capacity retained). */
    void clear();

    std::size_t count() const { return stats.count(); }
    double sum() const { return stats.sum(); }
    double min() const { return stats.min(); }
    double max() const { return stats.max(); }
    double mean() const { return stats.mean(); }
    const Moments &moments() const { return stats; }

    /** p in [0,1]; nearest-rank percentile over recorded samples.
     *  Selection (nth_element) in place over the samples themselves:
     *  O(n) per call, no copy, and byte-identical to a sort — the
     *  element at a given sorted rank is the same whichever
     *  algorithm places it there. Reorders the samples, so a
     *  Summary must not be read from two threads at once. */
    double percentile(double p) const;

    /** The recorded samples as a multiset: in record order (then
     *  merge order) only until the first percentile() call, which
     *  permutes them. */
    const std::vector<double> &data() const { return samples; }

  private:
    mutable std::vector<double> samples;
    Moments stats;
};

/**
 * Geometric mean of a vector of strictly positive values (0 when
 * empty). Zero or negative samples throw std::invalid_argument: a
 * zero would silently collapse the mean to 0 through log(0) = -inf
 * and a negative would poison it with NaN, so a non-positive ratio
 * reaching this function is always a caller bug worth failing loudly.
 */
double geomean(const std::vector<double> &values);

} // namespace pointacc

#endif // POINTACC_CORE_STATS_HPP
