/**
 * @file
 * Lightweight counter/accumulator statistics used by every hardware model.
 *
 * Each unit owns its own stats struct; this header only provides the
 * shared primitives (a named-counter registry used by integration tests
 * and a streaming histogram used by the DRAM-distribution experiment,
 * Fig. 19).
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
 * Streaming scalar summary: count / sum / min / max / mean, plus the raw
 * samples so distribution plots (violin-style, Fig. 19) can be rebuilt.
 */
class Summary
{
  public:
    void
    record(double v)
    {
        samples.push_back(v);
        total += v;
        scratchStale = true;
        if (samples.size() == 1) {
            lo = hi = v;
        } else {
            if (v < lo) lo = v;
            if (v > hi) hi = v;
        }
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

    std::size_t count() const { return samples.size(); }
    double sum() const { return total; }
    double min() const { return lo; }
    double max() const { return hi; }

    double
    mean() const
    {
        return samples.empty() ? 0.0
                               : total / static_cast<double>(samples.size());
    }

    /** p in [0,1]; nearest-rank percentile over recorded samples.
     *  Selection (nth_element) over a reused scratch buffer — O(n) per
     *  call instead of the former copy + full sort per call, and byte-
     *  identical: the element at a given sorted rank is the same
     *  whichever algorithm places it there. */
    double percentile(double p) const;

    const std::vector<double> &data() const { return samples; }

  private:
    std::vector<double> samples;
    /** Selection workspace, refreshed lazily whenever the sample set
     *  changed (the explicit dirty flag below — a size comparison
     *  would miss same-size mutations such as clear()+re-record or a
     *  merge() that lands back on a previous size). Its ordering
     *  between calls is irrelevant (rank selection over a multiset of
     *  values is permutation-invariant). */
    mutable std::vector<double> scratch;
    /** True whenever `samples` changed since scratch last mirrored
     *  it; every mutation path must set it. */
    mutable bool scratchStale = true;
    double total = 0.0;
    double lo = 0.0;
    double hi = 0.0;
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
