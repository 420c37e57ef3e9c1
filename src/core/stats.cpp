#include "core/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pointacc {

double
Summary::percentile(double p) const
{
    if (samples.empty())
        return 0.0;
    const double clamped = std::clamp(p, 0.0, 1.0);
    const auto rank = static_cast<std::size_t>(
        clamped * static_cast<double>(samples.size() - 1) + 0.5);
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(rank),
                     samples.end());
    return samples[rank];
}

void
Moments::merge(const Moments &other)
{
    if (other.n == 0)
        return;
    total += other.total;
    if (n == 0) {
        lo = other.lo;
        hi = other.hi;
    } else {
        lo = std::min(lo, other.lo);
        hi = std::max(hi, other.hi);
    }
    n += other.n;
}

void
Summary::merge(const Summary &other)
{
    samples.insert(samples.end(), other.samples.begin(),
                   other.samples.end());
    stats.merge(other.stats);
}

void
Summary::clear()
{
    samples.clear();
    stats.clear();
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            throw std::invalid_argument(
                "geomean: non-positive sample (geometric means are "
                "defined over strictly positive values)");
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

} // namespace pointacc
