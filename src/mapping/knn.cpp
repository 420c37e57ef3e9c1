#include "mapping/knn.hpp"

#include <algorithm>
#include <limits>

#include "core/logging.hpp"

namespace pointacc {

namespace {

/**
 * The k nearest `input` points of every query among those within
 * squared radius `radius2`.
 *
 * Points stream past in index order into a sorted top-k buffer: a point
 * enters only if it is strictly closer than the current k-th, and it is
 * placed after every kept point at the same distance. Ties therefore
 * keep the lower index, which is the first k of the (distance, index)
 * order.
 */
std::vector<NeighborList>
nearestWithin(const PointCloud &input, const PointCloud &queries,
              std::size_t k, std::int64_t radius2)
{
    const std::size_t n = input.size();
    k = std::min(k, n); // no list holds more than the whole input
    std::vector<std::int32_t> xs(n), ys(n), zs(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Coord3 &c = input.coord(static_cast<PointIndex>(i));
        xs[i] = c.x;
        ys[i] = c.y;
        zs[i] = c.z;
    }

    std::vector<NeighborList> result(queries.size());
    std::vector<std::int64_t> topD(k);
    std::vector<PointIndex> topI(k);
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const Coord3 &qc = queries.coord(static_cast<PointIndex>(q));
        std::size_t m = 0;
        std::uint64_t candidates = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::int64_t dx = std::int64_t{xs[i]} - qc.x;
            const std::int64_t dy = std::int64_t{ys[i]} - qc.y;
            const std::int64_t dz = std::int64_t{zs[i]} - qc.z;
            const std::int64_t d = dx * dx + dy * dy + dz * dz;
            if (d > radius2)
                continue;
            ++candidates;
            if (m == k) {
                if (d >= topD[k - 1])
                    continue;
                --m; // the current k-th falls out
            }
            std::size_t j = m++;
            for (; j > 0 && topD[j - 1] > d; --j) {
                topD[j] = topD[j - 1];
                topI[j] = topI[j - 1];
            }
            topD[j] = d;
            topI[j] = static_cast<PointIndex>(i);
        }
        NeighborList &list = result[q];
        list.distances2.assign(topD.begin(), topD.begin() + m);
        list.indices.assign(topI.begin(), topI.begin() + m);
        list.candidates = candidates;
    }
    return result;
}

} // namespace

std::vector<NeighborList>
kNearestNeighbors(const PointCloud &input, const PointCloud &queries, int k)
{
    simAssert(k >= 1, "kNN requires k >= 1");
    return nearestWithin(input, queries, static_cast<std::size_t>(k),
                         std::numeric_limits<std::int64_t>::max());
}

std::vector<NeighborList>
ballQuery(const PointCloud &input, const PointCloud &queries, int k,
          std::int64_t radius2)
{
    simAssert(k >= 1, "ball query requires k >= 1");
    return nearestWithin(input, queries, static_cast<std::size_t>(k),
                         radius2);
}

MapSet
neighborsToMaps(const std::vector<NeighborList> &lists, int k)
{
    MapSet maps(k);
    for (std::size_t q = 0; q < lists.size(); ++q) {
        const auto &list = lists[q];
        for (std::size_t n = 0; n < list.indices.size(); ++n) {
            maps.add(Map{list.indices[n], static_cast<PointIndex>(q),
                         static_cast<std::int32_t>(n)});
        }
    }
    return maps;
}

} // namespace pointacc
