#include "mapping/knn.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "core/logging.hpp"
#include "mapping/spatial_grid.hpp"

namespace pointacc {

namespace {

/**
 * Target points per grid cell for a search keeping k neighbours: about
 * half of k, so the home cell and its first ring usually hold the k
 * nearest, with a floor so that a small k does not make a grid of
 * near-empty cells.
 */
std::size_t
searchCellPoints(std::size_t k)
{
    return std::max<std::size_t>(k / 2, 8);
}

/**
 * The k nearest `input` points of every query among those within
 * squared radius `radius2`, ordered by (distance, index).
 *
 * Each query searches rings of grid cells outward from its own cell
 * (clamped into the grid), ring r being the cells at Chebyshev cell
 * distance r. A point enters the sorted top-k buffer only if it comes
 * before the current k-th in (distance, index) order, so visiting
 * cells out of index order still keeps the first k of that order.
 *
 * A cell whose box is farther than the reach is skipped, and the search
 * stops once every unvisited cell is. Without a radius every point is a
 * candidate, so the reach is the k-th distance once k are held. A ball
 * query must count every in-radius point, so its reach is the radius.
 * Both comparisons are strict: a point at exactly the k-th distance can
 * still enter on a lower index.
 *
 * `innerCounts[s]` (when given) gains, over all queries, the points
 * within the squared radius `innerRadii2[s]`, each at most radius2: the
 * in-radius counts of a multi-scale ball query's smaller scales.
 */
std::vector<NeighborList>
nearestWithin(const PointCloud &input, const PointCloud &queries,
              std::size_t k, std::int64_t radius2,
              const std::vector<std::int64_t> &innerRadii2 = {},
              std::uint64_t *innerCounts = nullptr)
{
    const std::size_t n = input.size();
    k = std::min(k, n); // no list holds more than the whole input
    std::vector<NeighborList> result(queries.size());
    if (n == 0 || queries.empty())
        return result;
    const std::size_t inner = innerRadii2.size();

    const SpatialGrid grid(input, queries, searchCellPoints(k));
    const bool countsEveryPoint =
        radius2 == std::numeric_limits<std::int64_t>::max();
    std::vector<std::int64_t> topD(k);
    std::vector<PointIndex> topI(k);
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const Coord3 &qc = queries.coord(static_cast<PointIndex>(q));
        const std::array<std::int64_t, 3> qa = {qc.x, qc.y, qc.z};
        const std::array<std::int64_t, 3> home = {
            grid.column(0, qc.x), grid.column(1, qc.y),
            grid.column(2, qc.z)};
        std::size_t m = 0;
        std::uint64_t candidates = 0;
        std::int64_t reach = radius2;

        const auto visit = [&](std::size_t cell) {
            const std::uint32_t begin = grid.start[cell];
            const std::uint32_t end = grid.start[cell + 1];
            if (begin == end || boxDistance2(grid.box[cell], qc) > reach)
                return;
            for (std::uint32_t j = begin; j < end; ++j) {
                const std::int64_t dx = std::int64_t{grid.xs[j]} - qc.x;
                const std::int64_t dy = std::int64_t{grid.ys[j]} - qc.y;
                const std::int64_t dz = std::int64_t{grid.zs[j]} - qc.z;
                const std::int64_t d = dx * dx + dy * dy + dz * dz;
                if (d > radius2)
                    continue;
                ++candidates;
                for (std::size_t s = 0; s < inner; ++s)
                    innerCounts[s] += d <= innerRadii2[s];
                const PointIndex i = grid.index[j];
                if (m == k) {
                    if (d > topD[k - 1] ||
                        (d == topD[k - 1] && i > topI[k - 1]))
                        continue;
                    --m; // the current k-th falls out
                }
                std::size_t t = m++;
                for (; t > 0 && (topD[t - 1] > d ||
                                 (topD[t - 1] == d && topI[t - 1] > i));
                     --t) {
                    topD[t] = topD[t - 1];
                    topI[t] = topI[t - 1];
                }
                topD[t] = d;
                topI[t] = i;
                if (countsEveryPoint && m == k)
                    reach = topD[k - 1];
            }
        };

        for (std::int64_t r = 0;; ++r) {
            // Ring r: the cells of the (2r+1)^3 cube around home, clipped
            // to the grid, that lie on the cube's surface.
            const std::int64_t x0 = std::max<std::int64_t>(home[0] - r, 0);
            const std::int64_t x1 = std::min(home[0] + r, grid.dims[0] - 1);
            const std::int64_t y0 = std::max<std::int64_t>(home[1] - r, 0);
            const std::int64_t y1 = std::min(home[1] + r, grid.dims[1] - 1);
            const std::int64_t z0 = std::max<std::int64_t>(home[2] - r, 0);
            const std::int64_t z1 = std::min(home[2] + r, grid.dims[2] - 1);
            for (std::int64_t ix = x0; ix <= x1; ++ix) {
                const bool xFace = ix == home[0] - r || ix == home[0] + r;
                for (std::int64_t iy = y0; iy <= y1; ++iy) {
                    if (xFace || iy == home[1] - r || iy == home[1] + r) {
                        for (std::int64_t iz = z0; iz <= z1; ++iz)
                            visit(grid.cellAt(ix, iy, iz));
                    } else {
                        // Inside the cube's x-y outline only the two z
                        // faces belong to the ring.
                        if (home[2] - r >= 0)
                            visit(grid.cellAt(ix, iy, home[2] - r));
                        if (home[2] + r < grid.dims[2])
                            visit(grid.cellAt(ix, iy, home[2] + r));
                    }
                }
            }

            // Every unvisited cell lies beyond one face of the cube that
            // still has grid cells behind it; `below` and `above` are the
            // nearest coordinates past the cube's two faces on an axis.
            std::int64_t bound = std::numeric_limits<std::int64_t>::max();
            for (int a = 0; a < 3; ++a) {
                const std::int64_t below =
                    grid.origin[a] + (home[a] - r) * grid.cellSize - 1;
                const std::int64_t above =
                    grid.origin[a] + (home[a] + r + 1) * grid.cellSize;
                if (home[a] - r > 0)
                    bound = std::min(bound, (qa[a] - below) * (qa[a] - below));
                if (home[a] + r < grid.dims[a] - 1)
                    bound = std::min(bound, (above - qa[a]) * (above - qa[a]));
            }
            if (bound == std::numeric_limits<std::int64_t>::max() ||
                bound > reach)
                break;
        }

        NeighborList &list = result[q];
        list.distances2.assign(topD.begin(), topD.begin() + m);
        list.indices.assign(topI.begin(), topI.begin() + m);
        list.candidates = countsEveryPoint ? n : candidates;
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

BallQueryResult
ballQuery(const PointCloud &input, const PointCloud &queries,
          const std::vector<BallScale> &scales)
{
    simAssert(!scales.empty(), "ball query requires a scale");
    std::size_t maxK = 0;
    std::int64_t maxRadius2 = 0;
    for (const auto &scale : scales) {
        simAssert(scale.k >= 1, "ball query requires k >= 1");
        maxK = std::max(maxK, static_cast<std::size_t>(scale.k));
        maxRadius2 = std::max(maxRadius2, scale.radius2);
    }
    // The walk counts the largest radius per query; every smaller
    // radius is counted over all queries beside it.
    std::vector<std::int64_t> innerRadii2;
    for (const auto &scale : scales)
        if (scale.radius2 < maxRadius2)
            innerRadii2.push_back(scale.radius2);
    std::vector<std::uint64_t> innerCounts(innerRadii2.size(), 0);

    BallQueryResult result;
    result.lists = nearestWithin(input, queries, maxK, maxRadius2,
                                 innerRadii2, innerCounts.data());
    std::uint64_t outer = 0;
    for (const auto &list : result.lists)
        outer += list.candidates;
    std::size_t next = 0;
    for (const auto &scale : scales)
        result.survivors.push_back(scale.radius2 < maxRadius2
                                       ? innerCounts[next++]
                                       : outer);
    return result;
}

std::vector<NeighborList>
ballQuery(const PointCloud &input, const PointCloud &queries, int k,
          std::int64_t radius2)
{
    return ballQuery(input, queries, {BallScale{k, radius2}}).lists;
}

MapSet
neighborsToMaps(const std::vector<NeighborList> &lists, int k,
                std::int64_t radius2)
{
    // Each list keeps its first `kept[q]` entries; rank n's group holds
    // one map per list that keeps more than n.
    std::vector<std::uint32_t> kept(lists.size());
    std::vector<std::size_t> ranks(static_cast<std::size_t>(k) + 1, 0);
    for (std::size_t q = 0; q < lists.size(); ++q) {
        const auto &d = lists[q].distances2;
        const std::size_t inRadius = static_cast<std::size_t>(
            std::upper_bound(d.begin(), d.end(), radius2) - d.begin());
        kept[q] = static_cast<std::uint32_t>(
            std::min(inRadius, static_cast<std::size_t>(k)));
        ++ranks[kept[q]];
    }
    MapSet maps(k);
    std::size_t longer = lists.size();
    for (std::int32_t n = 0; n < k; ++n) {
        longer -= ranks[static_cast<std::size_t>(n)];
        maps.reserveWeight(n, longer);
    }
    for (std::size_t q = 0; q < lists.size(); ++q) {
        const auto &list = lists[q];
        for (std::uint32_t n = 0; n < kept[q]; ++n) {
            maps.add(Map{list.indices[n], static_cast<PointIndex>(q),
                         static_cast<std::int32_t>(n)});
        }
    }
    return maps;
}

} // namespace pointacc
