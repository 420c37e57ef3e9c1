/**
 * @file
 * k-nearest-neighbors and ball query: neighbor search for
 * PointNet++-based convolutions (Section 2.1.2).
 *
 * For every output (query) point, the k closest input points are
 * selected; ball query additionally requires them to lie inside a
 * sphere of radius r. The lists of all queries are held as columns
 * (Neighbors), so a search allocates per call, never per query.
 * neighborsToMaps turns them into a MapSet whose weight index n is the
 * neighbor's rank (0..k-1), since PointNet++-style aggregation treats
 * each neighbor slot uniformly but the MapSet still needs a stable
 * grouping.
 */

#ifndef POINTACC_MAPPING_KNN_HPP
#define POINTACC_MAPPING_KNN_HPP

#include <limits>
#include <vector>

#include "core/point_cloud.hpp"
#include "mapping/maps.hpp"

namespace pointacc {

/**
 * The neighbor lists of a query cloud, as columns: query q's list is
 * entries [offsets[q], offsets[q + 1]) of `indices` (input points) and
 * `distances2` (their squared distances), ordered by (distance, index).
 */
struct Neighbors
{
    /** One entry per query, plus one. */
    std::vector<std::size_t> offsets{0};
    std::vector<PointIndex> indices;
    std::vector<std::int64_t> distances2;

    std::size_t queries() const { return offsets.size() - 1; }

    friend bool
    operator==(const Neighbors &a, const Neighbors &b)
    {
        return a.offsets == b.offsets && a.indices == b.indices &&
               a.distances2 == b.distances2;
    }
};

/**
 * Exact kNN of each `queries` point in `input`.
 *
 * The Mapping Unit computes every distance and keeps the top k
 * (MappingUnit::kNearestNeighbors). This functional version returns the
 * same lists from a spatial grid over `input`: each query searches rings
 * of cells outward from its own until the k-th distance is strictly
 * below the distance to every unvisited cell. Ties on distance break
 * toward the lower input index so results are bit-identical to the
 * hardware sorter (stable comparisons).
 *
 * `input` and `queries` together may span at most 2^30 per axis, so
 * squared distances cannot overflow (asserted).
 *
 * @param input    searched cloud
 * @param queries  query cloud
 * @param k        neighbors per query (clamped to input size)
 */
Neighbors kNearestNeighbors(const PointCloud &input,
                            const PointCloud &queries, int k);

/** One scale of a ball query: k neighbours within squared radius
 *  radius2. */
struct BallScale
{
    int k = 1;
    std::int64_t radius2 = 0;
};

/** Neighbours of a multi-scale ball query. */
struct BallQueryResult
{
    /** Per query: the max-k nearest input points within the largest
     *  radius, ordered by (distance, index). */
    Neighbors lists;
    /** Per scale, in order: the in-radius points at its radius, summed
     *  over queries (its TopK survivors). */
    std::vector<std::uint64_t> survivors;
};

/**
 * Ball query: kNN constrained to a squared radius, at one or more
 * scales over the same input and queries (PointNet++ MSG). One grid
 * walk at the largest radius keeps the top max-k by (distance, index)
 * and counts the in-radius points of every scale. The in-radius points
 * of a smaller radius come first in (distance, index) order, so scale
 * s's own ball query is exactly each list cut at its radius and then
 * at its k: neighborsToMaps(lists, k_s, radius2_s). Queries with fewer
 * than k in-ball neighbors get short lists (the functional convolution
 * layers then re-use the closest neighbor for padding, as PointNet++
 * does). Only grid cells that meet the ball are searched. Same extent
 * limit as kNN.
 */
BallQueryResult ballQuery(const PointCloud &input, const PointCloud &queries,
                          const std::vector<BallScale> &scales);

/**
 * Convert neighbor lists to a MapSet with weight = neighbor rank,
 * keeping of each list the entries within squared radius `radius2`
 * and of those the first k. Each rank's group is reserved to its exact
 * size and holds its maps in ascending query order.
 */
MapSet neighborsToMaps(const Neighbors &lists, int k,
                       std::int64_t radius2 =
                           std::numeric_limits<std::int64_t>::max());

} // namespace pointacc

#endif // POINTACC_MAPPING_KNN_HPP
