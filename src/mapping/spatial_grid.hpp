/**
 * @file
 * SpatialGrid: the uniform grid index behind farthest point sampling,
 * kNN and ball query (internal to src/mapping).
 *
 * The grid covers one cloud's bounding box with cubic cells of a single
 * edge length, chosen so that there are at most about
 * size / pointsPerCell cells. A counting sort lays the points out cell
 * by cell as struct-of-arrays int32 coordinates plus each point's
 * original index. Cells are dense and row-major (x slowest, z fastest),
 * each lists its points in ascending original index, and each carries
 * the tight bounding box of its points. The searches use those boxes as
 * lower bounds on the distance to everything in a cell, so they skip
 * cells exactly, never approximately.
 */

#ifndef POINTACC_MAPPING_SPATIAL_GRID_HPP
#define POINTACC_MAPPING_SPATIAL_GRID_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/point_cloud.hpp"

namespace pointacc {

/**
 * Largest per-axis coordinate extent a search accepts. Squared distances
 * are int64 sums of three squared int32 differences: at 2^30 per axis
 * each term is at most 2^60, so neither the differences nor the sum can
 * overflow.
 */
inline constexpr std::int64_t kMaxSearchExtent = std::int64_t{1} << 30;

/** Squared distance from `c` to the nearest point of `box` (0 inside). */
inline std::int64_t
boxDistance2(const BoundingBox &box, const Coord3 &c)
{
    const auto gap = [](std::int64_t v, std::int64_t lo, std::int64_t hi) {
        return v < lo ? lo - v : (v > hi ? v - hi : 0);
    };
    const std::int64_t dx = gap(c.x, box.lo.x, box.hi.x);
    const std::int64_t dy = gap(c.y, box.lo.y, box.hi.y);
    const std::int64_t dz = gap(c.z, box.lo.z, box.hi.z);
    return dx * dx + dy * dy + dz * dz;
}

struct SpatialGrid
{
    /**
     * Bin `cloud` into at most about cloud.size() / pointsPerCell cells.
     *
     * `queries` are the points the caller will take distances from; the
     * constructor asserts that `cloud` and `queries` together span at
     * most kMaxSearchExtent per axis.
     */
    SpatialGrid(const PointCloud &cloud, const PointCloud &queries,
                std::size_t pointsPerCell);

    /** Dense index of cell (ix, iy, iz). */
    std::size_t
    cellAt(std::int64_t ix, std::int64_t iy, std::int64_t iz) const
    {
        return static_cast<std::size_t>((ix * dims[1] + iy) * dims[2] + iz);
    }

    /** Cell column of coordinate `v` on `axis`, clamped into the grid. */
    std::int64_t
    column(int axis, std::int64_t v) const
    {
        const std::int64_t off = v - origin[axis];
        if (off < 0)
            return 0;
        return std::min(off / cellSize, dims[axis] - 1);
    }

    std::size_t numCells() const { return box.size(); }

    /** Lowest coordinate of the grid on each axis. */
    std::array<std::int64_t, 3> origin{};
    /** Cells per axis. */
    std::array<std::int64_t, 3> dims{1, 1, 1};
    /** Edge length of every cell. */
    std::int64_t cellSize = 1;

    /** Points in cell order: coordinates and original indices. */
    std::vector<std::int32_t> xs, ys, zs;
    std::vector<PointIndex> index;
    /** Cell c holds points [start[c], start[c + 1]). */
    std::vector<std::uint32_t> start;
    /** Tight bounding box of each non-empty cell's points. */
    std::vector<BoundingBox> box;
};

} // namespace pointacc

#endif // POINTACC_MAPPING_SPATIAL_GRID_HPP
