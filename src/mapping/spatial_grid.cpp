#include "mapping/spatial_grid.hpp"

#include "core/logging.hpp"

namespace pointacc {

SpatialGrid::SpatialGrid(const PointCloud &cloud, const PointCloud &queries,
                         std::size_t pointsPerCell)
{
    const std::size_t n = cloud.size();
    const BoundingBox cb = cloud.boundingBox();

    BoundingBox span = cloud.empty() ? queries.boundingBox() : cb;
    if (!cloud.empty() && !queries.empty()) {
        const BoundingBox qb = queries.boundingBox();
        span.lo = {std::min(span.lo.x, qb.lo.x), std::min(span.lo.y, qb.lo.y),
                   std::min(span.lo.z, qb.lo.z)};
        span.hi = {std::max(span.hi.x, qb.hi.x), std::max(span.hi.y, qb.hi.y),
                   std::max(span.hi.z, qb.hi.z)};
    }
    const auto within = [](std::int32_t lo, std::int32_t hi) {
        return std::int64_t{hi} - lo <= kMaxSearchExtent;
    };
    simAssert(within(span.lo.x, span.hi.x) && within(span.lo.y, span.hi.y) &&
                  within(span.lo.z, span.hi.z),
              "coordinate extent above 2^30 per axis: squared distances "
              "would overflow");

    origin = {cb.lo.x, cb.lo.y, cb.lo.z};
    const std::array<std::int64_t, 3> extent = {
        std::int64_t{cb.hi.x} - cb.lo.x, std::int64_t{cb.hi.y} - cb.lo.y,
        std::int64_t{cb.hi.z} - cb.lo.z};

    // The smallest cell edge whose grid has at most `target` cells. The
    // count is non-increasing in the edge, and an edge above the extent
    // leaves one cell, so a binary search finds it.
    const std::int64_t target = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(n / std::max<std::size_t>(
                                             1, pointsPerCell)));
    const auto fits = [&](std::int64_t edge) {
        std::int64_t cells = 1;
        for (const std::int64_t e : extent) {
            cells *= e / edge + 1;
            if (cells > target)
                return false;
        }
        return true;
    };
    std::int64_t lo = 1;
    std::int64_t hi = kMaxSearchExtent + 1;
    while (lo < hi) {
        const std::int64_t mid = lo + (hi - lo) / 2;
        if (fits(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    cellSize = lo;
    for (int a = 0; a < 3; ++a)
        dims[a] = extent[a] / cellSize + 1;

    // Counting sort by cell. Points are placed in index order, so every
    // cell lists its points in ascending index.
    const std::size_t cells =
        static_cast<std::size_t>(dims[0] * dims[1] * dims[2]);
    std::vector<std::uint32_t> cellOf(n);
    start.assign(cells + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const Coord3 &c = cloud.coord(static_cast<PointIndex>(i));
        cellOf[i] = static_cast<std::uint32_t>(
            cellAt(column(0, c.x), column(1, c.y), column(2, c.z)));
        ++start[cellOf[i] + 1];
    }
    for (std::size_t c = 0; c < cells; ++c)
        start[c + 1] += start[c];

    xs.resize(n);
    ys.resize(n);
    zs.resize(n);
    index.resize(n);
    std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
        const Coord3 &c = cloud.coord(static_cast<PointIndex>(i));
        const std::uint32_t j = fill[cellOf[i]]++;
        xs[j] = c.x;
        ys[j] = c.y;
        zs[j] = c.z;
        index[j] = static_cast<PointIndex>(i);
    }

    box.resize(cells);
    for (std::size_t c = 0; c < cells; ++c) {
        if (start[c] == start[c + 1])
            continue;
        BoundingBox &b = box[c];
        const std::uint32_t first = start[c];
        b.lo = b.hi = {xs[first], ys[first], zs[first]};
        for (std::uint32_t j = first + 1; j < start[c + 1]; ++j) {
            b.lo = {std::min(b.lo.x, xs[j]), std::min(b.lo.y, ys[j]),
                    std::min(b.lo.z, zs[j])};
            b.hi = {std::max(b.hi.x, xs[j]), std::max(b.hi.y, ys[j]),
                    std::max(b.hi.z, zs[j])};
        }
    }
}

} // namespace pointacc
