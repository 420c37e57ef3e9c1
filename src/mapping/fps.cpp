#include "mapping/fps.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/logging.hpp"
#include "core/rng.hpp"
#include "mapping/spatial_grid.hpp"

namespace pointacc {

namespace {

/**
 * Target points per FPS block. Each sample costs one box test per block
 * plus a distance per point of every block it cannot rule out, so the
 * blocks trade the first cost against the second.
 */
constexpr std::size_t kFpsBlockPoints = 64;

/** A non-empty grid cell: its points [begin, end) in grid order. */
struct Block
{
    std::uint32_t begin;
    std::uint32_t end;
    BoundingBox box;
    /** Largest minDist in the block and the lowest index holding it. */
    std::int64_t best;
    PointIndex bestIdx;
};

} // namespace

std::vector<PointIndex>
farthestPointSampling(const PointCloud &cloud, std::size_t num_samples,
                      PointIndex first)
{
    const std::size_t n = cloud.size();
    num_samples = std::min(num_samples, n);
    std::vector<PointIndex> selected;
    if (num_samples == 0)
        return selected;
    simAssert(first >= 0 && static_cast<std::size_t>(first) < n,
              "FPS seed point out of range");

    selected.reserve(num_samples);
    selected.push_back(first);

    const SpatialGrid grid(cloud, cloud, kFpsBlockPoints);
    std::vector<Block> blocks;
    for (std::size_t c = 0; c < grid.numCells(); ++c) {
        if (grid.start[c] != grid.start[c + 1]) {
            blocks.push_back({grid.start[c], grid.start[c + 1], grid.box[c],
                              std::numeric_limits<std::int64_t>::max(),
                              grid.index[grid.start[c]]});
        }
    }
    // minDist[j] = squared distance from grid point j to the selected set.
    std::vector<std::int64_t> minDist(
        n, std::numeric_limits<std::int64_t>::max());

    Coord3 last = cloud.coord(first);
    while (selected.size() < num_samples) {
        std::int64_t best = -1;
        PointIndex bestIdx = 0;
        for (Block &b : blocks) {
            // Every point of the block is at least this far from the new
            // sample. Once that reaches the block's largest minDist, the
            // sample lowers none of them, so the block keeps its best.
            if (boxDistance2(b.box, last) < b.best) {
                b.best = -1;
                for (std::uint32_t j = b.begin; j < b.end; ++j) {
                    const std::int64_t dx = std::int64_t{grid.xs[j]} - last.x;
                    const std::int64_t dy = std::int64_t{grid.ys[j]} - last.y;
                    const std::int64_t dz = std::int64_t{grid.zs[j]} - last.z;
                    const std::int64_t d = dx * dx + dy * dy + dz * dz;
                    if (d < minDist[j])
                        minDist[j] = d;
                    // A block lists its points in ascending index, so
                    // the first maximum is the lowest index holding it.
                    if (minDist[j] > b.best) {
                        b.best = minDist[j];
                        b.bestIdx = grid.index[j];
                    }
                }
            }
            // Ties break toward the lower index, matching the hardware
            // comparator which keeps the earlier element on equality.
            if (b.best > best || (b.best == best && b.bestIdx < bestIdx)) {
                best = b.best;
                bestIdx = b.bestIdx;
            }
        }
        selected.push_back(bestIdx);
        last = cloud.coord(bestIdx);
    }
    return selected;
}

std::vector<PointIndex>
randomSampling(const PointCloud &cloud, std::size_t num_samples,
               std::uint64_t seed)
{
    const std::size_t n = cloud.size();
    num_samples = std::min(num_samples, n);
    std::vector<PointIndex> indices(n);
    std::iota(indices.begin(), indices.end(), 0);
    Rng rng(seed);
    // Fisher-Yates prefix shuffle: only the first num_samples slots.
    for (std::size_t i = 0; i < num_samples; ++i) {
        const std::size_t j = i + rng.range(n - i);
        std::swap(indices[i], indices[j]);
    }
    indices.resize(num_samples);
    return indices;
}

PointCloud
gatherPoints(const PointCloud &cloud, const std::vector<PointIndex> &indices)
{
    std::vector<Coord3> coords;
    coords.reserve(indices.size());
    for (const auto idx : indices)
        coords.push_back(cloud.coord(idx));
    PointCloud out(std::move(coords), cloud.channels());
    for (std::size_t i = 0; i < indices.size(); ++i) {
        for (int c = 0; c < cloud.channels(); ++c) {
            out.setFeature(static_cast<PointIndex>(i), c,
                           cloud.feature(indices[i], c));
        }
    }
    out.setTensorStride(cloud.tensorStride());
    return out;
}

} // namespace pointacc
