/**
 * @file
 * PointCloud container.
 *
 * A point cloud is a set of (coordinate, feature-vector) pairs. The
 * simulator only ever needs feature *shapes* (channel counts) to model
 * timing and energy, but features are carried as real data so that the
 * functional layers (used as oracles in tests) compute real values.
 */

#ifndef POINTACC_CORE_POINT_CLOUD_HPP
#define POINTACC_CORE_POINT_CLOUD_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace pointacc {

/** Axis-aligned integer bounding box. */
struct BoundingBox
{
    Coord3 lo{0, 0, 0};
    Coord3 hi{0, 0, 0};

    /** Number of grid cells covered per axis (inclusive extent). */
    std::int64_t
    volume() const
    {
        const std::int64_t ex = static_cast<std::int64_t>(hi.x) - lo.x + 1;
        const std::int64_t ey = static_cast<std::int64_t>(hi.y) - lo.y + 1;
        const std::int64_t ez = static_cast<std::int64_t>(hi.z) - lo.z + 1;
        return ex * ey * ez;
    }
};

/**
 * A point cloud with an optional dense feature matrix.
 *
 * Features are stored row-major: feature(i, c) is channel c of point i.
 * `tensorStride` follows the MinkowskiEngine convention: after k strided
 * downsamplings the coordinates live on a grid of pitch 2^k.
 */
class PointCloud
{
  public:
    PointCloud() = default;

    /** Construct from coordinates with `channels` zero-filled features. */
    explicit PointCloud(std::vector<Coord3> coords_, int channels = 0)
        : coords(std::move(coords_)), numChannels(channels)
    {
        features.assign(coords.size() * static_cast<std::size_t>(channels),
                        0.0f);
    }

    std::size_t size() const { return coords.size(); }
    bool empty() const { return coords.empty(); }
    int channels() const { return numChannels; }

    const std::vector<Coord3> &coordinates() const { return coords; }
    std::vector<Coord3> &coordinates() { return coords; }

    const Coord3 &coord(PointIndex i) const { return coords[i]; }

    float
    feature(PointIndex i, int c) const
    {
        return features[static_cast<std::size_t>(i) * numChannels + c];
    }

    void
    setFeature(PointIndex i, int c, float v)
    {
        features[static_cast<std::size_t>(i) * numChannels + c] = v;
    }

    /** Raw feature storage (row-major, size() * channels()). */
    const std::vector<float> &featureData() const { return features; }
    std::vector<float> &featureData() { return features; }

    /** Resize the feature matrix to `channels` per point (zero fill). */
    void
    setChannels(int channels)
    {
        numChannels = channels;
        features.assign(coords.size() * static_cast<std::size_t>(channels),
                        0.0f);
    }

    int tensorStride() const { return stride; }
    void setTensorStride(int s) { stride = s; }

    void
    append(const Coord3 &c)
    {
        coords.push_back(c);
        features.resize(coords.size() * static_cast<std::size_t>(numChannels),
                        0.0f);
    }

    /** Bounding box of all coordinates; zero box when empty. */
    BoundingBox boundingBox() const;

    /**
     * Occupancy density: #points / #grid cells in the bounding box.
     * This is the quantity Fig. 5 (left) of the paper plots per dataset.
     */
    double density() const;

    /**
     * Sort points lexicographically by coordinate (features follow),
     * in coordSortOrder. The sort is stable: points with equal
     * coordinates keep their input order, so a following dedupSorted()
     * keeps, of each coordinate, the point with the lowest input index.
     */
    void sortByCoord();

    /** True when coordinates are lexicographically sorted. */
    bool isSorted() const;

    /**
     * Remove duplicate coordinates (keeping the first occurrence).
     * Requires the cloud to be sorted. Returns the number removed.
     */
    std::size_t dedupSorted();

  private:
    std::vector<Coord3> coords;
    std::vector<float> features;
    int numChannels = 0;
    int stride = 1;
};

/**
 * The stable permutation that sorts `coords` lexicographically:
 * position i of the sorted sequence holds coords[order[i]], and equal
 * coordinates keep their input order. A radix sort over each point's
 * offset from the bounding box's low corner; at most 2^32 points.
 */
std::vector<std::uint32_t> coordSortOrder(const std::vector<Coord3> &coords);

} // namespace pointacc

#endif // POINTACC_CORE_POINT_CLOUD_HPP
