/**
 * @file
 * Input-output maps: the common currency of point cloud convolution.
 *
 * A map is a tuple (input point index, output point index, weight
 * index): "input j contributes to output k through kernel weight n"
 * (Section 2 of the paper). Every mapping operation — kernel mapping,
 * kNN, ball query — ultimately produces a MapSet, and the Memory
 * Management Unit consumes MapSets to drive gather/scatter-free matrix
 * computation.
 */

#ifndef POINTACC_MAPPING_MAPS_HPP
#define POINTACC_MAPPING_MAPS_HPP

#include <cstddef>
#include <vector>

#include "core/types.hpp"

namespace pointacc {

/** One (input, output, weight) map tuple. */
struct Map
{
    PointIndex in = kInvalidIndex;
    PointIndex out = kInvalidIndex;
    std::int32_t weight = 0;

    friend constexpr bool
    operator==(const Map &a, const Map &b)
    {
        return a.in == b.in && a.out == b.out && a.weight == b.weight;
    }

    friend constexpr bool
    operator!=(const Map &a, const Map &b)
    {
        return !(a == b);
    }

    friend constexpr bool
    operator<(const Map &a, const Map &b)
    {
        if (a.in != b.in) return a.in < b.in;
        if (a.out != b.out) return a.out < b.out;
        return a.weight < b.weight;
    }
};

/**
 * All maps of one point cloud convolution layer, grouped by weight
 * index ("gather by weight" order, which is how both the GPU reference
 * flow and PointAcc iterate).
 */
class MapSet
{
  public:
    MapSet() = default;
    explicit MapSet(std::int32_t num_weights) : groups(num_weights) {}

    std::int32_t numWeights() const
    {
        return static_cast<std::int32_t>(groups.size());
    }

    void
    add(const Map &m)
    {
        groups[m.weight].push_back(m);
        count += 1;
    }

    /** Append the n maps (in[j], out[j], w), in order, to weight w's
     *  group, growing it exactly once. */
    void
    addGroup(std::int32_t w, const PointIndex *in, const PointIndex *out,
             std::size_t n)
    {
        auto &g = groups[w];
        g.reserve(g.size() + n);
        for (std::size_t j = 0; j < n; ++j)
            g.push_back(Map{in[j], out[j], w});
        count += n;
    }

    /** Pre-size every weight group. Producers that know an upper-ish
     *  bound on matches per offset (kernel mapping: at most
     *  min(|input|, |output|)) use this to avoid the per-group
     *  doubling reallocations that otherwise churn the mapping hot
     *  path; over-reservation is released by the consumer copying or
     *  the set being short-lived. */
    void
    reservePerWeight(std::size_t expected)
    {
        for (auto &g : groups)
            g.reserve(expected);
    }

    /** Pre-size one weight group exactly (e.g. map transposition,
     *  where each output group's size is a source group's). */
    void
    reserveWeight(std::int32_t w, std::size_t expected)
    {
        groups[w].reserve(expected);
    }

    /** Empty every group from weight `first` on and free its storage;
     *  numWeights() is unchanged. */
    void
    releaseGroupsFrom(std::int32_t first)
    {
        for (std::size_t w = first; w < groups.size(); ++w) {
            count -= groups[w].size();
            std::vector<Map>().swap(groups[w]);
        }
    }

    const std::vector<Map> &forWeight(std::int32_t w) const
    {
        return groups[w];
    }

    /** Total number of maps across all weights. */
    std::size_t size() const { return count; }

    /** Flatten to one weight-major vector (stable inside each weight). */
    std::vector<Map> flattened() const;

    /** Canonical ordering inside each weight group, for comparisons. */
    void sortGroups();

  private:
    std::vector<std::vector<Map>> groups;
    std::size_t count = 0;
};

/**
 * Enumerate kernel offsets for a cubic kernel of size k in D=3, in
 * weight-index order: offset delta in {-(k-1)/2 .. +(k-1)/2}^3 scaled by
 * the input tensor stride. Even kernels (k=2, used by strided
 * downsampling convolutions) use offsets {0, 1}^3.
 */
std::vector<Coord3> kernelOffsets(int kernel_size, int tensor_stride);

} // namespace pointacc

#endif // POINTACC_MAPPING_MAPS_HPP
