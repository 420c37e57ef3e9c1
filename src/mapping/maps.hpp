/**
 * @file
 * Input-output maps: the common currency of point cloud convolution.
 *
 * A map says "input j contributes to output k through kernel weight n"
 * (Section 2 of the paper). Maps are consumed grouped by weight, so the
 * weight is the index of a map's group, and a group is two columns:
 * its map j is (in[j], out[j]). Every mapping operation — kernel
 * mapping, kNN, ball query — ultimately produces a MapSet, and the
 * Memory Management Unit consumes MapSets to drive gather/scatter-free
 * matrix computation.
 */

#ifndef POINTACC_MAPPING_MAPS_HPP
#define POINTACC_MAPPING_MAPS_HPP

#include <cstddef>
#include <vector>

#include "core/types.hpp"

namespace pointacc {

/** The maps of one weight, in emission order: map j is (in[j], out[j]). */
struct MapGroup
{
    std::vector<PointIndex> in, out;

    std::size_t size() const { return in.size(); }
    bool empty() const { return in.empty(); }

    void
    reserve(std::size_t n)
    {
        in.reserve(n);
        out.reserve(n);
    }

    void
    push(PointIndex i, PointIndex o)
    {
        in.push_back(i);
        out.push_back(o);
    }

    friend bool
    operator==(const MapGroup &a, const MapGroup &b)
    {
        return a.in == b.in && a.out == b.out;
    }
};

/**
 * All maps of one point cloud convolution layer, one group per weight
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

    const MapGroup &forWeight(std::int32_t w) const { return groups[w]; }
    MapGroup &forWeight(std::int32_t w) { return groups[w]; }

    /** Total number of maps across all weights. */
    std::size_t size() const;

    /** Sort each group's (in, out) pairs: a canonical order for
     *  comparisons. */
    void sortGroups();

  private:
    std::vector<MapGroup> groups;
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
