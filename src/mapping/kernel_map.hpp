/**
 * @file
 * Kernel mapping: neighbor search for SparseConv-based convolutions.
 *
 * For each kernel offset delta, find every (input p, output q) pair
 * with p == q + delta (Section 2.1.2). Two reference implementations
 * are provided:
 *
 *  - hashKernelMap:  the state-of-the-art software approach
 *    (MinkowskiEngine): hash all input coordinates, then probe
 *    q + delta for every output q and offset delta.
 *  - sortKernelMap:  PointAcc's approach (Fig. 9): shift the input
 *    cloud by -delta, mergesort it with the output cloud, and detect
 *    coordinate intersections between adjacent elements. Both clouds
 *    are packed once into 64-bit keys (packCoord), so the shift is one
 *    subtraction and each merge step one compare of two words, exactly
 *    the hardware's 63-bit comparator key. Packed keys are only valid
 *    inside the range kernelMapKeysFit checks; both this function and
 *    the MPU model assert it. When the kernel is odd and both clouds
 *    hold the same coordinates (every submanifold conv), only the
 *    offsets before the centre are merged, and mirrorSubmanifoldMaps
 *    derives the rest.
 *
 * Both must produce identical MapSets; tests enforce this, and the MPU
 * hardware model is checked against sortKernelMap. The order inside
 * each weight group is part of the result, because the memory and flow
 * models consume maps in that order: both emit each group in ascending
 * output index.
 */

#ifndef POINTACC_MAPPING_KERNEL_MAP_HPP
#define POINTACC_MAPPING_KERNEL_MAP_HPP

#include "core/point_cloud.hpp"
#include "mapping/maps.hpp"

namespace pointacc {

/** Parameters of one sparse convolution's kernel mapping. */
struct KernelMapConfig
{
    int kernelSize = 3;  ///< cubic kernel edge (2 for strided downsample)
    int inStride = 1;    ///< input tensor stride
    int outStride = 1;   ///< output tensor stride (= inStride, or 2x)
};

/**
 * True when every key a mergesort kernel map of these clouds packs lies
 * inside the packed-key range (fitsPackedKey): each input coordinate
 * shifted by any kernel offset, and each output coordinate. Both
 * sortKernelMap and the MPU model assert it.
 */
bool kernelMapKeysFit(const PointCloud &input, const PointCloud &output,
                      const KernelMapConfig &cfg);

/** Hash-table-based kernel mapping (software baseline). */
MapSet hashKernelMap(const PointCloud &input, const PointCloud &output,
                     const KernelMapConfig &cfg);

/** Mergesort-based kernel mapping (PointAcc algorithm). Requires both
 *  clouds sorted and duplicate-free. */
MapSet sortKernelMap(const PointCloud &input, const PointCloud &output,
                     const KernelMapConfig &cfg);

/**
 * Complete a submanifold MapSet from the groups before its centre.
 *
 * `maps` must have an odd number of weights (an odd cubic kernel), its
 * groups before the centre must hold the maps of one sorted cloud of
 * `num_points` points onto itself, and every other group must be
 * empty. Group volume-1-w (offset -delta) becomes group w with in and
 * out swapped, in group w's order, and the centre group the identity
 * (i, i) in ascending i: the centro-symmetry transposeMaps also uses.
 * The result is byte-identical to sortKernelMap of that cloud onto
 * itself, which builds its own mirrored half with this function; so
 * keeping only the groups before the centre (MapSet::releaseGroupsFrom
 * at volume/2) and calling this later restores the full set.
 */
void mirrorSubmanifoldMaps(MapSet &maps, std::size_t num_points);

/**
 * Inverse maps for transposed (upsampling) convolution: swap in/out of
 * the corresponding downsampling layer's maps and mirror the weight
 * index (delta -> -delta).
 */
MapSet transposeMaps(const MapSet &maps, int kernel_size);

} // namespace pointacc

#endif // POINTACC_MAPPING_KERNEL_MAP_HPP
