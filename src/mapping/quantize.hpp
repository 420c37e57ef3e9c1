/**
 * @file
 * Coordinate quantization: output cloud construction for SparseConv.
 *
 * Downsampling reduces resolution by snapping each coordinate to the
 * coarser grid: q = floor(p / ts) * ts where ts is the *output* tensor
 * stride (Section 2.1.1). Because strides are powers of two, hardware
 * implements this by clearing the low log2(ts) bits; the software
 * reference here must match that bit-clearing semantics exactly,
 * including for negative coordinates (arithmetic shift, i.e. floor).
 */

#ifndef POINTACC_MAPPING_QUANTIZE_HPP
#define POINTACC_MAPPING_QUANTIZE_HPP

#include "core/point_cloud.hpp"
#include "mapping/maps.hpp"

namespace pointacc {

/**
 * Snap one coordinate onto the grid of pitch `ts` (power of two).
 * Two's-complement masking gives floor semantics for negatives, e.g.
 * -3 & ~3 == -4, which matches floor(-3/4)*4.
 */
inline Coord3
quantizeCoord(const Coord3 &p, std::int32_t ts)
{
    const std::int32_t mask = ~(ts - 1);
    return {p.x & mask, p.y & mask, p.z & mask};
}

/**
 * Construct the downsampled output cloud: quantize every input point to
 * the target tensor stride and deduplicate. The result is sorted.
 *
 * @param input      input cloud (any tensor stride)
 * @param out_stride target tensor stride, a power of two that is a
 *                   multiple of the input stride
 */
PointCloud quantizeDownsample(const PointCloud &input,
                              std::int32_t out_stride);

/** A downsampled cloud with the kernel maps that lead to it. */
struct Downsample
{
    PointCloud cloud;
    MapSet maps;
};

/**
 * quantizeDownsample, plus the kernel maps of the strided conv whose
 * kernel size equals its stride multiplier m = out_stride / input
 * stride (every downsample of the network zoo), read off the same sort.
 *
 * That kernel's offsets {0, .., m-1}^3 times the input stride tile one
 * coarse cell exactly, so a fine point p meets only its own cell's
 * coarse point q, at offset p - q (no map if p is off the input
 * stride's grid). The maps are grouped by that offset, each group
 * reserved to its exact size and in ascending output index. For a
 * sorted, duplicate-free input they equal
 * sortKernelMap(input, cloud, {m, inStride, out_stride}).
 */
Downsample downsampleWithMaps(const PointCloud &input,
                              std::int32_t out_stride);

} // namespace pointacc

#endif // POINTACC_MAPPING_QUANTIZE_HPP
