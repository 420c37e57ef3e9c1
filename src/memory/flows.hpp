/**
 * @file
 * DRAM traffic models of the two sparse-convolution computation flows
 * (Section 4.2.3, Fig. 11c and Fig. 17 right):
 *
 *  - Gather-MatMul-Scatter (GPU reference): gather input features into
 *    a contiguous matrix, run dense MatMul, scatter-accumulate partial
 *    sums. Input features cross DRAM three times (random read for the
 *    gather, sequential write of the gathered matrix, sequential read
 *    for the MatMul), and partial sums cross twice more.
 *
 *  - Fetch-on-Demand (PointAcc): stream maps, fetch input features
 *    through the configurable cache, keep partial sums on chip
 *    (output-stationary outer loop), write each output exactly once.
 *
 * Both models take the *actual* MapSet of the layer, so traffic ratios
 * (the >= 3x input-feature saving, Fig. 19's 3.5-6.3x total reduction)
 * emerge from real map statistics rather than assumptions.
 */

#ifndef POINTACC_MEMORY_FLOWS_HPP
#define POINTACC_MEMORY_FLOWS_HPP

#include "mapping/maps.hpp"
#include "memory/cache.hpp"

namespace pointacc {

/** Shape of one sparse convolution layer. */
struct SparseLayerShape
{
    std::uint32_t numInputs = 0;   ///< input points
    std::uint32_t numOutputs = 0;  ///< output points
    std::uint32_t inChannels = 0;
    std::uint32_t outChannels = 0;
    std::uint32_t bytesPerFeature = 2; ///< fp16
};

/** DRAM traffic of one layer under a given flow. */
struct FlowTraffic
{
    std::uint64_t inputReadBytes = 0;   ///< input feature reads
    std::uint64_t scratchWriteBytes = 0;///< gathered-matrix / psum writes
    std::uint64_t scratchReadBytes = 0; ///< gathered-matrix / psum reads
    std::uint64_t outputWriteBytes = 0; ///< final output writes
    std::uint64_t weightReadBytes = 0;  ///< weight loads

    std::uint64_t
    totalBytes() const
    {
        return inputReadBytes + scratchWriteBytes + scratchReadBytes +
               outputWriteBytes + weightReadBytes;
    }
};

/** Traffic of the Gather-MatMul-Scatter reference flow. */
FlowTraffic gatherMatMulScatterTraffic(const MapSet &maps,
                                       const SparseLayerShape &shape);

/** Result of the fetch-on-demand flow: traffic plus cache behavior. */
struct FetchOnDemandResult
{
    FlowTraffic traffic;
    CacheStats cache;
};

/**
 * Traffic of PointAcc's Fetch-on-Demand flow with the input buffers in
 * cache mode: fetchOnDemandFromWalk of fetchOnDemandWalk.
 *
 * The loop nest matches Section 4.2.2: output-stationary outer tiles
 * (sized so one tile's partial sums fit the output buffers), then
 * weight-stationary passes over the maps, then input-channel tiles of
 * the systolic-array height.
 *
 * @param maps        layer maps grouped by weight, output-sorted
 * @param shape       layer dimensions
 * @param cache_cfg   input-buffer cache geometry (blockChannels is
 *                    overridden to the full channel width: one fill
 *                    brings all channels of a point block)
 * @param ic_tile     input-channel tile width (systolic rows); must
 *                    be positive
 * @param out_tile    output-stationary tile size in points (0 = derive
 *                    from cache capacity)
 */
FetchOnDemandResult
fetchOnDemandTraffic(const MapSet &maps, const SparseLayerShape &shape,
                     const CacheConfig &cache_cfg,
                     std::uint32_t ic_tile = 64,
                     std::uint32_t out_tile = 0);

/**
 * The cache walk of the Fetch-on-Demand flow: the input-buffer stats
 * of streaming `maps` through the cache, with `accesses` counting
 * every input-channel tile. Same parameters as fetchOnDemandTraffic.
 * The walk reads only the maps, numOutputs, inChannels,
 * bytesPerFeature, the cache geometry and the tiles, so layers that
 * differ only in outChannels share it.
 */
CacheStats fetchOnDemandWalk(const MapSet &maps,
                             const SparseLayerShape &shape,
                             const CacheConfig &cache_cfg,
                             std::uint32_t ic_tile = 64,
                             std::uint32_t out_tile = 0);

/** Fetch-on-Demand traffic of a layer from its cache walk: input reads
 *  are the walk's fills, outputs stream out once, weights cross once. */
FetchOnDemandResult fetchOnDemandFromWalk(const CacheStats &walk,
                                          const MapSet &maps,
                                          const SparseLayerShape &shape);

/** Traffic of a dense (FC / 1x1 conv) layer: stream in, stream out. */
FlowTraffic denseLayerTraffic(std::uint32_t num_points,
                              std::uint32_t in_channels,
                              std::uint32_t out_channels,
                              std::uint32_t bytes_per_feature = 2);

} // namespace pointacc

#endif // POINTACC_MEMORY_FLOWS_HPP
