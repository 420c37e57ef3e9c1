#include "memory/flows.hpp"

#include <algorithm>

#include "core/logging.hpp"

namespace pointacc {

FlowTraffic
gatherMatMulScatterTraffic(const MapSet &maps, const SparseLayerShape &shape)
{
    FlowTraffic t;
    const std::uint64_t m = maps.size();
    const std::uint64_t inRow =
        static_cast<std::uint64_t>(shape.inChannels) * shape.bytesPerFeature;
    const std::uint64_t outRow =
        static_cast<std::uint64_t>(shape.outChannels) * shape.bytesPerFeature;

    // Gather: one random feature-row read per map, then the gathered
    // matrix is written out contiguously.
    t.inputReadBytes = m * inRow;
    t.scratchWriteBytes = m * inRow;
    // MatMul: reads the gathered matrix back, writes partial sums.
    t.scratchReadBytes = m * inRow;
    t.scratchWriteBytes += m * outRow;
    // Scatter: reads partial sums and accumulates into output rows.
    t.scratchReadBytes += m * outRow;
    t.outputWriteBytes = m * outRow;
    // Weights cross once per layer.
    t.weightReadBytes = static_cast<std::uint64_t>(maps.numWeights()) *
                        shape.inChannels * shape.outChannels *
                        shape.bytesPerFeature;
    return t;
}

FetchOnDemandResult
fetchOnDemandTraffic(const MapSet &maps, const SparseLayerShape &shape,
                     const CacheConfig &cache_cfg, std::uint32_t ic_tile,
                     std::uint32_t out_tile)
{
    return fetchOnDemandFromWalk(
        fetchOnDemandWalk(maps, shape, cache_cfg, ic_tile, out_tile), maps,
        shape);
}

CacheStats
fetchOnDemandWalk(const MapSet &maps, const SparseLayerShape &shape,
                  const CacheConfig &cache_cfg, std::uint32_t ic_tile,
                  std::uint32_t out_tile)
{
    simAssert(shape.inChannels > 0 && shape.outChannels > 0,
              "layer must have channels");
    simAssert(ic_tile > 0, "input-channel tile must be positive");

    CacheConfig cfg = cache_cfg;
    cfg.blockChannels = std::max<std::uint32_t>(shape.inChannels, 1);

    // Output-stationary tile: big enough to amortize weight passes,
    // small enough that the touched input working set has a chance to
    // stay resident. Default: the number of input feature rows that
    // fit in the cache.
    if (out_tile == 0) {
        const std::uint32_t rowBytes =
            shape.inChannels * shape.bytesPerFeature;
        out_tile = std::max<std::uint32_t>(
            cfg.blockPoints, cfg.capacityBytes / std::max(rowBytes, 1u));
    }

    FeatureCache cache(cfg, shape.inChannels);
    const std::uint32_t icTiles =
        (shape.inChannels + ic_tile - 1) / ic_tile;

    // One block spans every input channel, so each map's icTiles
    // channel-tile fetches all hit the block its first tile touches:
    // look the block up once per map and credit the other tiles as
    // hits below.
    //
    // Per-weight cursors: maps inside one weight group are sorted by
    // output index, so each output tile consumes a contiguous run.
    std::vector<std::size_t> cursor(maps.numWeights(), 0);

    for (std::uint32_t base = 0; base < std::max(shape.numOutputs, 1u);
         base += out_tile) {
        const std::uint32_t limit = base + out_tile;
        for (std::int32_t w = 0; w < maps.numWeights(); ++w) {
            const auto &group = maps.forWeight(w);
            std::size_t &pos = cursor[w];
            while (pos < group.size() &&
                   static_cast<std::uint32_t>(group[pos].out) < limit) {
                cache.access(static_cast<std::uint32_t>(group[pos].in), 0);
                ++pos;
            }
        }
    }

    CacheStats stats = cache.stats();
    stats.accesses *= icTiles;
    return stats;
}

FetchOnDemandResult
fetchOnDemandFromWalk(const CacheStats &walk, const MapSet &maps,
                      const SparseLayerShape &shape)
{
    FetchOnDemandResult result;
    result.cache = walk;
    result.traffic.inputReadBytes = walk.missBytes;
    // Partial sums never leave the chip; outputs stream out once.
    result.traffic.outputWriteBytes =
        static_cast<std::uint64_t>(shape.numOutputs) * shape.outChannels *
        shape.bytesPerFeature;
    result.traffic.weightReadBytes =
        static_cast<std::uint64_t>(maps.numWeights()) * shape.inChannels *
        shape.outChannels * shape.bytesPerFeature;
    return result;
}

FlowTraffic
denseLayerTraffic(std::uint32_t num_points, std::uint32_t in_channels,
                  std::uint32_t out_channels,
                  std::uint32_t bytes_per_feature)
{
    FlowTraffic t;
    t.inputReadBytes = static_cast<std::uint64_t>(num_points) *
                       in_channels * bytes_per_feature;
    t.outputWriteBytes = static_cast<std::uint64_t>(num_points) *
                         out_channels * bytes_per_feature;
    t.weightReadBytes = static_cast<std::uint64_t>(in_channels) *
                        out_channels * bytes_per_feature;
    return t;
}

} // namespace pointacc
