#include "memory/cache.hpp"

#include <algorithm>

#include "core/logging.hpp"

namespace pointacc {

namespace {

/** `cfg`, once its block geometry is known to be positive: both block
 *  dimensions divide every access and the block count. */
const CacheConfig &
checkedGeometry(const CacheConfig &cfg)
{
    simAssert(cfg.blockPoints > 0 && cfg.blockChannels > 0,
              "FeatureCache: blockPoints and blockChannels must be positive");
    return cfg;
}

} // namespace

FeatureCache::FeatureCache(const CacheConfig &cfg_, std::uint32_t num_channels)
    : cfg(checkedGeometry(cfg_)),
      channelBlocks(std::max<std::uint32_t>(
          1, (num_channels + cfg.blockChannels - 1) / cfg.blockChannels)),
      bytesPerBlock(cfg.blockPoints *
                    std::min(cfg.blockChannels, std::max<std::uint32_t>(
                                                    num_channels, 1)) *
                    cfg.bytesPerFeature),
      blockCount(std::max<std::uint32_t>(
          1, cfg.capacityBytes / std::max<std::uint32_t>(bytesPerBlock, 1))),
      perBlockPoints(cfg.blockPoints), perBlockChannels(cfg.blockChannels),
      perBlockCount(blockCount), tags(blockCount, -1)
{}

} // namespace pointacc
