#include "memory/cache.hpp"

#include <algorithm>

namespace pointacc {

FeatureCache::FeatureCache(const CacheConfig &cfg_, std::uint32_t num_channels)
    : cfg(cfg_),
      channelBlocks(std::max<std::uint32_t>(
          1, (num_channels + cfg_.blockChannels - 1) / cfg_.blockChannels)),
      bytesPerBlock(cfg_.blockPoints *
                    std::min(cfg_.blockChannels, std::max<std::uint32_t>(
                                                     num_channels, 1)) *
                    cfg_.bytesPerFeature),
      blockCount(std::max<std::uint32_t>(
          1, cfg_.capacityBytes / std::max<std::uint32_t>(bytesPerBlock, 1))),
      tags(blockCount, -1)
{}

} // namespace pointacc
