/**
 * @file
 * FeatureCache: the input buffers configured as a direct-mapped cache.
 *
 * Section 4.2.3: under the fetch-on-demand flow the MMU reuses the MIR
 * Container as a shared Tag Array over the input feature buffers.
 * Unlike a conventional cache, the *block size is software
 * controllable*: a block holds `blockPoints` consecutive points by
 * `blockChannels` consecutive channels, and the tag is the (point,
 * channel) index of the block's first feature. Larger blocks exploit
 * the spatial locality of sorted point clouds but raise the miss
 * penalty — Fig. 18 sweeps this trade-off, and the compiler picks a
 * block size per layer.
 */

#ifndef POINTACC_MEMORY_CACHE_HPP
#define POINTACC_MEMORY_CACHE_HPP

#include <cstdint>
#include <vector>

namespace pointacc {

/** Configuration of the input-buffer cache. */
struct CacheConfig
{
    std::uint32_t capacityBytes = 64 * 1024; ///< input buffer size
    std::uint32_t blockPoints = 16;     ///< points per cache block
    std::uint32_t blockChannels = 64;   ///< channels per cache block
    std::uint32_t bytesPerFeature = 2;  ///< fp16 features
};

/** Hit/miss statistics of one layer's execution. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t missBytes = 0; ///< DRAM fill traffic

    double
    missRate() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(accesses);
    }
};

/**
 * Exact n / d and n % d of 32-bit n for a divisor fixed in advance, by
 * multiplication with a precomputed 64-bit reciprocal M = ceil(2^64/d)
 * instead of a hardware divide (Lemire, Kaser & Kurz, "Faster
 * remainder by direct computation", 2019): n / d is the high 64 bits
 * of M * n, and n % d the high 64 bits of (M * n mod 2^64) * d. Both
 * are exact for every 32-bit n and d. For d = 1, M wraps to 0: the
 * remainder formula still gives 0, but the quotient needs its own case.
 */
class Reciprocal32
{
  public:
    explicit Reciprocal32(std::uint32_t d)
        : magic(~std::uint64_t{0} / d + 1), divisor(d)
    {}

    std::uint32_t
    quotient(std::uint32_t n) const
    {
        if (magic == 0)
            return n;
        return static_cast<std::uint32_t>(
            (static_cast<unsigned __int128>(magic) * n) >> 64);
    }

    std::uint32_t
    remainder(std::uint32_t n) const
    {
        const std::uint64_t fraction = magic * n;
        return static_cast<std::uint32_t>(
            (static_cast<unsigned __int128>(fraction) * divisor) >> 64);
    }

  private:
    std::uint64_t magic; ///< ceil(2^64 / divisor) mod 2^64
    std::uint32_t divisor;
};

/**
 * Direct-mapped feature cache over (point, channel) blocks. The tag
 * array is one flat block id per slot (-1 when empty): block b lives
 * in slot b % numBlocks().
 */
class FeatureCache
{
  public:
    /**
     * @param cfg           geometry of the cache; blockPoints and
     *                      blockChannels must be positive (asserted),
     *                      since every access divides by both (through
     *                      a Reciprocal32 each)
     * @param num_channels  channels in the input feature map
     */
    FeatureCache(const CacheConfig &cfg, std::uint32_t num_channels);

    /**
     * Access the features of `point` for channel tile `channel_base`
     * (one map-driven fetch of blockChannels channels). Updates stats
     * and fills on miss.
     *
     * Defined here so that the pricing loops, which call it once per
     * map, can inline it.
     *
     * @return true on hit
     */
    bool
    access(std::uint32_t point, std::uint32_t channel_base)
    {
        ++cacheStats.accesses;
        // Block id: (point block, channel block) flattened, then
        // direct-mapped onto the tag slots.
        const std::uint32_t blockId =
            perBlockPoints.quotient(point) * channelBlocks +
            perBlockChannels.quotient(channel_base);
        std::int32_t &tag = tags[perBlockCount.remainder(blockId)];
        if (tag == static_cast<std::int32_t>(blockId))
            return true;
        ++cacheStats.misses;
        cacheStats.missBytes += bytesPerBlock;
        tag = static_cast<std::int32_t>(blockId);
        return false;
    }

    const CacheStats &stats() const { return cacheStats; }
    std::uint32_t blockBytes() const { return bytesPerBlock; }
    std::uint32_t numBlocks() const { return blockCount; }

    void resetStats() { cacheStats = {}; }

  private:
    CacheConfig cfg;
    std::uint32_t channelBlocks; ///< channel tiles per point
    std::uint32_t bytesPerBlock;
    std::uint32_t blockCount;
    /** Divisions of access(), one reciprocal per divisor. */
    Reciprocal32 perBlockPoints;
    Reciprocal32 perBlockChannels;
    Reciprocal32 perBlockCount;
    /** Block id per slot, -1 if empty. Block id 2^32 - 1 would read
     *  as empty; with one channel block, as every pricing walk uses,
     *  int32 point indices cannot reach it. */
    std::vector<std::int32_t> tags;
    CacheStats cacheStats;
};

} // namespace pointacc

#endif // POINTACC_MEMORY_CACHE_HPP
