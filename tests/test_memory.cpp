/**
 * @file
 * Tests for the Memory Management Unit components: DRAM model, MIR
 * container, configurable cache, dataflow traffic models and the
 * temporal fusion planner. Property tests enforce the paper's
 * monotonic claims (Fig. 18: miss rate falls with block size, kernel
 * size and channels; Section 4.2.3: Fetch-on-Demand saves >= 3x input
 * feature traffic).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "datasets/synthetic.hpp"
#include "mapping/kernel_map.hpp"
#include "mapping/quantize.hpp"
#include "memory/cache.hpp"
#include "memory/dram.hpp"
#include "memory/flows.hpp"
#include "memory/fusion.hpp"
#include "memory/mir.hpp"

namespace pointacc {
namespace {

// ---------------------------------------------------------------- //
//                             DRAM                                  //
// ---------------------------------------------------------------- //

TEST(Dram, SpecsMatchTable3)
{
    EXPECT_DOUBLE_EQ(hbm2Spec().bandwidthGBps, 256.0);
    EXPECT_DOUBLE_EQ(ddr4Spec().bandwidthGBps, 17.0);
    EXPECT_DOUBLE_EQ(lpddr3Spec().bandwidthGBps, 12.8);
}

TEST(Dram, SequentialTimeMatchesBandwidth)
{
    DramModel dram(hbm2Spec());
    dram.readSequential(256ULL * 1000 * 1000 * 1000); // 256 GB
    EXPECT_NEAR(dram.timeNs(), 1e9, 1e9 * 0.01);      // ~1 second
}

TEST(Dram, RandomAccessPadsToBursts)
{
    DramModel dram(ddr4Spec());
    dram.readRandom(10, 4); // 4-byte reads pad to 64-byte bursts
    EXPECT_EQ(dram.readBytes(), 640u);
}

TEST(Dram, RandomSlowerThanSequential)
{
    DramModel seq(ddr4Spec()), rnd(ddr4Spec());
    seq.readSequential(64 * 1024);
    rnd.readRandom(1024, 64);
    EXPECT_GT(rnd.timeNs(), seq.timeNs());
}

TEST(Dram, EnergyProportionalToBits)
{
    DramModel dram(hbm2Spec());
    dram.readSequential(1000);
    dram.writeSequential(500);
    EXPECT_DOUBLE_EQ(dram.energyPJ(), 1500.0 * 8.0 * 4.0);
}

TEST(Dram, ResetClears)
{
    DramModel dram(hbm2Spec());
    dram.readSequential(1000);
    dram.reset();
    EXPECT_EQ(dram.totalBytes(), 0u);
    EXPECT_DOUBLE_EQ(dram.timeNs(), 0.0);
}

// ---------------------------------------------------------------- //
//                         MIR container                             //
// ---------------------------------------------------------------- //

TEST(MirContainer, FifoOrder)
{
    MirContainer fifo(4, MirMode::Fifo);
    for (int i = 0; i < 3; ++i) {
        Mir mir;
        mir.tileId = i;
        fifo.pushBack(mir);
    }
    EXPECT_EQ(fifo.popFront().tileId, 0);
    EXPECT_EQ(fifo.popFront().tileId, 1);
    EXPECT_EQ(fifo.size(), 1u);
}

TEST(MirContainer, StackOrder)
{
    MirContainer stack(4, MirMode::Stack);
    for (int i = 0; i < 3; ++i) {
        Mir mir;
        mir.tileId = i;
        stack.push(mir);
    }
    EXPECT_EQ(stack.top().tileId, 2);
    EXPECT_EQ(stack.pop().tileId, 2);
    EXPECT_EQ(stack.pop().tileId, 1);
    EXPECT_EQ(stack.size(), 1u);
}

TEST(MirContainer, ModeSwitchRequiresDrain)
{
    MirContainer c(4, MirMode::Stack);
    Mir mir;
    c.push(mir);
    c.pop();
    c.setMode(MirMode::Fifo); // legal when drained
    EXPECT_EQ(c.mode(), MirMode::Fifo);
}

// ---------------------------------------------------------------- //
//                        Feature cache                              //
// ---------------------------------------------------------------- //

TEST(FeatureCache, SequentialAccessHitsWithinBlock)
{
    CacheConfig cfg;
    cfg.capacityBytes = 16 * 1024;
    cfg.blockPoints = 8;
    cfg.blockChannels = 64;
    FeatureCache cache(cfg, 64);
    for (std::uint32_t p = 0; p < 64; ++p)
        cache.access(p, 0);
    // 64 points / 8 per block = 8 misses, rest hits.
    EXPECT_EQ(cache.stats().misses, 8u);
    EXPECT_EQ(cache.stats().accesses, 64u);
    EXPECT_EQ(cache.stats().missBytes, 8u * cache.blockBytes());
}

TEST(FeatureCache, RepeatAccessHits)
{
    CacheConfig cfg;
    cfg.blockPoints = 1;
    FeatureCache cache(cfg, 64);
    EXPECT_FALSE(cache.access(5, 0));
    EXPECT_TRUE(cache.access(5, 0));
    EXPECT_TRUE(cache.access(5, 0));
    EXPECT_DOUBLE_EQ(cache.stats().missRate(), 1.0 / 3.0);
}

TEST(FeatureCache, TagArrayHitMiss)
{
    CacheConfig cfg;
    cfg.capacityBytes = 8 * 128; // 8 slots of one point x 64ch x 2B
    cfg.blockPoints = 1;
    cfg.blockChannels = 64;
    FeatureCache cache(cfg, 64);
    ASSERT_EQ(cache.numBlocks(), 8u);
    EXPECT_FALSE(cache.access(3, 0));
    EXPECT_TRUE(cache.access(3, 0));
    // Conflicting tag (3 + 8 maps to the same slot) evicts.
    EXPECT_FALSE(cache.access(11, 0));
    EXPECT_FALSE(cache.access(3, 0));
    EXPECT_FALSE(cache.access(11, 0));
}

TEST(FeatureCache, ConflictEviction)
{
    CacheConfig cfg;
    cfg.capacityBytes = 4 * 128; // 4 blocks of one point x 64ch x 2B
    cfg.blockPoints = 1;
    cfg.blockChannels = 64;
    FeatureCache cache(cfg, 64);
    ASSERT_EQ(cache.numBlocks(), 4u);
    cache.access(0, 0);
    cache.access(4, 0); // same slot as 0 -> evicts
    EXPECT_FALSE(cache.access(0, 0));
    EXPECT_EQ(cache.stats().misses, 3u);
}

/**
 * Direct-mapped reference: block b = (point block, channel block)
 * flattened, held in slot b % numBlocks, one tag per slot in a map.
 */
class DirectMappedModel
{
  public:
    DirectMappedModel(const CacheConfig &cfg, std::uint32_t channels)
        : cfg(cfg), channelBlocks((channels + cfg.blockChannels - 1) /
                                  cfg.blockChannels),
          blockBytes(cfg.blockPoints * std::min(cfg.blockChannels, channels) *
                     cfg.bytesPerFeature),
          blocks(std::max<std::uint32_t>(1, cfg.capacityBytes / blockBytes))
    {}

    bool
    access(std::uint32_t point, std::uint32_t channel_base)
    {
        const std::uint64_t block =
            static_cast<std::uint64_t>(point / cfg.blockPoints) *
                channelBlocks +
            channel_base / cfg.blockChannels;
        ++stats.accesses;
        const auto it = tagOf.find(block % blocks);
        if (it != tagOf.end() && it->second == block)
            return true;
        tagOf[block % blocks] = block;
        ++stats.misses;
        stats.missBytes += blockBytes;
        return false;
    }

    CacheConfig cfg;
    std::uint32_t channelBlocks;
    std::uint32_t blockBytes;
    std::uint32_t blocks;
    std::map<std::uint64_t, std::uint64_t> tagOf;
    CacheStats stats;
};

TEST(FeatureCache, MatchesDirectMappedModel)
{
    // {channels, blockChannels}: one channel block, and four.
    const std::pair<std::uint32_t, std::uint32_t> widths[] = {{64, 64},
                                                              {128, 32}};
    // The cache divides by multiply-shift reciprocals, the model with
    // plain / and %: block sizes 1 (the reciprocal's own case), powers
    // of two, 3 and 48, slot counts 1, 3 and 7, and point ids up to the
    // largest PointIndex, 2^31 - 1, check them at their edges.
    constexpr std::uint32_t kTopPoint = 0x7FFFFFFFu;
    for (std::uint32_t blockPoints : {1u, 3u, 4u, 16u, 48u, 64u}) {
        for (const auto &[channels, blockChannels] : widths) {
            for (std::uint32_t capBlocks : {1u, 2u, 3u, 7u, 64u, 1000u}) {
                CacheConfig cfg;
                cfg.blockPoints = blockPoints;
                cfg.blockChannels = blockChannels;
                const std::uint32_t blockBytes =
                    blockPoints * blockChannels * cfg.bytesPerFeature;
                // Half a block of slack must not add a slot.
                cfg.capacityBytes = capBlocks * blockBytes + blockBytes / 2;
                FeatureCache cache(cfg, channels);
                DirectMappedModel model(cfg, channels);
                const std::string at =
                    "blockPoints=" + std::to_string(blockPoints) +
                    " channels=" + std::to_string(channels) +
                    " capBlocks=" + std::to_string(capBlocks);
                ASSERT_EQ(cache.numBlocks(), capBlocks) << at;
                ASSERT_EQ(cache.blockBytes(), blockBytes) << at;

                // Runs of nearby points (map-like locality) mixed with
                // random jumps over a cloud of 4096 points: the first
                // 5000 accesses at ids from 0, the next 5000 at the top
                // 4096 ids. The block id is 32 bits wide, so the top
                // ids are skipped where it would overflow (one block
                // point over four channel blocks).
                const bool topFits =
                    static_cast<std::uint64_t>(kTopPoint / blockPoints + 1) *
                        model.channelBlocks <
                    0xFFFFFFFFu;
                Rng rng(blockPoints * 1000 + channels + capBlocks);
                std::uint32_t point = 0;
                for (int i = 0; i < (topFits ? 10000 : 5000); ++i) {
                    point = rng.range(4) == 0
                                ? static_cast<std::uint32_t>(rng.range(4096))
                                : (point + static_cast<std::uint32_t>(
                                               rng.range(8))) % 4096;
                    const std::uint32_t id =
                        i < 5000 ? point : kTopPoint - point;
                    const std::uint32_t channel =
                        static_cast<std::uint32_t>(rng.range(channels));
                    ASSERT_EQ(cache.access(id, channel),
                              model.access(id, channel))
                        << at << " access " << i;
                }
                EXPECT_EQ(cache.stats().accesses, model.stats.accesses) << at;
                EXPECT_EQ(cache.stats().misses, model.stats.misses) << at;
                EXPECT_EQ(cache.stats().missBytes, model.stats.missBytes)
                    << at;
            }
        }
    }
}

TEST(FeatureCache, ZeroBlockGeometryIsRejected)
{
    // A zero block dimension once divided by zero: blockPoints in
    // every access (SIGFPE), blockChannels in the constructor.
    CacheConfig noPoints;
    noPoints.blockPoints = 0;
    EXPECT_DEATH(FeatureCache(noPoints, 64),
                 "blockPoints and blockChannels must be positive");
    CacheConfig noChannels;
    noChannels.blockChannels = 0;
    EXPECT_DEATH(FeatureCache(noChannels, 64),
                 "blockPoints and blockChannels must be positive");
}

// ---------------------------------------------------------------- //
//                     Flow traffic models                           //
// ---------------------------------------------------------------- //

class FlowFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cloud = generate(DatasetKind::S3DIS, 3, 0.2);
        KernelMapConfig kcfg;
        maps = sortKernelMap(cloud, cloud, kcfg);
        shape.numInputs = static_cast<std::uint32_t>(cloud.size());
        shape.numOutputs = static_cast<std::uint32_t>(cloud.size());
        shape.inChannels = 64;
        shape.outChannels = 64;
    }

    PointCloud cloud;
    MapSet maps;
    SparseLayerShape shape;
};

TEST_F(FlowFixture, GatherScatterTrafficFormula)
{
    const auto t = gatherMatMulScatterTraffic(maps, shape);
    const std::uint64_t m = maps.size();
    EXPECT_EQ(t.inputReadBytes, m * 64 * 2);
    EXPECT_EQ(t.scratchWriteBytes, m * 64 * 2 + m * 64 * 2);
    EXPECT_EQ(t.outputWriteBytes, m * 64 * 2);
    EXPECT_GT(t.totalBytes(), 5 * m * 64 * 2);
}

TEST_F(FlowFixture, FetchOnDemandSavesInputTraffic)
{
    CacheConfig ccfg;
    ccfg.capacityBytes = 128 * 1024;
    ccfg.blockPoints = 16;
    const auto gs = gatherMatMulScatterTraffic(maps, shape);
    const auto fod = fetchOnDemandTraffic(maps, shape, ccfg);
    // Section 4.2.3: >= 3x saving on input feature DRAM access.
    EXPECT_GT(static_cast<double>(gs.inputReadBytes +
                                  gs.scratchReadBytes +
                                  gs.scratchWriteBytes),
              3.0 * static_cast<double>(fod.traffic.inputReadBytes));
    // Outputs written exactly once.
    EXPECT_EQ(fod.traffic.outputWriteBytes,
              static_cast<std::uint64_t>(shape.numOutputs) * 64 * 2);
    EXPECT_EQ(fod.traffic.scratchReadBytes, 0u);
    EXPECT_EQ(fod.traffic.scratchWriteBytes, 0u);
}

TEST_F(FlowFixture, MissRateFallsWithBlockSize)
{
    double prev = 1.1;
    for (std::uint32_t block : {1u, 4u, 16u, 64u}) {
        CacheConfig ccfg;
        ccfg.capacityBytes = 64 * 1024;
        ccfg.blockPoints = block;
        const auto fod = fetchOnDemandTraffic(maps, shape, ccfg);
        EXPECT_LT(fod.cache.missRate(), prev) << "block=" << block;
        prev = fod.cache.missRate();
    }
    EXPECT_LT(prev, 0.1); // large blocks: most accesses hit
}

TEST_F(FlowFixture, MissRateFallsWithChannels)
{
    CacheConfig ccfg;
    ccfg.capacityBytes = 64 * 1024;
    ccfg.blockPoints = 4;
    auto wide = shape;
    wide.inChannels = 128;
    const auto narrow = fetchOnDemandTraffic(maps, shape, ccfg);
    const auto wideRes = fetchOnDemandTraffic(maps, wide, ccfg);
    // Fig. 18: more channels -> more reuse per cached block.
    EXPECT_LT(wideRes.cache.missRate(), narrow.cache.missRate());
}

TEST_F(FlowFixture, MissRateFallsWithKernelSize)
{
    KernelMapConfig k2cfg;
    k2cfg.kernelSize = 2;
    const auto maps2 = sortKernelMap(cloud, cloud, k2cfg);
    CacheConfig ccfg;
    ccfg.capacityBytes = 64 * 1024;
    ccfg.blockPoints = 4;
    const auto k2 = fetchOnDemandTraffic(maps2, shape, ccfg);
    const auto k3 = fetchOnDemandTraffic(maps, shape, ccfg);
    EXPECT_LT(k3.cache.missRate(), k2.cache.missRate());
}

/**
 * Reference pricing: the loop nest of fetchOnDemandTraffic written out
 * in full, one FeatureCache access per map and input-channel tile.
 */
FetchOnDemandResult
perTileFetchOnDemand(const MapSet &maps, const SparseLayerShape &shape,
                     const CacheConfig &cache_cfg, std::uint32_t ic_tile)
{
    CacheConfig cfg = cache_cfg;
    cfg.blockChannels = shape.inChannels;
    const std::uint32_t out_tile = std::max<std::uint32_t>(
        cfg.blockPoints,
        cfg.capacityBytes / (shape.inChannels * shape.bytesPerFeature));
    FeatureCache cache(cfg, shape.inChannels);
    const std::uint32_t icTiles =
        (shape.inChannels + ic_tile - 1) / ic_tile;
    std::vector<std::size_t> cursor(maps.numWeights(), 0);
    for (std::uint32_t base = 0; base < shape.numOutputs; base += out_tile) {
        for (std::int32_t w = 0; w < maps.numWeights(); ++w) {
            const auto &group = maps.forWeight(w);
            std::size_t &pos = cursor[w];
            for (; pos < group.size() &&
                   static_cast<std::uint32_t>(group[pos].out) <
                       base + out_tile;
                 ++pos) {
                for (std::uint32_t ict = 0; ict < icTiles; ++ict)
                    cache.access(static_cast<std::uint32_t>(group[pos].in),
                                 ict * ic_tile);
            }
        }
    }
    FetchOnDemandResult r;
    r.cache = cache.stats();
    r.traffic.inputReadBytes = cache.stats().missBytes;
    r.traffic.outputWriteBytes = static_cast<std::uint64_t>(
                                     shape.numOutputs) *
                                 shape.outChannels * shape.bytesPerFeature;
    r.traffic.weightReadBytes =
        static_cast<std::uint64_t>(maps.numWeights()) * shape.inChannels *
        shape.outChannels * shape.bytesPerFeature;
    return r;
}

TEST_F(FlowFixture, OneLookupPerMapMatchesPerTilePricing)
{
    for (std::uint32_t channels : {4u, 64u, 65u, 384u}) {
        for (std::uint32_t block : {4u, 16u, 64u}) {
            for (std::uint32_t icTile : {16u, 64u}) {
                auto s = shape;
                s.inChannels = channels;
                CacheConfig ccfg;
                ccfg.blockPoints = block;
                const auto got = fetchOnDemandTraffic(maps, s, ccfg, icTile);
                const auto want = perTileFetchOnDemand(maps, s, ccfg, icTile);
                const std::string at = "channels=" +
                                       std::to_string(channels) +
                                       " block=" + std::to_string(block) +
                                       " ic_tile=" + std::to_string(icTile);
                EXPECT_EQ(got.cache.accesses, want.cache.accesses) << at;
                EXPECT_EQ(got.cache.misses, want.cache.misses) << at;
                EXPECT_EQ(got.cache.missBytes, want.cache.missBytes) << at;
                EXPECT_EQ(got.traffic.inputReadBytes,
                          want.traffic.inputReadBytes) << at;
                EXPECT_EQ(got.traffic.scratchWriteBytes,
                          want.traffic.scratchWriteBytes) << at;
                EXPECT_EQ(got.traffic.scratchReadBytes,
                          want.traffic.scratchReadBytes) << at;
                EXPECT_EQ(got.traffic.outputWriteBytes,
                          want.traffic.outputWriteBytes) << at;
                EXPECT_EQ(got.traffic.weightReadBytes,
                          want.traffic.weightReadBytes) << at;
            }
        }
    }
}

TEST_F(FlowFixture, ZeroChannelTileIsRejected)
{
    EXPECT_DEATH(fetchOnDemandTraffic(maps, shape, CacheConfig{}, 0),
                 "input-channel tile must be positive");
}

TEST(DenseTraffic, InOutOnce)
{
    const auto t = denseLayerTraffic(1000, 64, 128);
    EXPECT_EQ(t.inputReadBytes, 1000u * 64 * 2);
    EXPECT_EQ(t.outputWriteBytes, 1000u * 128 * 2);
    EXPECT_EQ(t.weightReadBytes, 64u * 128 * 2);
}

// ---------------------------------------------------------------- //
//                         Layer fusion                              //
// ---------------------------------------------------------------- //

TEST(Fusion, FusesEverythingWithAmpleBuffer)
{
    const std::vector<std::uint32_t> chain = {64, 64, 128, 128, 256};
    const auto plan = planFusion(chain, 4096, 64ULL * 1024 * 1024);
    ASSERT_EQ(plan.groups.size(), 1u);
    EXPECT_EQ(plan.groups[0].numLayers, 4u);
}

TEST(Fusion, SplitsWhenBufferTight)
{
    const std::vector<std::uint32_t> chain = {64, 64, 128, 128, 256};
    // Buffer fits barely one layer pair at the minimum tile.
    const auto plan = planFusion(chain, 4096, 16 * 1024);
    EXPECT_GT(plan.groups.size(), 1u);
    std::size_t covered = 0;
    for (const auto &g : plan.groups) {
        EXPECT_GE(g.numLayers, 1u);
        EXPECT_EQ(g.firstLayer, covered);
        covered += g.numLayers;
    }
    EXPECT_EQ(covered, chain.size() - 1);
}

TEST(Fusion, FusedTrafficLessThanLayerByLayer)
{
    const std::vector<std::uint32_t> chain = {64, 64, 64, 128, 1024};
    const std::uint32_t points = 8192;
    const auto plan = planFusion(chain, points, 512 * 1024);
    const auto fused = fusedTraffic(chain, points, plan);
    const auto unfused = layerByLayerTraffic(chain, points);
    EXPECT_LT(fused, unfused);
    // PointNet-style chains cut DRAM by ~half or better (Fig. 20).
    EXPECT_GT(1.0 - static_cast<double>(fused) /
                        static_cast<double>(unfused),
              0.3);
}

TEST(Fusion, SimulationRespectsPlannedFootprint)
{
    const std::vector<std::uint32_t> chain = {64, 128, 256};
    const std::uint32_t points = 2048;
    const std::uint64_t buffer = 256 * 1024;
    const auto plan = planFusion(chain, points, buffer);
    for (const auto &g : plan.groups) {
        const auto peak = simulateFusedExecution(chain, g, points);
        EXPECT_LE(peak, buffer) << "group at layer " << g.firstLayer;
    }
}

TEST(Fusion, SingleLayerChainDegenerates)
{
    const std::vector<std::uint32_t> chain = {64, 128};
    const auto plan = planFusion(chain, 1024, 1024);
    ASSERT_EQ(plan.groups.size(), 1u);
    EXPECT_EQ(plan.groups[0].numLayers, 1u);
    EXPECT_EQ(fusedTraffic(chain, 1024, plan),
              layerByLayerTraffic(chain, 1024));
}

class FusionBufferSweep : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FusionBufferSweep, MoreBufferNeverHurts)
{
    const std::vector<std::uint32_t> chain = {32, 64, 64, 128, 128, 256};
    const std::uint32_t points = 4096;
    const auto planSmall = planFusion(chain, points, GetParam());
    const auto planBig = planFusion(chain, points, GetParam() * 4);
    EXPECT_LE(fusedTraffic(chain, points, planBig),
              fusedTraffic(chain, points, planSmall));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FusionBufferSweep,
                         ::testing::Values(8 * 1024, 32 * 1024, 128 * 1024,
                                           1024 * 1024));

} // namespace
} // namespace pointacc
