/**
 * @file
 * Tests for the Mapping Unit hardware model. The load-bearing property:
 * every MPU operation is bit-identical to its functional reference in
 * src/mapping, while also reporting structurally-derived cycle counts.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/rng.hpp"
#include "datasets/synthetic.hpp"
#include "mapping/quantize.hpp"
#include "mapping/fps.hpp"
#include "mapping/kernel_map.hpp"
#include "mapping/knn.hpp"
#include "mpu/alt_engines.hpp"
#include "mpu/mpu.hpp"
#include "mpu/sorting_network.hpp"
#include "mpu/stream_merger.hpp"

namespace pointacc {
namespace {

ElementVec
randomElements(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    ElementVec v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(ComparatorStruct{rng.range(1000), static_cast<std::int32_t>(i), 0});
    return v;
}

bool
isSortedElems(const ElementVec &v)
{
    return std::is_sorted(v.begin(), v.end(),
                          [](const auto &a, const auto &b) { return a < b; });
}

// ---------------------------------------------------------------- //
//                        Sorting networks                           //
// ---------------------------------------------------------------- //

TEST(BitonicSort, SortsPowerOfTwoSizes)
{
    for (std::size_t n : {2u, 4u, 8u, 16u, 64u, 256u}) {
        auto v = randomElements(n, n);
        bitonicSort(v);
        EXPECT_TRUE(isSortedElems(v)) << "n=" << n;
    }
}

TEST(BitonicSort, StageCountIsLogSquared)
{
    auto v = randomElements(64, 1);
    const auto stats = bitonicSort(v);
    // N=64: log N = 6 -> 6*7/2 = 21 stages, each N/2 = 32 comparators.
    EXPECT_EQ(stats.stages, 21u);
    EXPECT_EQ(stats.compareExchanges, 21u * 32u);
}

TEST(BitonicMerge, MergesTwoSortedHalves)
{
    for (std::size_t n : {2u, 8u, 32u, 128u}) {
        auto v = randomElements(n, n + 7);
        std::sort(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n / 2));
        std::sort(v.begin() + static_cast<std::ptrdiff_t>(n / 2), v.end());
        const auto stats = bitonicMerge(v);
        EXPECT_TRUE(isSortedElems(v)) << "n=" << n;
        std::uint64_t logn = 0;
        for (std::size_t s = n; s > 1; s /= 2)
            ++logn;
        EXPECT_EQ(stats.stages, logn);
        EXPECT_EQ(stats.compareExchanges, logn * (n / 2));
    }
}

TEST(BitonicSort, PadElementsSinkToEnd)
{
    ElementVec v = randomElements(6, 3);
    v.push_back(padElement());
    v.push_back(padElement());
    bitonicSort(v);
    EXPECT_TRUE(isPad(v[6]));
    EXPECT_TRUE(isPad(v[7]));
    EXPECT_FALSE(isPad(v[0]));
}

// ---------------------------------------------------------------- //
//                        Stream merger                              //
// ---------------------------------------------------------------- //

TEST(StreamMerger, MergesArbitraryLengths)
{
    StreamMerger merger(8);
    for (std::size_t lenA : {0u, 1u, 3u, 4u, 17u, 100u}) {
        for (std::size_t lenB : {0u, 1u, 5u, 64u}) {
            auto a = randomElements(lenA, lenA * 131 + 1);
            auto b = randomElements(lenB, lenB * 17 + 2);
            for (auto &e : b)
                e.source = 1;
            std::sort(a.begin(), a.end());
            std::sort(b.begin(), b.end());

            MergeStats stats;
            const auto merged = merger.merge(a, b, stats);
            ASSERT_EQ(merged.size(), lenA + lenB);
            EXPECT_TRUE(isSortedElems(merged))
                << "lenA=" << lenA << " lenB=" << lenB;

            // Reference merge must agree element-for-element.
            ElementVec ref = a;
            ref.insert(ref.end(), b.begin(), b.end());
            std::sort(ref.begin(), ref.end());
            EXPECT_EQ(merged, ref);
        }
    }
}

TEST(StreamMerger, CycleCountIsWindowBound)
{
    // Merging two runs of 1000 with a 64-merger (window 32) must take
    // between max(ceil counts) and the sum of window counts.
    StreamMerger merger(64);
    auto a = randomElements(1000, 5);
    auto b = randomElements(1000, 6);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    MergeStats stats;
    merger.merge(a, b, stats);
    const std::uint64_t windowsA = (1000 + 31) / 32;
    const std::uint64_t windowsB = (1000 + 31) / 32;
    EXPECT_GE(stats.cycles, std::max(windowsA, windowsB));
    EXPECT_LE(stats.cycles, windowsA + windowsB);
}

TEST(StreamMerger, PaperFigure10aExample)
{
    // Fig. 10a: N=8 merger, two streams of 8 elements each (2-D coords
    // embedded at z=0). Verify the final merged order.
    const std::vector<Coord3> inCloud = {{0, 2, 0}, {1, 1, 0}, {1, 4, 0},
                                         {2, 0, 0}, {2, 3, 0}, {3, 2, 0},
                                         {3, 3, 0}, {4, 2, 0}};
    const std::vector<Coord3> outCloud = {{-1, 3, 0}, {0, 2, 0}, {0, 5, 0},
                                          {1, 1, 0},  {1, 4, 0}, {2, 3, 0},
                                          {2, 4, 0},  {3, 3, 0}};
    ElementVec a, b;
    for (std::size_t i = 0; i < inCloud.size(); ++i)
        a.push_back(coordElement(inCloud[i], static_cast<int>(i), 0));
    for (std::size_t i = 0; i < outCloud.size(); ++i)
        b.push_back(coordElement(outCloud[i], static_cast<int>(i), 1));

    StreamMerger merger(8);
    MergeStats stats;
    const auto merged = merger.merge(a, b, stats);
    ASSERT_EQ(merged.size(), 16u);
    EXPECT_TRUE(isSortedElems(merged));
    // First element must be (-1,3) from the output cloud.
    EXPECT_EQ(unpackCoord(merged[0].key), Coord3(-1, 3, 0));
    // Duplicated coordinates (0,2), (1,1), (1,4), (2,3), (3,3) must sit
    // adjacent with input (source 0) before output (source 1).
    int adjacentDupes = 0;
    for (std::size_t i = 0; i + 1 < merged.size(); ++i) {
        if (merged[i].key == merged[i + 1].key) {
            ++adjacentDupes;
            EXPECT_LT(merged[i].source, merged[i + 1].source);
        }
    }
    EXPECT_EQ(adjacentDupes, 5);
    // 8-merger consumes one 4-element window per cycle: 16 elements in
    // 4 windows minimum.
    EXPECT_GE(stats.cycles, 4u);
}

TEST(StreamMerger, SortArbitraryLength)
{
    StreamMerger merger(16);
    for (std::size_t n : {1u, 2u, 7u, 8u, 9u, 63u, 200u, 1000u}) {
        MergeStats stats;
        auto sorted = merger.sort(randomElements(n, n * 3 + 11), stats);
        ASSERT_EQ(sorted.size(), n);
        EXPECT_TRUE(isSortedElems(sorted)) << "n=" << n;
    }
}

TEST(StreamMerger, TopKMatchesSortPrefix)
{
    StreamMerger merger(16);
    for (std::size_t k : {1u, 4u, 16u, 33u}) {
        auto data = randomElements(500, k + 77);
        MergeStats s1, s2;
        auto full = merger.sort(data, s1);
        auto top = merger.sort(data, s2, k);
        ASSERT_EQ(top.size(), std::min<std::size_t>(k, 500));
        for (std::size_t i = 0; i < top.size(); ++i)
            EXPECT_EQ(top[i], full[i]) << "k=" << k << " i=" << i;
        // Truncation must reduce the merge workload.
        if (k <= 16) {
            EXPECT_LT(s2.cycles, s1.cycles);
        }
    }
}

TEST(DetectIntersection, FindsCrossSourceDuplicates)
{
    ElementVec merged = {
        {10, 0, 0}, {10, 5, 1}, {11, 1, 0}, {12, 2, 1},
        {13, 3, 0}, {13, 9, 1}, {14, 4, 1}, {14, 6, 1},
    };
    MergeStats stats;
    const auto matches = detectIntersection(merged, 8, stats);
    ASSERT_EQ(matches.size(), 2u);
    EXPECT_EQ(matches[0], std::make_pair(0, 5));
    EXPECT_EQ(matches[1], std::make_pair(3, 9));
    EXPECT_GT(stats.comparisons, 0u);
}

// ---------------------------------------------------------------- //
//                    MPU vs functional references                   //
// ---------------------------------------------------------------- //

class MpuKernelMap
    : public ::testing::TestWithParam<std::tuple<DatasetKind, int>>
{};

TEST_P(MpuKernelMap, MatchesSortKernelMap)
{
    const auto [kind, kernelSize] = GetParam();
    auto input = generate(kind, 13, 0.05);
    KernelMapConfig cfg;
    cfg.kernelSize = kernelSize;

    MappingUnit mpu;
    auto hw = mpu.kernelMap(input, input, cfg);
    auto ref = sortKernelMap(input, input, cfg);
    hw.maps.sortGroups();
    ref.sortGroups();
    ASSERT_EQ(hw.maps.size(), ref.size());
    for (std::int32_t w = 0; w < ref.numWeights(); ++w)
        EXPECT_EQ(hw.maps.forWeight(w), ref.forWeight(w)) << "w=" << w;

    EXPECT_GT(hw.stats.cycles, 0u);
    EXPECT_EQ(hw.stats.mapsEmitted, ref.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MpuKernelMap,
    ::testing::Combine(::testing::Values(DatasetKind::ModelNet40,
                                         DatasetKind::S3DIS,
                                         DatasetKind::SemanticKITTI),
                       ::testing::Values(2, 3)));

TEST(Mpu, KernelMapStridedDownsample)
{
    auto input = generate(DatasetKind::S3DIS, 41, 0.08);
    const auto output = quantizeDownsample(input, 2);
    KernelMapConfig cfg;
    cfg.kernelSize = 2;
    cfg.outStride = 2;

    MappingUnit mpu;
    auto hw = mpu.kernelMap(input, output, cfg);
    auto ref = sortKernelMap(input, output, cfg);
    hw.maps.sortGroups();
    ref.sortGroups();
    ASSERT_EQ(hw.maps.size(), ref.size());
    for (std::int32_t w = 0; w < ref.numWeights(); ++w)
        EXPECT_EQ(hw.maps.forWeight(w), ref.forWeight(w));
}

TEST(Mpu, KernelMapEmitsReferenceOrder)
{
    // Same groups in the same order as the functional reference, with
    // no canonicalisation, on a submanifold (distinct objects, equal
    // coordinates) and a strided map.
    auto input = generate(DatasetKind::S3DIS, 43, 0.05);
    const PointCloud same(input.coordinates());
    const auto coarse = quantizeDownsample(input, 2);
    MappingUnit mpu;
    const KernelMapConfig subm{3, 1, 1};
    const KernelMapConfig strided{2, 1, 2};
    for (const auto &[out, cfg] :
         {std::make_pair(&same, subm), std::make_pair(&coarse, strided)}) {
        const auto hw = mpu.kernelMap(input, *out, cfg);
        const auto ref = sortKernelMap(input, *out, cfg);
        ASSERT_EQ(hw.maps.size(), ref.size());
        for (std::int32_t w = 0; w < ref.numWeights(); ++w)
            EXPECT_EQ(hw.maps.forWeight(w), ref.forWeight(w)) << "w=" << w;
    }
}

TEST(MpuDeathTest, KernelMapChecksPackedKeyRange)
{
    MappingUnit mpu;
    const KernelMapConfig k3{3, 1, 1};
    const KernelMapConfig k1{1, 1, 1};
    const PointCloud edge({{kPackedCoordMin + 1, 0, 0},
                           {kPackedCoordMax - 1, 0, 0}});
    EXPECT_EQ(mpu.kernelMap(edge, edge, k3).maps.size(), 2u);
    const PointCloud over({{kPackedCoordMin, 0, 0},
                           {kPackedCoordMax, 0, 0}});
    EXPECT_EQ(mpu.kernelMap(over, over, k1).maps.size(), 2u);
    EXPECT_DEATH(mpu.kernelMap(over, over, k3), "packed-key range");
}

TEST(Mpu, KernelMapCyclesScaleWithKernelVolume)
{
    auto input = generate(DatasetKind::ShapeNet, 55, 0.2);
    MappingUnit mpu;
    KernelMapConfig k3{3, 1, 1};
    KernelMapConfig k1{1, 1, 1};
    const auto c3 = mpu.kernelMap(input, input, k3).stats.cycles;
    const auto c1 = mpu.kernelMap(input, input, k1).stats.cycles;
    // 27 offsets vs 1 offset: cycles should scale ~27x.
    EXPECT_GT(c3, c1 * 20);
    EXPECT_LT(c3, c1 * 34);
}

TEST(Mpu, FpsMatchesReference)
{
    const auto cloud = makeObjectCloud(61, 600, 64);
    MappingUnit mpu;
    const auto hw = mpu.farthestPointSampling(cloud, 64);
    const auto ref = farthestPointSampling(cloud, 64);
    EXPECT_EQ(hw.indices, ref);
    // m passes over n points with 64 lanes.
    const std::uint64_t expected =
        63ULL * ((cloud.size() + 63) / 64);
    EXPECT_GE(hw.stats.cycles, expected);
    EXPECT_EQ(hw.stats.distanceOps, 63ULL * cloud.size());

    // A dataset cloud at m = n/4: here the functional FPS skips most
    // blocks on most samples, and must still match the full scan.
    const auto scene = generate(DatasetKind::S3DIS, 61, 0.1);
    const std::size_t m = scene.size() / 4;
    EXPECT_EQ(mpu.farthestPointSampling(scene, m).indices,
              farthestPointSampling(scene, m));
}

/** A dataset cloud and its first n/4 FPS samples as queries. */
std::pair<PointCloud, PointCloud>
sceneAndSamples(std::uint64_t seed)
{
    auto scene = generate(DatasetKind::S3DIS, seed, 0.1);
    auto samples =
        gatherPoints(scene, farthestPointSampling(scene, scene.size() / 4));
    return {std::move(scene), std::move(samples)};
}

void
expectSameLists(const NeighborResult &hw, const Neighbors &ref,
                const char *what)
{
    EXPECT_EQ(hw.lists.offsets, ref.offsets) << what;
    EXPECT_EQ(hw.lists.indices, ref.indices) << what;
    EXPECT_EQ(hw.lists.distances2, ref.distances2) << what;
}

TEST(Mpu, KnnMatchesReference)
{
    const auto input = makeObjectCloud(71, 700, 96);
    const auto queries = makeObjectCloud(72, 50, 96);
    MappingUnit mpu;
    expectSameLists(mpu.kNearestNeighbors(input, queries, 16),
                    kNearestNeighbors(input, queries, 16), "object");

    // On a dataset cloud most queries stop after the first rings of
    // grid cells.
    const auto [scene, samples] = sceneAndSamples(71);
    expectSameLists(mpu.kNearestNeighbors(scene, samples, 16),
                    kNearestNeighbors(scene, samples, 16), "scene");
}

TEST(Mpu, BallQueryMatchesReference)
{
    const auto input = makeObjectCloud(81, 500, 96);
    const auto queries = makeObjectCloud(82, 40, 96);
    const std::int64_t r2 = 15 * 15;
    MappingUnit mpu;
    expectSameLists(mpu.ballQuery(input, queries, {8, r2}),
                    ballQuery(input, queries, {{8, r2}}).lists, "object");

    // On a dataset cloud each ball meets a few of many grid cells.
    const auto [scene, samples] = sceneAndSamples(81);
    const std::int64_t sceneR2 = 30 * 30; // some lists full, some short
    expectSameLists(mpu.ballQuery(scene, samples, {16, sceneR2}),
                    ballQuery(scene, samples, {{16, sceneR2}}).lists,
                    "scene");
}

TEST(Mpu, WiderMergerReducesCycles)
{
    auto input = generate(DatasetKind::S3DIS, 91, 0.1);
    KernelMapConfig cfg;
    MappingUnit narrow(MpuConfig{16, 16, 13});
    MappingUnit wide(MpuConfig{128, 128, 13});
    const auto cn = narrow.kernelMap(input, input, cfg).stats.cycles;
    const auto cw = wide.kernelMap(input, input, cfg).stats.cycles;
    EXPECT_GT(cn, cw * 4);
}

// ---------------------------------------------------------------- //
//                         Rival engines                             //
// ---------------------------------------------------------------- //

TEST(HashEngine, MatchesReferenceMaps)
{
    auto input = generate(DatasetKind::S3DIS, 101, 0.05);
    KernelMapConfig cfg;
    HashKernelMapper hashUnit(64);
    HashEngineStats stats;
    auto maps = hashUnit.map(input, input, cfg, stats);
    auto ref = hashKernelMap(input, input, cfg);
    maps.sortGroups();
    ref.sortGroups();
    ASSERT_EQ(maps.size(), ref.size());
    for (std::int32_t w = 0; w < ref.numWeights(); ++w)
        EXPECT_EQ(maps.forWeight(w), ref.forWeight(w));
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_EQ(stats.probes, input.size() * 27);
}

TEST(HashEngine, AreaMuchLargerThanMergeSorter)
{
    // Section 4.1.1: merge-based design saves up to 14x area at the
    // same parallelism (hash table sized for 1e5-point clouds).
    HashKernelMapper hashUnit(64);
    const double hashArea = hashUnit.areaUnits(65536);
    const double sorterArea = mergeSorterAreaUnits(64);
    EXPECT_GT(hashArea / sorterArea, 5.0);
    EXPECT_LT(hashArea / sorterArea, 30.0);
}

TEST(QuickSelect, MatchesTopK)
{
    for (std::size_t k : {1u, 8u, 32u}) {
        auto data = randomElements(512, k * 3 + 5);
        QuickSelectStats stats;
        auto qs = quickSelectTopK(data, k, 64, stats);
        std::sort(data.begin(), data.end());
        data.resize(k);
        EXPECT_EQ(qs, data) << "k=" << k;
        EXPECT_GT(stats.passes, 0u);
    }
}

TEST(QuickSelect, AllEqualKeysTerminates)
{
    ElementVec data(100);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = {42, static_cast<std::int32_t>(i), 0};
    QuickSelectStats stats;
    const auto out = quickSelectTopK(data, 10, 8, stats);
    EXPECT_EQ(out.size(), 10u);
}

TEST(QuickSelect, KLargerThanInput)
{
    auto data = randomElements(5, 3);
    QuickSelectStats stats;
    const auto out = quickSelectTopK(data, 100, 8, stats);
    EXPECT_EQ(out.size(), 5u);
    EXPECT_TRUE(isSortedElems(out));
}

} // namespace
} // namespace pointacc
