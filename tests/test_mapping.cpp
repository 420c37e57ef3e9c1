/**
 * @file
 * Tests for the functional mapping operations. The central property:
 * hash-based and mergesort-based kernel mapping are interchangeable —
 * they must produce identical MapSets on every cloud (this is the
 * correctness claim behind PointAcc's ranking-based Mapping Unit), in
 * the same order inside every weight group, since the memory and flow
 * models consume maps in that order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <set>
#include <string>

#include "core/rng.hpp"
#include "datasets/synthetic.hpp"
#include "mapping/fps.hpp"
#include "mapping/kernel_map.hpp"
#include "mapping/knn.hpp"
#include "mapping/quantize.hpp"

namespace pointacc {
namespace {

TEST(KernelOffsets, Size3Kernel)
{
    const auto offs = kernelOffsets(3, 1);
    ASSERT_EQ(offs.size(), 27u);
    EXPECT_EQ(offs.front(), Coord3(-1, -1, -1));
    EXPECT_EQ(offs[13], Coord3(0, 0, 0)); // center at the middle index
    EXPECT_EQ(offs.back(), Coord3(1, 1, 1));
}

TEST(KernelOffsets, EvenKernelIsForwardOnly)
{
    const auto offs = kernelOffsets(2, 1);
    ASSERT_EQ(offs.size(), 8u);
    EXPECT_EQ(offs.front(), Coord3(0, 0, 0));
    EXPECT_EQ(offs.back(), Coord3(1, 1, 1));
}

TEST(KernelOffsets, ScaledByTensorStride)
{
    const auto offs = kernelOffsets(3, 4);
    EXPECT_EQ(offs.front(), Coord3(-4, -4, -4));
    EXPECT_EQ(offs.back(), Coord3(4, 4, 4));
}

TEST(Quantize, MatchesPaperExamples)
{
    // Paper Section 2.1.1: point (3,5) at ts=1 quantizes to (2,4) at
    // ts=2; point (4,8) at ts=4 quantizes to (0,8)... wait: (4,8) at
    // ts=8 -> (0,8). Verify both.
    EXPECT_EQ(quantizeCoord({3, 5, 0}, 2), Coord3(2, 4, 0));
    EXPECT_EQ(quantizeCoord({4, 8, 0}, 8), Coord3(0, 8, 0));
}

TEST(Quantize, NegativeCoordinatesFloor)
{
    EXPECT_EQ(quantizeCoord({-1, -1, -1}, 2), Coord3(-2, -2, -2));
    EXPECT_EQ(quantizeCoord({-4, -5, -8}, 4), Coord3(-4, -8, -8));
}

TEST(Quantize, DownsampleDeduplicates)
{
    PointCloud in({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {4, 4, 4}});
    const auto out = quantizeDownsample(in, 2);
    ASSERT_EQ(out.size(), 2u); // three points collapse into cell (0,0,0)
    EXPECT_EQ(out.coord(0), Coord3(0, 0, 0));
    EXPECT_EQ(out.coord(1), Coord3(4, 4, 4));
    EXPECT_EQ(out.tensorStride(), 2);
}

TEST(Quantize, RepeatedDownsampleMatchesDirect)
{
    auto cloud = generate(DatasetKind::S3DIS, 21, 0.05);
    const auto two = quantizeDownsample(cloud, 2);
    const auto fourViaTwo = quantizeDownsample(two, 4);
    const auto fourDirect = quantizeDownsample(cloud, 4);
    EXPECT_EQ(fourViaTwo.coordinates(), fourDirect.coordinates());
}

/** A sorted, duplicate-free cloud of tensor stride `stride` built from
 *  `grid` coordinates scaled by the stride. */
PointCloud
strideCloud(std::vector<Coord3> grid, std::int32_t stride)
{
    for (auto &c : grid)
        c = c * stride;
    PointCloud cloud(std::move(grid));
    cloud.sortByCoord();
    cloud.dedupSorted();
    cloud.setTensorStride(stride);
    return cloud;
}

TEST(Quantize, DownsampleMapsMatchSortKernelMap)
{
    Rng rng(77);
    for (const std::int32_t stride : {1, 2, 4, 8}) {
        std::vector<std::pair<std::string, PointCloud>> clouds;
        std::vector<Coord3> spread;
        for (int i = 0; i < 600; ++i) {
            // Coordinates in [-20, 20]: negative cells floor downwards.
            const auto axis = [&] {
                return static_cast<std::int32_t>(rng.range(41)) - 20;
            };
            spread.push_back({axis(), axis(), axis()});
        }
        clouds.emplace_back("negative", strideCloud(spread, stride));
        clouds.emplace_back(
            "one coarse cell",
            strideCloud({{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {0, 1, 1},
                         {1, 0, 0}, {1, 0, 1}, {1, 1, 0}, {1, 1, 1}},
                        stride));
        clouds.emplace_back("single point", strideCloud({{-3, 5, 7}}, stride));
        clouds.emplace_back("empty", strideCloud({}, stride));

        for (const auto &[name, fine] : clouds) {
            for (const std::int32_t m : {2, 4}) {
                const std::string at = name + " stride " +
                                       std::to_string(stride) + " m " +
                                       std::to_string(m);
                const Downsample down = downsampleWithMaps(fine, stride * m);
                const PointCloud coarse =
                    quantizeDownsample(fine, stride * m);
                EXPECT_EQ(down.cloud.coordinates(), coarse.coordinates())
                    << at;
                EXPECT_EQ(down.cloud.tensorStride(), coarse.tensorStride())
                    << at;

                KernelMapConfig kcfg;
                kcfg.kernelSize = m;
                kcfg.inStride = stride;
                kcfg.outStride = stride * m;
                const MapSet fresh = sortKernelMap(fine, coarse, kcfg);
                ASSERT_EQ(down.maps.numWeights(), fresh.numWeights()) << at;
                EXPECT_EQ(down.maps.size(), fresh.size()) << at;
                for (std::int32_t w = 0; w < fresh.numWeights(); ++w)
                    EXPECT_EQ(down.maps.forWeight(w), fresh.forWeight(w))
                        << at << " weight " << w;
            }
        }
    }
}

TEST(Fps, SelectsRequestedCount)
{
    const auto cloud = makeObjectCloud(3, 300, 64);
    const auto sel = farthestPointSampling(cloud, 50);
    EXPECT_EQ(sel.size(), 50u);
    std::set<PointIndex> unique(sel.begin(), sel.end());
    EXPECT_EQ(unique.size(), 50u) << "FPS must not repeat points";
}

TEST(Fps, FirstTwoPointsAreExtremes)
{
    // The second FPS point is by definition the farthest from the seed.
    PointCloud cloud({{0, 0, 0}, {1, 0, 0}, {5, 0, 0}, {9, 0, 0}});
    const auto sel = farthestPointSampling(cloud, 2, 0);
    ASSERT_EQ(sel.size(), 2u);
    EXPECT_EQ(sel[0], 0);
    EXPECT_EQ(sel[1], 3);
}

TEST(Fps, CoverageBeatsRandomSampling)
{
    // Property: FPS minimizes the maximum gap. For points on a line,
    // selecting k of n by FPS must cover every point within n/k * 2.
    std::vector<Coord3> line;
    for (int i = 0; i < 256; ++i)
        line.push_back({i, 0, 0});
    PointCloud cloud(std::move(line));
    const auto sel = farthestPointSampling(cloud, 16);
    for (int i = 0; i < 256; ++i) {
        std::int64_t best = std::numeric_limits<std::int64_t>::max();
        for (auto s : sel)
            best = std::min(best, cloud.coord(s).distance2({i, 0, 0}));
        EXPECT_LE(best, 32LL * 32LL) << "gap at " << i;
    }
}

TEST(Fps, ClampToCloudSize)
{
    const auto cloud = makeObjectCloud(3, 100, 64);
    const auto sel = farthestPointSampling(cloud, 100000);
    EXPECT_EQ(sel.size(), cloud.size());
}

/** `n` points drawn uniformly from [lo, lo + extent) on each axis. */
PointCloud
randomBoxCloud(Rng &rng, std::size_t n, const Coord3 &lo,
               const Coord3 &extent)
{
    std::vector<Coord3> coords;
    for (std::size_t i = 0; i < n; ++i) {
        coords.push_back(
            {lo.x + static_cast<std::int32_t>(rng.range(extent.x)),
             lo.y + static_cast<std::int32_t>(rng.range(extent.y)),
             lo.z + static_cast<std::int32_t>(rng.range(extent.z))});
    }
    return PointCloud(std::move(coords));
}

/**
 * The O(n * m) incremental-minimum FPS loop the Mapping Unit runs: every
 * sample rescans the whole cloud, and the first maximum wins ties.
 * farthestPointSampling must select exactly this sequence.
 */
std::vector<PointIndex>
fullScanFps(const PointCloud &cloud, std::size_t num_samples,
            PointIndex first)
{
    const std::size_t n = cloud.size();
    num_samples = std::min(num_samples, n);
    std::vector<PointIndex> selected;
    if (num_samples == 0)
        return selected;
    selected.push_back(first);
    std::vector<std::int64_t> minDist(
        n, std::numeric_limits<std::int64_t>::max());
    PointIndex last = first;
    while (selected.size() < num_samples) {
        std::int64_t best = -1;
        PointIndex bestIdx = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const auto d = cloud.coord(static_cast<PointIndex>(i))
                               .distance2(cloud.coord(last));
            minDist[i] = std::min(minDist[i], d);
            if (minDist[i] > best) {
                best = minDist[i];
                bestIdx = static_cast<PointIndex>(i);
            }
        }
        selected.push_back(bestIdx);
        last = bestIdx;
    }
    return selected;
}

TEST(Fps, MatchesFullScanLoop)
{
    const auto expectSame = [](const PointCloud &cloud, std::size_t m,
                               PointIndex first, const std::string &what) {
        EXPECT_EQ(farthestPointSampling(cloud, m, first),
                  fullScanFps(cloud, m, first))
            << what << " n=" << cloud.size() << " m=" << m
            << " first=" << first;
    };
    // Object clouds: surfaces with empty space between them.
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        Rng rng(seed);
        const auto cloud = makeObjectCloud(
            seed, 50 + rng.range(1500),
            static_cast<std::int32_t>(16 + rng.range(200)));
        const std::size_t n = cloud.size();
        expectSame(cloud, 1 + rng.range(n),
                   static_cast<PointIndex>(rng.range(n)), "object");
    }
    // Tie-heavy boxes of extent 1-4, extent 1 being all duplicates; the
    // sample counts reach n and beyond, where points repeat.
    for (std::int32_t extent = 1; extent <= 4; ++extent) {
        for (std::uint64_t seed = 0; seed < 6; ++seed) {
            Rng rng(100 * extent + seed);
            const auto cloud = randomBoxCloud(
                rng, 20 + rng.range(300), {-2, 5, 0},
                {extent, extent, extent});
            const std::size_t n = cloud.size();
            const auto first = static_cast<PointIndex>(rng.range(n));
            for (const std::size_t m : {n / 2, n, n + 5})
                expectSame(cloud, m, first,
                           "ties extent " + std::to_string(extent));
        }
    }
    // Flat clouds: one axis has zero extent.
    for (int axis = 0; axis < 3; ++axis) {
        for (std::uint64_t seed = 0; seed < 4; ++seed) {
            Rng rng(200 + 10 * axis + seed);
            Coord3 extent{300, 300, 300};
            (axis == 0 ? extent.x : axis == 1 ? extent.y : extent.z) = 1;
            const auto cloud =
                randomBoxCloud(rng, 100 + rng.range(900), {-7, 3, 11}, extent);
            const std::size_t n = cloud.size();
            expectSame(cloud, n / 3, static_cast<PointIndex>(rng.range(n)),
                       "flat axis " + std::to_string(axis));
            expectSame(cloud, n, 0, "flat axis " + std::to_string(axis));
        }
    }
}

TEST(RandomSampling, DeterministicAndUnique)
{
    const auto cloud = makeObjectCloud(4, 400, 64);
    const auto a = randomSampling(cloud, 64, 5);
    const auto b = randomSampling(cloud, 64, 5);
    EXPECT_EQ(a, b);
    std::set<PointIndex> unique(a.begin(), a.end());
    EXPECT_EQ(unique.size(), 64u);
}

TEST(GatherPoints, CarriesFeatures)
{
    PointCloud cloud({{1, 0, 0}, {2, 0, 0}, {3, 0, 0}}, 1);
    cloud.setFeature(0, 0, 1.5f);
    cloud.setFeature(2, 0, 3.5f);
    const auto out = gatherPoints(cloud, {2, 0});
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out.coord(0), Coord3(3, 0, 0));
    EXPECT_FLOAT_EQ(out.feature(0, 0), 3.5f);
    EXPECT_FLOAT_EQ(out.feature(1, 0), 1.5f);
}

/**
 * Brute-force neighbour search: every (distance, index) pair within
 * radius2, then the k smallest by partial sort. This is the selection
 * kNearestNeighbors and ballQuery are checked against; its one
 * survivors entry is the in-radius count summed over queries.
 */
BallQueryResult
bruteForceNeighbors(const PointCloud &input, const PointCloud &queries,
                    int k, std::int64_t radius2)
{
    BallQueryResult result;
    result.survivors = {0};
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const Coord3 &qc = queries.coord(static_cast<PointIndex>(q));
        std::vector<std::pair<std::int64_t, PointIndex>> cands;
        for (std::size_t i = 0; i < input.size(); ++i) {
            const auto d =
                input.coord(static_cast<PointIndex>(i)).distance2(qc);
            if (d <= radius2)
                cands.emplace_back(d, static_cast<PointIndex>(i));
        }
        const std::size_t keep =
            std::min(static_cast<std::size_t>(k), cands.size());
        std::partial_sort(cands.begin(),
                          cands.begin() + static_cast<std::ptrdiff_t>(keep),
                          cands.end());
        for (std::size_t i = 0; i < keep; ++i) {
            result.lists.distances2.push_back(cands[i].first);
            result.lists.indices.push_back(cands[i].second);
        }
        result.lists.offsets.push_back(result.lists.indices.size());
        result.survivors[0] += cands.size();
    }
    return result;
}

constexpr std::int64_t kNoRadius = std::numeric_limits<std::int64_t>::max();

void
expectSameNeighbors(const Neighbors &got, const Neighbors &want,
                    const std::string &what)
{
    EXPECT_EQ(got.offsets, want.offsets) << what;
    EXPECT_EQ(got.indices, want.indices) << what;
    EXPECT_EQ(got.distances2, want.distances2) << what;
}

/** kNN and ball query of `input` around `queries` vs the oracle. */
void
expectMatchesOracle(const PointCloud &input, const PointCloud &queries,
                    int k, std::int64_t radius2, const std::string &what)
{
    expectSameNeighbors(
        kNearestNeighbors(input, queries, k),
        bruteForceNeighbors(input, queries, k, kNoRadius).lists,
        what + " knn k=" + std::to_string(k));
    const std::string ball = what + " ball k=" + std::to_string(k) +
                             " r2=" + std::to_string(radius2);
    const BallQueryResult got = ballQuery(input, queries, {{k, radius2}});
    const BallQueryResult want =
        bruteForceNeighbors(input, queries, k, radius2);
    expectSameNeighbors(got.lists, want.lists, ball);
    EXPECT_EQ(got.survivors, want.survivors) << ball;
}

/** Query q's input indices. */
std::vector<PointIndex>
listOf(const Neighbors &lists, std::size_t q)
{
    return {lists.indices.begin() +
                static_cast<std::ptrdiff_t>(lists.offsets[q]),
            lists.indices.begin() +
                static_cast<std::ptrdiff_t>(lists.offsets[q + 1])};
}

TEST(NeighborSearch, MatchesBruteForceOnRandomClouds)
{
    // Small grid extents put many points at equal distances, so the
    // index tie-break decides most of the lists.
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        Rng rng(seed);
        const auto extent = static_cast<std::int32_t>(8 + rng.range(56));
        const auto input =
            makeObjectCloud(seed, 40 + rng.range(400), extent);
        const auto queries =
            makeObjectCloud(seed + 1000, 1 + rng.range(40), extent);
        const int k = 1 + static_cast<int>(rng.range(40));
        const auto r2 = static_cast<std::int64_t>(rng.range(200));
        expectMatchesOracle(input, queries, k, r2,
                            "seed " + std::to_string(seed));
    }
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
        Rng rng(seed + 500);
        const int k = 1 + static_cast<int>(rng.range(24));
        // Flat clouds: one axis has zero extent; half the queries lie
        // in the cloud's plane, half off it.
        Coord3 extent{48, 48, 48};
        (seed % 3 == 0 ? extent.x : seed % 3 == 1 ? extent.y : extent.z) = 1;
        const auto flat = randomBoxCloud(rng, 30 + rng.range(300),
                                         {-20, 4, 9}, extent);
        const auto onPlane =
            randomBoxCloud(rng, 1 + rng.range(20), {-20, 4, 9}, extent);
        const auto offPlane =
            randomBoxCloud(rng, 1 + rng.range(20), {-30, -6, -1}, {68, 68, 68});
        const auto flatR2 = static_cast<std::int64_t>(rng.range(300));
        expectMatchesOracle(flat, onPlane, k, flatR2, "flat on plane");
        expectMatchesOracle(flat, offPlane, k, flatR2, "flat off plane");

        // Sparse clouds spanning most of the packed range (+-2^20).
        const Coord3 wide{2 * kPackedCoordMax, 2 * kPackedCoordMax,
                          2 * kPackedCoordMax};
        const Coord3 low{kPackedCoordMin + 1, kPackedCoordMin + 1,
                         kPackedCoordMin + 1};
        const auto sparse = randomBoxCloud(rng, 20 + rng.range(200), low, wide);
        const auto sparseQueries =
            randomBoxCloud(rng, 1 + rng.range(20), low, wide);
        const auto reach =
            static_cast<std::int64_t>(1 + rng.range(1 << 20));
        expectMatchesOracle(sparse, sparseQueries, k, reach * reach,
                            "sparse");

        // A single input point, queried from all around it.
        const auto single = randomBoxCloud(rng, 1, {-5, -5, -5}, {10, 10, 10});
        const auto around = randomBoxCloud(rng, 8, {-9, -9, -9}, {18, 18, 18});
        expectMatchesOracle(single, around, k, flatR2, "single point");
    }
}

TEST(NeighborSearch, MatchesBruteForceOnGridWithTies)
{
    // A full 5x5x5 grid queried at grid points, cell centres (on the
    // doubled grid) and outside corners: every distance is shared by
    // up to 24 points. At pitch 1 some point lies exactly on the bound
    // of the search's next ring, which only a strict stop keeps.
    for (const int pitch : {1, 2}) {
        std::vector<Coord3> grid;
        for (int x = 0; x < 5; ++x)
            for (int y = 0; y < 5; ++y)
                for (int z = 0; z < 5; ++z)
                    grid.push_back({pitch * x, pitch * y, pitch * z});
        const PointCloud input(grid);
        // Queries outside the grid on every side, with k up to and near
        // n, make the search reach the far end of the grid.
        const PointCloud queries(
            {{0, 0, 0}, {4, 4, 4}, {3, 3, 3}, {1, 4, 7}, {1, 1, 1},
             {-2, -2, -2}, {9, 4, 0}, {-5, 4, 4}, {13, 4, 4}, {4, -5, 4},
             {4, 13, 4}, {4, 4, -5}, {4, 4, 13}, {20, -20, 20}});
        for (const int k : {1, 6, 7, 19, 27, 64, 120, 124, 125})
            for (const std::int64_t r2 : {0, 3, 4, 8, 12, 27, 50, 1000})
                expectMatchesOracle(input, queries, k, r2,
                                    "grid pitch " + std::to_string(pitch));
    }
}

TEST(NeighborSearch, KAtAndBeyondInputSize)
{
    const PointCloud input({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0},
                            {5, 5, 5}});
    const PointCloud queries({{0, 0, 0}, {1, 1, 1}, {9, 9, 9}});
    for (const int k : {4, 5, 6, 50})
        expectMatchesOracle(input, queries, k, 3, "small");
    const auto lists = kNearestNeighbors(input, queries, 50);
    for (std::size_t q = 0; q < queries.size(); ++q)
        EXPECT_EQ(listOf(lists, q).size(), input.size());
}

TEST(NeighborSearch, EmptyCloudsAndEmptyBalls)
{
    const auto input = makeObjectCloud(3, 200, 32);
    expectMatchesOracle(input, PointCloud(), 8, 16, "no queries");
    EXPECT_EQ(kNearestNeighbors(input, PointCloud(), 8).queries(), 0u);
    expectMatchesOracle(PointCloud(), input, 8, 16, "no input");

    // Queries far outside the cloud: no point lies in the ball.
    const PointCloud far({{1000, 1000, 1000}, {-1000, 0, 0}});
    expectMatchesOracle(input, far, 8, 100, "far");
    const BallQueryResult balls = ballQuery(input, far, {{8, 100}});
    EXPECT_EQ(balls.lists.queries(), far.size());
    EXPECT_TRUE(balls.lists.indices.empty());
    EXPECT_EQ(balls.survivors, std::vector<std::uint64_t>{0});
}

TEST(NeighborSearchDeathTest, CoordinateExtentIsChecked)
{
    // 2^30 per axis is the widest span whose squared distances fit in
    // int64, counting the queries as well as the input.
    constexpr std::int32_t kEdge = 1 << 30;
    const PointCloud edge({{0, 0, 0}, {kEdge, 0, 0}, {0, 0, kEdge}});
    const PointCloud corners({{0, kEdge, 0}, {kEdge, kEdge, kEdge}});
    expectMatchesOracle(edge, corners, 2, std::int64_t{1} << 61, "edge");
    EXPECT_EQ(farthestPointSampling(edge, 3),
              (std::vector<PointIndex>{0, 1, 2}));

    const PointCloud below({{-1, 0, 0}});
    EXPECT_DEATH(kNearestNeighbors(edge, below, 1), "extent above 2\\^30");
    EXPECT_DEATH((ballQuery(below, edge, {{1, 4}})), "extent above 2\\^30");
    const PointCloud over({{0, 0, 0}, {0, kEdge + 1, 0}});
    EXPECT_DEATH(farthestPointSampling(over, 2), "extent above 2\\^30");
}

TEST(Knn, FindsExactNeighbors)
{
    PointCloud input({{0, 0, 0}, {2, 0, 0}, {5, 0, 0}, {100, 0, 0}});
    PointCloud queries({{1, 0, 0}});
    const auto lists = kNearestNeighbors(input, queries, 2);
    ASSERT_EQ(lists.queries(), 1u);
    ASSERT_EQ(lists.offsets[1], 2u);
    EXPECT_EQ(lists.indices[0], 0); // dist 1, tie-break lower index
    EXPECT_EQ(lists.indices[1], 1); // dist 1
    EXPECT_EQ(lists.distances2[0], 1);
    EXPECT_EQ(lists.distances2[1], 1);
}

TEST(Knn, DistancesNonDecreasing)
{
    const auto input = makeObjectCloud(6, 500, 64);
    const auto queries = makeObjectCloud(7, 40, 64);
    const auto lists = kNearestNeighbors(input, queries, 16);
    for (std::size_t q = 0; q < lists.queries(); ++q) {
        for (std::size_t i = lists.offsets[q] + 1; i < lists.offsets[q + 1];
             ++i)
            EXPECT_GE(lists.distances2[i], lists.distances2[i - 1]);
    }
}

TEST(BallQuery, RespectsRadius)
{
    const auto input = makeObjectCloud(8, 500, 64);
    const auto queries = makeObjectCloud(9, 30, 64);
    const std::int64_t r2 = 10 * 10;
    const auto lists = ballQuery(input, queries, {{8, r2}}).lists;
    for (std::size_t q = 0; q < lists.queries(); ++q) {
        EXPECT_LE(listOf(lists, q).size(), 8u);
        for (std::size_t i = lists.offsets[q]; i < lists.offsets[q + 1]; ++i)
            EXPECT_LE(lists.distances2[i], r2);
    }
}

TEST(BallQuery, SubsetOfKnn)
{
    const auto input = makeObjectCloud(10, 300, 64);
    const auto queries = makeObjectCloud(11, 20, 64);
    const std::int64_t r2 = 64;
    const auto knn = kNearestNeighbors(input, queries, 8);
    const auto ball = ballQuery(input, queries, {{8, r2}}).lists;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        // Ball query results = kNN results filtered by radius.
        std::vector<PointIndex> expected;
        for (std::size_t i = knn.offsets[q]; i < knn.offsets[q + 1]; ++i) {
            if (knn.distances2[i] <= r2)
                expected.push_back(knn.indices[i]);
        }
        EXPECT_EQ(listOf(ball, q), expected) << "query " << q;
    }
}

/** A lattice point, and a map of lattice points, both in int64. */
using Point64 = std::array<std::int64_t, 3>;
using LatticeMap = std::function<Point64(const Point64 &)>;

/** `cloud` with each point p moved to f(p); point i stays point i. */
PointCloud
mapCoords(const PointCloud &cloud, const LatticeMap &f)
{
    std::vector<Coord3> coords;
    for (const Coord3 &c : cloud.coordinates()) {
        const Point64 p = f({c.x, c.y, c.z});
        for (const std::int64_t v : p) {
            EXPECT_GE(v, std::numeric_limits<std::int32_t>::min());
            EXPECT_LE(v, std::numeric_limits<std::int32_t>::max());
        }
        coords.push_back({static_cast<std::int32_t>(p[0]),
                          static_cast<std::int32_t>(p[1]),
                          static_cast<std::int32_t>(p[2])});
    }
    return PointCloud(std::move(coords));
}

TEST(NeighborSearch, LatticeIsometriesLeaveResultsIdentical)
{
    // Distances are exact int64 and every search breaks ties by point
    // index, so a map that preserves every pairwise distance and every
    // index must leave kNN, multi-scale ball query (lists and
    // survivors) and FPS bit-identical. A relation catches only a bug
    // that breaks its symmetry, such as a wrong bound on one axis; the
    // brute-force oracles above catch the rest.
    using P = Point64;
    constexpr std::int64_t kTop = std::numeric_limits<std::int32_t>::max();
    constexpr std::int64_t kBottom = std::numeric_limits<std::int32_t>::min();
    constexpr std::int64_t kHalf = std::int64_t{1} << 29;
    struct Family
    {
        std::string name;
        PointCloud cloud;
        std::int64_t radius; ///< of the smallest ball scale
    };
    Rng wideRng(7);
    Rng shifts(5);
    const std::vector<Family> families = {
        {"object", makeObjectCloud(41, 1500, 128), 6},
        {"indoor", makeIndoorScene(42, 2500, 400), 12},
        {"outdoor", makeOutdoorScene(43, 2500, 2000), 40},
        // Spans the whole 2^30 search extent on every axis.
        {"wide",
         randomBoxCloud(wideRng, 400, {-kHalf, -kHalf, -kHalf},
                        {1 << 30, 1 << 30, 1 << 30}),
         kHalf / 4}};
    const auto shift = [](const P &t) -> LatticeMap {
        return [t](const P &p) {
            return P{p[0] + t[0], p[1] + t[1], p[2] + t[2]};
        };
    };
    const auto draw = [&] {
        return static_cast<std::int64_t>(shifts.range(2001)) - 1000;
    };
    for (const Family &fam : families) {
        const PointCloud &cloud = fam.cloud;
        const PointCloud queries = gatherPoints(
            cloud, farthestPointSampling(cloud, cloud.size() / 8));
        const std::int64_t r = fam.radius;
        const std::vector<BallScale> scales = {
            {8, r * r}, {16, 4 * r * r}, {32, 16 * r * r}};
        const std::size_t samples = cloud.size() / 4;
        const auto first = static_cast<PointIndex>(cloud.size() / 3);
        const Neighbors knn = kNearestNeighbors(cloud, queries, 16);
        const BallQueryResult balls = ballQuery(cloud, queries, scales);
        const auto fps = farthestPointSampling(cloud, samples, first);

        const BoundingBox box = cloud.boundingBox();
        const P lo = {box.lo.x, box.lo.y, box.lo.z};
        const P hi = {box.hi.x, box.hi.y, box.hi.z};
        const std::vector<std::pair<std::string, LatticeMap>> isometries = {
            {"random shift 1", shift({draw(), draw(), draw()})},
            {"random shift 2", shift({draw(), draw(), draw()})},
            // To the corners of the int32 range, and by +-2^30.
            {"shift to top",
             shift({kTop - hi[0], kTop - hi[1], kTop - hi[2]})},
            {"shift to bottom",
             shift({kBottom - lo[0], kBottom - lo[1], kBottom - lo[2]})},
            {"shift to mixed corner",
             shift({kTop - hi[0], kBottom - lo[1], kTop - hi[2]})},
            {"shift by 2^30", shift({1 << 30, -(1 << 30), 1 << 30})},
            {"rotate x", [](const P &p) { return P{p[0], -p[2], p[1]}; }},
            {"rotate y", [](const P &p) { return P{p[2], p[1], -p[0]}; }},
            {"rotate z", [](const P &p) { return P{-p[1], p[0], p[2]}; }},
            {"reflect x", [](const P &p) { return P{-p[0], p[1], p[2]}; }},
            {"reflect y", [](const P &p) { return P{p[0], -p[1], p[2]}; }},
            {"reflect z", [](const P &p) { return P{p[0], p[1], -p[2]}; }}};
        for (const auto &[name, f] : isometries) {
            const std::string what = fam.name + " " + name;
            const PointCloud movedCloud = mapCoords(cloud, f);
            const PointCloud movedQueries = mapCoords(queries, f);
            expectSameNeighbors(
                kNearestNeighbors(movedCloud, movedQueries, 16), knn,
                what + " knn");
            const BallQueryResult moved =
                ballQuery(movedCloud, movedQueries, scales);
            expectSameNeighbors(moved.lists, balls.lists, what + " ball");
            EXPECT_EQ(moved.survivors, balls.survivors) << what;
            EXPECT_EQ(farthestPointSampling(movedCloud, samples, first), fps)
                << what << " fps";
        }
    }
}

TEST(NeighborsToMaps, GroupsByRank)
{
    Neighbors lists;
    lists.offsets = {0, 2, 3};
    lists.indices = {5, 7, 3};
    lists.distances2 = {1, 2, 0};
    const auto maps = neighborsToMaps(lists, 2);
    EXPECT_EQ(maps.size(), 3u);
    EXPECT_EQ(maps.forWeight(0).in, (std::vector<PointIndex>{5, 3}));
    EXPECT_EQ(maps.forWeight(0).out, (std::vector<PointIndex>{0, 1}));
    EXPECT_EQ(maps.forWeight(1).in, (std::vector<PointIndex>{7}));
    EXPECT_EQ(maps.forWeight(1).out, (std::vector<PointIndex>{0}));
}

TEST(KernelMap, PaperFigure9Example)
{
    // Fig. 9: 2-D example embedded in z=0. Input/output clouds both
    // {(1,1),(2,2),(2,4),(3,2),(4,3)}; offset (-1,-1) (w_-1,-1) yields
    // exactly two maps: (p0,q1) and (p3,q4).
    PointCloud cloud({{1, 1, 0}, {2, 2, 0}, {2, 4, 0}, {3, 2, 0},
                      {4, 3, 0}});
    KernelMapConfig cfg;
    cfg.kernelSize = 3;
    const auto maps = sortKernelMap(cloud, cloud, cfg);

    // Weight index for delta (-1,-1,0) in the 27-offset enumeration:
    // dx=-1 -> 0, dy=-1 -> 0, dz=0 -> 1 => index 0*9 + 0*3 + 1 = 1.
    const auto &group = maps.forWeight(1);
    EXPECT_EQ(group.in, (std::vector<PointIndex>{0, 3}));
    EXPECT_EQ(group.out, (std::vector<PointIndex>{1, 4}));
}

TEST(KernelMap, CenterWeightIsIdentityWhenStride1)
{
    auto cloud = generate(DatasetKind::ModelNet40, 31, 0.25);
    KernelMapConfig cfg;
    const auto maps = sortKernelMap(cloud, cloud, cfg);
    const auto &center = maps.forWeight(13);
    ASSERT_EQ(center.size(), cloud.size());
    EXPECT_EQ(center.in, center.out);
}

TEST(KernelMap, HashAndSortAgreeOnAllDatasets)
{
    for (const auto &spec : allDatasetSpecs()) {
        auto input = generate(spec.kind, 17, 0.05);
        KernelMapConfig cfg;
        cfg.kernelSize = 3;

        auto hashMaps = hashKernelMap(input, input, cfg);
        auto sortMaps = sortKernelMap(input, input, cfg);
        hashMaps.sortGroups();
        sortMaps.sortGroups();
        ASSERT_EQ(hashMaps.size(), sortMaps.size()) << spec.name;
        for (std::int32_t w = 0; w < hashMaps.numWeights(); ++w)
            EXPECT_EQ(hashMaps.forWeight(w), sortMaps.forWeight(w))
                << spec.name << " weight " << w;
    }
}

TEST(KernelMap, StridedDownsampleAgreement)
{
    auto input = generate(DatasetKind::S3DIS, 23, 0.1);
    const auto output = quantizeDownsample(input, 2);
    KernelMapConfig cfg;
    cfg.kernelSize = 2;
    cfg.inStride = 1;
    cfg.outStride = 2;

    auto hashMaps = hashKernelMap(input, output, cfg);
    auto sortMaps = sortKernelMap(input, output, cfg);
    hashMaps.sortGroups();
    sortMaps.sortGroups();
    ASSERT_EQ(hashMaps.size(), sortMaps.size());
    for (std::int32_t w = 0; w < hashMaps.numWeights(); ++w)
        EXPECT_EQ(hashMaps.forWeight(w), sortMaps.forWeight(w));

    // Every input point lands in exactly one output cell across the 8
    // offsets of the k=2 downsampling kernel.
    EXPECT_EQ(hashMaps.size(), input.size());
}

TEST(KernelMap, TransposeInvertsDirection)
{
    auto input = generate(DatasetKind::ShapeNet, 29, 0.1);
    const auto output = quantizeDownsample(input, 2);
    KernelMapConfig cfg;
    cfg.kernelSize = 2;
    cfg.outStride = 2;
    const auto down = sortKernelMap(input, output, cfg);
    const auto up = transposeMaps(down, 2);
    EXPECT_EQ(up.size(), down.size());
    // Each transposed map must appear with in/out swapped.
    std::set<std::pair<PointIndex, PointIndex>> downPairs, upPairs;
    for (std::int32_t w = 0; w < down.numWeights(); ++w) {
        const auto &d = down.forWeight(w);
        const auto &u = up.forWeight(w);
        for (std::size_t j = 0; j < d.size(); ++j)
            downPairs.insert({d.in[j], d.out[j]});
        for (std::size_t j = 0; j < u.size(); ++j)
            upPairs.insert({u.out[j], u.in[j]});
    }
    EXPECT_EQ(downPairs, upPairs);
}

/** Every group's two columns hold exactly its maps: no spare
 *  capacity. */
void
expectExactGroups(const MapSet &maps, const std::string &what)
{
    for (std::int32_t w = 0; w < maps.numWeights(); ++w) {
        const auto &g = maps.forWeight(w);
        EXPECT_EQ(g.in.capacity(), g.size()) << what << " weight " << w;
        EXPECT_EQ(g.out.capacity(), g.size()) << what << " weight " << w;
    }
}

TEST(MapSet, ProducersSizeGroupsExactly)
{
    const auto fine = makeIndoorScene(5, 1500, 60);
    const auto coarse = quantizeDownsample(fine, 2);
    for (const int k : {2, 3, 5}) {
        const std::string at = " k=" + std::to_string(k);
        KernelMapConfig cfg;
        cfg.kernelSize = k;
        MapSet sub = sortKernelMap(fine, fine, cfg);
        expectExactGroups(sub, "submanifold" + at);
        if (k % 2 == 1) {
            for (std::int32_t w = sub.numWeights() / 2;
                 w < sub.numWeights(); ++w)
                sub.forWeight(w) = {};
            mirrorSubmanifoldMaps(sub, fine.size());
            expectExactGroups(sub, "mirrored" + at);
        }
        cfg.outStride = 2;
        const MapSet strided = sortKernelMap(fine, coarse, cfg);
        expectExactGroups(strided, "strided" + at);
        expectExactGroups(transposeMaps(strided, k), "transposed" + at);
    }
    for (const std::int32_t stride : {2, 4})
        expectExactGroups(downsampleWithMaps(fine, stride).maps,
                          "downsample " + std::to_string(stride));
    expectExactGroups(neighborsToMaps(kNearestNeighbors(coarse, fine, 8), 8),
                      "knn");
    expectExactGroups(
        neighborsToMaps(ballQuery(fine, coarse, {{16, 9}}).lists, 16, 4),
        "ball");
}

/** Group-for-group equality, in emission order (no sortGroups()). */
void
expectSameGroups(const MapSet &got, const MapSet &want,
                 const std::string &what)
{
    ASSERT_EQ(got.numWeights(), want.numWeights()) << what;
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::int32_t w = 0; w < want.numWeights(); ++w)
        EXPECT_EQ(got.forWeight(w), want.forWeight(w))
            << what << " weight " << w;
}

/** Every weight group is in ascending output index. */
void
expectAscendingOutputs(const MapSet &maps, const std::string &what)
{
    for (std::int32_t w = 0; w < maps.numWeights(); ++w) {
        const auto &out = maps.forWeight(w).out;
        EXPECT_TRUE(std::is_sorted(out.begin(), out.end()))
            << what << " weight " << w;
    }
}

enum class MapShape { Submanifold, Strided, Transposed };

class KernelMapOrder
    : public ::testing::TestWithParam<std::tuple<int, MapShape>>
{};

TEST_P(KernelMapOrder, SortEmitsHashOrder)
{
    const auto [kernelSize, shape] = GetParam();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto fine = makeIndoorScene(seed, 1500, 60);
        const auto coarse = quantizeDownsample(fine, 2);
        KernelMapConfig cfg;
        cfg.kernelSize = kernelSize;
        PointCloud input, output;
        switch (shape) {
          case MapShape::Submanifold:
            // Two distinct objects with equal coordinates, as the
            // executor's submanifold conv passes them.
            input = fine;
            output = PointCloud(fine.coordinates());
            break;
          case MapShape::Strided:
            input = fine;
            output = coarse;
            cfg.outStride = 2;
            break;
          case MapShape::Transposed:
            input = coarse;
            output = fine;
            cfg.inStride = 2;
            break;
        }
        const std::string what = "k=" + std::to_string(kernelSize) +
                                 " seed " + std::to_string(seed);
        const auto s = sortKernelMap(input, output, cfg);
        expectSameGroups(s, hashKernelMap(input, output, cfg), what);
        expectAscendingOutputs(s, what);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelMapOrder,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(MapShape::Submanifold,
                                         MapShape::Strided,
                                         MapShape::Transposed)));

TEST(KernelMap, SameSizeDifferentCoordinatesMatchHash)
{
    // Equal sizes but different coordinates: the submanifold shortcut
    // (mirrored groups, identity centre) must not apply.
    const auto cloud = makeIndoorScene(7, 1200, 50);
    std::vector<Coord3> shifted, moved = cloud.coordinates();
    for (const auto &c : cloud.coordinates())
        shifted.push_back(c + Coord3{1, 0, 0});
    moved.back() = moved.back() + Coord3{0, 0, 3};
    for (const auto &coords : {shifted, moved}) {
        const PointCloud other(coords);
        ASSERT_TRUE(other.isSorted());
        for (const int k : {3, 5}) {
            KernelMapConfig cfg;
            cfg.kernelSize = k;
            const std::string what = "k=" + std::to_string(k);
            expectSameGroups(sortKernelMap(cloud, other, cfg),
                             hashKernelMap(cloud, other, cfg), what);
            expectSameGroups(sortKernelMap(other, cloud, cfg),
                             hashKernelMap(other, cloud, cfg),
                             what + " reversed");
        }
    }
}

TEST(KernelMapDeathTest, PackedKeyRangeIsChecked)
{
    KernelMapConfig k3;
    k3.kernelSize = 3;
    KernelMapConfig k1;
    k1.kernelSize = 1;
    // Input shifted by the k=3 margin of 1 reaches both field edges.
    const PointCloud edge({{kPackedCoordMin + 1, 0, 0},
                           {kPackedCoordMin + 1, 1, 0},
                           {kPackedCoordMax - 1, 0, kPackedCoordMax - 1}});
    expectSameGroups(sortKernelMap(edge, edge, k3),
                     hashKernelMap(edge, edge, k3), "edge");
    // One step further: fits without a margin, not with one.
    const PointCloud over({{kPackedCoordMin, 0, 0},
                           {0, 0, kPackedCoordMax}});
    expectSameGroups(sortKernelMap(over, over, k1),
                     hashKernelMap(over, over, k1), "over k=1");
    EXPECT_DEATH(sortKernelMap(over, over, k3), "packed-key range");
    // The output is not shifted, so it needs no margin.
    expectSameGroups(sortKernelMap(edge, over, k3),
                     hashKernelMap(edge, over, k3), "edge to over");
    const PointCloud outside({{0, kPackedCoordMax + 1, 0}});
    EXPECT_DEATH(sortKernelMap(outside, outside, k1), "packed-key range");
    EXPECT_DEATH(sortKernelMap(edge, outside, k3), "packed-key range");
}

class KernelMapParams
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(KernelMapParams, HashSortEquivalenceSweep)
{
    const auto [kernelSize, seed] = GetParam();
    auto input = makeIndoorScene(static_cast<std::uint64_t>(seed), 2000,
                                 200);
    KernelMapConfig cfg;
    cfg.kernelSize = kernelSize;
    auto h = hashKernelMap(input, input, cfg);
    auto s = sortKernelMap(input, input, cfg);
    h.sortGroups();
    s.sortGroups();
    ASSERT_EQ(h.size(), s.size());
    for (std::int32_t w = 0; w < h.numWeights(); ++w)
        EXPECT_EQ(h.forWeight(w), s.forWeight(w));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelMapParams,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(1, 2, 3)));

} // namespace
} // namespace pointacc
