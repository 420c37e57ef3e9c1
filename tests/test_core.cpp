/**
 * @file
 * Unit tests for the core module: coordinates, packing, point cloud
 * container, RNG determinism, statistics helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/point_cloud.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/types.hpp"

namespace pointacc {
namespace {

TEST(Coord3, LexicographicOrdering)
{
    EXPECT_LT(Coord3(0, 0, 0), Coord3(0, 0, 1));
    EXPECT_LT(Coord3(0, 9, 9), Coord3(1, 0, 0));
    EXPECT_LT(Coord3(-1, 5, 5), Coord3(0, 0, 0));
    EXPECT_EQ(Coord3(3, 4, 5), Coord3(3, 4, 5));
    EXPECT_GT(Coord3(1, 0, 0), Coord3(0, 100, 100));
}

TEST(Coord3, Arithmetic)
{
    const Coord3 a{1, 2, 3}, b{-4, 5, -6};
    EXPECT_EQ(a + b, Coord3(-3, 7, -3));
    EXPECT_EQ(a - b, Coord3(5, -3, 9));
    EXPECT_EQ(a * 3, Coord3(3, 6, 9));
}

TEST(Coord3, Distance2)
{
    EXPECT_EQ(Coord3(0, 0, 0).distance2({1, 2, 2}), 9);
    EXPECT_EQ(Coord3(-1, -1, -1).distance2({1, 1, 1}), 12);
    // Large coordinates must not overflow 32 bits.
    const Coord3 far1{1000000, 0, 0}, far2{-1000000, 0, 0};
    EXPECT_EQ(far1.distance2(far2), 4000000000000LL);
}

TEST(Coord3, Chebyshev)
{
    EXPECT_EQ(Coord3(0, 0, 0).chebyshev({1, -2, 1}), 2);
    EXPECT_EQ(Coord3(5, 5, 5).chebyshev({5, 5, 5}), 0);
}

TEST(Coord3, PackPreservesOrder)
{
    // Packing must preserve lexicographic order, including negatives.
    const std::vector<Coord3> coords = {
        {-100, 50, 3}, {-100, 50, 4}, {-1, -1, -1}, {0, 0, 0},
        {0, 0, 1},     {0, 1, -500},  {7, -3, 2},   {1000, 1000, 1000},
    };
    for (std::size_t i = 0; i + 1 < coords.size(); ++i) {
        EXPECT_LT(packCoord(coords[i]), packCoord(coords[i + 1]))
            << "at index " << i;
    }
}

TEST(Coord3, PackUnpackRoundTrip)
{
    Rng rng(42);
    for (int i = 0; i < 1000; ++i) {
        const Coord3 c{
            static_cast<std::int32_t>(rng.range(2000000)) - 1000000,
            static_cast<std::int32_t>(rng.range(2000000)) - 1000000,
            static_cast<std::int32_t>(rng.range(2000000)) - 1000000};
        EXPECT_EQ(unpackCoord(packCoord(c)), c);
    }
}

TEST(Coord3, PackedKeyRangeBoundary)
{
    const Coord3 lo{kPackedCoordMin, kPackedCoordMin, kPackedCoordMin};
    const Coord3 hi{kPackedCoordMax, kPackedCoordMax, kPackedCoordMax};
    EXPECT_EQ(kPackedCoordMin, -(1 << 20));
    EXPECT_EQ(kPackedCoordMax, (1 << 20) - 1);

    // The full field fits only without a margin.
    EXPECT_TRUE(fitsPackedKey(lo, hi, 0));
    EXPECT_FALSE(fitsPackedKey(lo, hi, 1));
    // A margin of m needs m cells of room on both sides of every axis.
    const Coord3 in1 = lo + Coord3{2, 2, 2};
    const Coord3 in2 = hi - Coord3{2, 2, 2};
    EXPECT_TRUE(fitsPackedKey(in1, in2, 2));
    EXPECT_FALSE(fitsPackedKey(in1, in2, 3));
    EXPECT_FALSE(fitsPackedKey(in1, in2 + Coord3{0, 0, 1}, 2));
    EXPECT_FALSE(fitsPackedKey(in1 - Coord3{0, 1, 0}, in2, 2));
    // Just past either end fails on any one axis.
    EXPECT_FALSE(fitsPackedKey({kPackedCoordMin - 1, 0, 0}, {0, 0, 0}, 0));
    EXPECT_FALSE(fitsPackedKey({0, 0, 0}, {0, kPackedCoordMax + 1, 0}, 0));
    EXPECT_FALSE(fitsPackedKey({0, 0, kPackedCoordMin - 1}, {0, 0, 0}, 0));

    // Why the predicate exists: outside the range packCoord wraps, and
    // 2^20 aliases -2^20.
    EXPECT_EQ(packCoord({kPackedCoordMax + 1, 0, 0}),
              packCoord({kPackedCoordMin, 0, 0}));
    EXPECT_EQ(unpackCoord(packCoord(hi)), hi);
    EXPECT_EQ(unpackCoord(packCoord(lo)), lo);

    // Inside the range a shift is one key subtraction, up to the edges.
    const std::uint64_t origin = packCoord({0, 0, 0});
    const Coord3 d{1, -1, 1};
    const Coord3 touchesEdges{kPackedCoordMin + 1, kPackedCoordMax - 1,
                              kPackedCoordMin + 1};
    for (const Coord3 &c : {touchesEdges, Coord3{kPackedCoordMax,
                                                 kPackedCoordMin,
                                                 kPackedCoordMax},
                            Coord3{5, -7, 9}}) {
        ASSERT_TRUE(fitsPackedKey(c - d, c - d, 0)) << c;
        EXPECT_EQ(packCoord(c - d), packCoord(c) - (packCoord(d) - origin))
            << c;
    }
}

TEST(Coord3, HashSpreadsValues)
{
    std::unordered_set<std::size_t> hashes;
    for (int x = 0; x < 16; ++x)
        for (int y = 0; y < 16; ++y)
            for (int z = 0; z < 16; ++z)
                hashes.insert(Coord3Hash{}(Coord3{x, y, z}));
    // All 4096 coordinates should hash distinctly (no structured
    // collisions on small grids).
    EXPECT_EQ(hashes.size(), 4096u);
}

TEST(FixedPoint, RoundTripResolution)
{
    EXPECT_EQ(fromFixed(toFixed(1.0f)), 1.0f);
    EXPECT_NEAR(fromFixed(toFixed(0.123f)), 0.123f,
                1.0f / (1 << kFixedPointFracBits));
    EXPECT_NEAR(fromFixed(toFixed(-5.67f)), -5.67f,
                1.0f / (1 << kFixedPointFracBits));
}

TEST(PointCloud, BasicAccessors)
{
    PointCloud pc({{1, 2, 3}, {4, 5, 6}}, 2);
    EXPECT_EQ(pc.size(), 2u);
    EXPECT_EQ(pc.channels(), 2);
    EXPECT_EQ(pc.coord(1), Coord3(4, 5, 6));
    pc.setFeature(0, 1, 3.5f);
    EXPECT_FLOAT_EQ(pc.feature(0, 1), 3.5f);
    EXPECT_FLOAT_EQ(pc.feature(1, 0), 0.0f);
}

TEST(PointCloud, BoundingBoxAndDensity)
{
    PointCloud pc({{0, 0, 0}, {1, 1, 1}, {3, 0, 0}});
    const auto box = pc.boundingBox();
    EXPECT_EQ(box.lo, Coord3(0, 0, 0));
    EXPECT_EQ(box.hi, Coord3(3, 1, 1));
    EXPECT_EQ(box.volume(), 4 * 2 * 2);
    EXPECT_DOUBLE_EQ(pc.density(), 3.0 / 16.0);
}

TEST(PointCloud, EmptyCloud)
{
    PointCloud pc;
    EXPECT_TRUE(pc.empty());
    EXPECT_DOUBLE_EQ(pc.density(), 0.0);
    EXPECT_TRUE(pc.isSorted());
    pc.sortByCoord();
    EXPECT_EQ(pc.dedupSorted(), 0u);
}

TEST(PointCloud, SortCarriesFeatures)
{
    PointCloud pc({{5, 0, 0}, {1, 0, 0}, {3, 0, 0}}, 1);
    pc.setFeature(0, 0, 50.0f);
    pc.setFeature(1, 0, 10.0f);
    pc.setFeature(2, 0, 30.0f);
    pc.sortByCoord();
    ASSERT_TRUE(pc.isSorted());
    EXPECT_FLOAT_EQ(pc.feature(0, 0), 10.0f);
    EXPECT_FLOAT_EQ(pc.feature(1, 0), 30.0f);
    EXPECT_FLOAT_EQ(pc.feature(2, 0), 50.0f);
}

TEST(PointCloud, DedupKeepsFirstOccurrence)
{
    PointCloud pc({{1, 1, 1}, {1, 1, 1}, {2, 2, 2}, {2, 2, 2}, {3, 3, 3}},
                  1);
    for (int i = 0; i < 5; ++i)
        pc.setFeature(i, 0, static_cast<float>(i));
    EXPECT_EQ(pc.dedupSorted(), 2u);
    ASSERT_EQ(pc.size(), 3u);
    EXPECT_FLOAT_EQ(pc.feature(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(pc.feature(1, 0), 2.0f);
    EXPECT_FLOAT_EQ(pc.feature(2, 0), 4.0f);
}

/**
 * Differential check of sortByCoord against std::stable_sort with
 * Coord3::operator<: coordinates, the features carried with them, and
 * the duplicate that a following dedupSorted keeps (the lowest input
 * index of each coordinate).
 */
void
expectSortMatchesStableSort(const std::vector<Coord3> &coords,
                            const std::string &what)
{
    PointCloud pc(coords, 2);
    for (std::size_t i = 0; i < coords.size(); ++i) {
        pc.setFeature(static_cast<PointIndex>(i), 0, static_cast<float>(i));
        pc.setFeature(static_cast<PointIndex>(i), 1, -static_cast<float>(i));
    }
    std::vector<std::size_t> order(coords.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return coords[a] < coords[b];
                     });

    pc.sortByCoord();
    ASSERT_EQ(pc.size(), coords.size()) << what;
    ASSERT_TRUE(pc.isSorted()) << what;
    for (std::size_t j = 0; j < order.size(); ++j) {
        const auto at = static_cast<PointIndex>(j);
        ASSERT_EQ(pc.coord(at), coords[order[j]]) << what << " at " << j;
        ASSERT_EQ(pc.feature(at, 0), static_cast<float>(order[j]))
            << what << " at " << j;
        ASSERT_EQ(pc.feature(at, 1), -static_cast<float>(order[j]))
            << what << " at " << j;
    }

    std::map<Coord3, std::size_t> firstIndex;
    for (std::size_t i = 0; i < coords.size(); ++i)
        firstIndex.emplace(coords[i], i);
    pc.dedupSorted();
    ASSERT_EQ(pc.size(), firstIndex.size()) << what;
    std::size_t j = 0;
    for (const auto &[coord, index] : firstIndex) {
        const auto at = static_cast<PointIndex>(j++);
        EXPECT_EQ(pc.coord(at), coord) << what;
        EXPECT_EQ(pc.feature(at, 0), static_cast<float>(index)) << what;
    }
}

TEST(PointCloud, SortByCoordMatchesStableSort)
{
    constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
    constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
    Rng rng(29);
    // Uniform in [lo, hi] (inclusive, any int32 bounds).
    const auto draw = [&](std::int32_t lo, std::int32_t hi) {
        const auto span = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(hi) - lo + 1);
        return static_cast<std::int32_t>(lo +
                                         static_cast<std::int64_t>(
                                             rng.range(span)));
    };
    const auto cloud = [&](std::size_t n, std::int32_t lo, std::int32_t hi) {
        std::vector<Coord3> c(n);
        for (auto &p : c)
            p = {draw(lo, hi), draw(lo, hi), draw(lo, hi)};
        return c;
    };

    expectSortMatchesStableSort({}, "empty");
    expectSortMatchesStableSort({{7, -8, 9}}, "single point");
    expectSortMatchesStableSort(std::vector<Coord3>(100, {-5, 3, kMin}),
                                "all equal");
    expectSortMatchesStableSort(cloud(3000, -3, 3), "heavy duplicates");
    expectSortMatchesStableSort(cloud(3000, -1000000, 1000000),
                                "negative and positive");
    // 96 key bits: both key words, every byte pass live.
    expectSortMatchesStableSort(cloud(3000, kMin, kMax), "full int32 range");

    // INT32_MIN and INT32_MAX on one axis, then on every axis, mixed
    // with duplicated small values on the others.
    const std::int32_t extremes[] = {kMin, kMax, kMin + 1, kMax - 1, 0, -1};
    for (int axis = 0; axis <= 3; ++axis) {
        std::vector<Coord3> c = cloud(2000, -2, 2);
        for (auto &p : c) {
            std::int32_t *v[] = {&p.x, &p.y, &p.z};
            for (int a = 0; a < 3; ++a)
                if (a == axis || axis == 3)
                    *v[a] = extremes[rng.range(6)];
        }
        expectSortMatchesStableSort(c, "extremes on axis " +
                                           std::to_string(axis));
    }
    // x and y span all of int32, z is constant: exactly 64 key bits.
    std::vector<Coord3> wide = cloud(2000, kMin, kMax);
    for (auto &p : wide)
        p.z = 42;
    wide.push_back({kMin, kMax, 42});
    wide.push_back({kMax, kMin, 42});
    expectSortMatchesStableSort(wide, "64 key bits");
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(2.0, 5.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(Rng, RangeBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.range(17), 17u);
}

TEST(Rng, GaussMoments)
{
    Rng rng(11);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gauss();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Stats, RegistryAccumulates)
{
    StatRegistry reg;
    reg.add("reads", 10);
    reg.add("reads", 5);
    reg.add("writes");
    EXPECT_EQ(reg.get("reads"), 15u);
    EXPECT_EQ(reg.get("writes"), 1u);
    EXPECT_EQ(reg.get("missing"), 0u);
    reg.clear();
    EXPECT_EQ(reg.get("reads"), 0u);
}

TEST(Stats, SummaryMoments)
{
    Summary s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.record(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 4.0);
}

TEST(Stats, GeomeanMatchesHandComputed)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
    EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, GeomeanRejectsNonPositiveSamples)
{
    // log(0) = -inf used to collapse the mean to 0 silently; a
    // negative sample used to poison it with NaN. Both now fail loud.
    EXPECT_THROW(geomean({1.0, 0.0, 4.0}), std::invalid_argument);
    EXPECT_THROW(geomean({-2.0}), std::invalid_argument);
    EXPECT_THROW(geomean({3.0, -1.0}), std::invalid_argument);
    // Empty stays the documented 0.0, not a throw.
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, PercentileSeesSameSizeMutations)
{
    // Regression: an earlier selection copy refreshed only when
    // samples.size() changed, so any same-size mutation (clear() +
    // re-record, a size-preserving merge sequence) selected over the
    // STALE values. Selection now runs in place over the samples, so
    // no copy can go stale; this pins that none comes back.
    Summary s;
    for (double v : {10.0, 20.0, 30.0})
        s.record(v);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 20.0); // permutes the samples

    s.clear();
    for (double v : {1.0, 2.0, 3.0}) // same count as before
        s.record(v);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 2.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 3.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
}

TEST(Stats, ClearResetsToFreshState)
{
    Summary s;
    s.record(5.0);
    s.record(7.0);
    s.clear();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
    s.record(9.0);
    EXPECT_DOUBLE_EQ(s.min(), 9.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 9.0);
}

TEST(Stats, MergeMatchesSingleSummaryRun)
{
    // merge(a, b) must equal one summary fed the union, in every
    // moment and percentile — the property the sharded bench relies
    // on when it folds per-shard reports into one.
    Summary a, b, all;
    for (double v : {5.0, 1.0, 9.0}) {
        a.record(v);
        all.record(v);
    }
    for (double v : {2.0, 14.0}) {
        b.record(v);
        all.record(v);
    }
    a.percentile(0.5); // permutes a's samples: merge must not care
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.sum(), all.sum());
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
    EXPECT_DOUBLE_EQ(a.mean(), all.mean());
    for (double p : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(a.percentile(p), all.percentile(p)) << p;
}

TEST(Stats, MergeHandlesEmptySummaries)
{
    Summary empty, s;
    s.record(3.0);
    s.merge(empty); // no-op
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.min(), 3.0);

    Summary into;
    into.merge(s); // empty absorbs: min/max come from the source
    EXPECT_EQ(into.count(), 1u);
    EXPECT_DOUBLE_EQ(into.min(), 3.0);
    EXPECT_DOUBLE_EQ(into.max(), 3.0);
    EXPECT_DOUBLE_EQ(into.percentile(0.5), 3.0);

    Summary e1, e2;
    e1.merge(e2);
    EXPECT_EQ(e1.count(), 0u);
}

/** The bits of a double, so equality also tells -0.0 from 0.0. */
std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

void
expectSameMoments(const Moments &m, const Summary &s)
{
    EXPECT_EQ(m.count(), s.count());
    EXPECT_EQ(bitsOf(m.sum()), bitsOf(s.sum()));
    EXPECT_EQ(bitsOf(m.min()), bitsOf(s.min()));
    EXPECT_EQ(bitsOf(m.max()), bitsOf(s.max()));
    EXPECT_EQ(bitsOf(m.mean()), bitsOf(s.mean()));
}

/** Values with repeats, negatives and mixed magnitudes, so the sum
 *  rounds differently in any other order. */
double
drawValue(Rng &rng)
{
    switch (rng.range(3)) {
      case 0:
        return static_cast<double>(rng.range(7)) - 3.0;
      case 1:
        return rng.uniform(-1e3, 1e3);
      default:
        return rng.uniform(-1.0, 1.0) * 1e-9;
    }
}

TEST(Stats, MomentsMatchSummary)
{
    // Moments must be Summary without the samples: the same count and
    // bit-equal sum, min, max and mean, whether the stream is recorded
    // whole or folded from 1-8 parts (empty ones included) in order.
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        const std::size_t parts = 1 + rng.range(8);
        std::vector<Moments> partMoments(parts);
        std::vector<Summary> partSummaries(parts);
        Moments whole;
        Summary wholeSummary;
        for (std::size_t p = 0; p < parts; ++p) {
            const std::size_t n = rng.range(3) == 0 ? 0 : rng.range(40);
            for (std::size_t i = 0; i < n; ++i) {
                const double v = drawValue(rng);
                partMoments[p].record(v);
                partSummaries[p].record(v);
                whole.record(v);
                wholeSummary.record(v);
            }
            expectSameMoments(partMoments[p], partSummaries[p]);
        }
        expectSameMoments(whole, wholeSummary);
        Moments folded;
        Summary foldedSummary;
        for (std::size_t p = 0; p < parts; ++p) {
            folded.merge(partMoments[p]);
            foldedSummary.merge(partSummaries[p]);
        }
        expectSameMoments(folded, foldedSummary);
        EXPECT_EQ(folded.count(), whole.count());
        folded.clear();
        expectSameMoments(folded, Summary());
    }
}

TEST(Stats, PercentileKeepsTheSampleMultiset)
{
    // percentile() selects in place, so it may reorder data() but
    // must keep its multiset and leave the moments alone.
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        Summary s;
        std::vector<double> recorded;
        const std::size_t n = 1 + rng.range(200);
        for (std::size_t i = 0; i < n; ++i) {
            const double v = drawValue(rng);
            s.record(v);
            recorded.push_back(v);
        }
        EXPECT_EQ(s.data(), recorded); // record order before any read
        std::sort(recorded.begin(), recorded.end());
        const Moments before = s.moments();
        for (double p : {0.99, 0.0, 0.5, 0.95, 1.0, 0.25, 0.5}) {
            const auto rank = static_cast<std::size_t>(
                p * static_cast<double>(n - 1) + 0.5);
            EXPECT_EQ(s.percentile(p), recorded[rank]) << p;
            std::vector<double> held = s.data();
            std::sort(held.begin(), held.end());
            EXPECT_EQ(held, recorded) << p;
            expectSameMoments(before, s);
        }
    }
}

} // namespace
} // namespace pointacc
