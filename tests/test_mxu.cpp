/**
 * @file
 * Tests for the Matrix Unit systolic-array model.
 */

#include <gtest/gtest.h>

#include "datasets/synthetic.hpp"
#include "mapping/kernel_map.hpp"
#include "mxu/systolic.hpp"

namespace pointacc {
namespace {

TEST(Mxu, PeakMacsPerCycle)
{
    EXPECT_EQ(MatrixUnit(MxuConfig{64, 64}).peakMacsPerCycle(), 4096u);
    EXPECT_EQ(MatrixUnit(MxuConfig{16, 16}).peakMacsPerCycle(), 256u);
}

TEST(Mxu, DenseMatmulMacCount)
{
    MatrixUnit mxu(MxuConfig{64, 64});
    const auto s = mxu.denseMatmul(1000, 64, 64);
    EXPECT_EQ(s.macs, 1000ULL * 64 * 64);
}

TEST(Mxu, DenseMatmulCyclesNearStreamLength)
{
    // A single-tile matmul should take ~points cycles (+ fill/drain).
    MatrixUnit mxu(MxuConfig{64, 64});
    const auto s = mxu.denseMatmul(100000, 64, 64);
    EXPECT_GE(s.cycles, 100000u);
    EXPECT_LE(s.cycles, 100000u + 3 * 64 + 8);
    EXPECT_GT(s.utilization(), 0.99);
}

TEST(Mxu, TilingMultipliesPasses)
{
    MatrixUnit mxu(MxuConfig{64, 64});
    const auto one = mxu.denseMatmul(10000, 64, 64);
    const auto four = mxu.denseMatmul(10000, 128, 128);
    // 2x2 channel tiles: four streaming passes.
    EXPECT_GT(four.cycles, 3 * one.cycles);
    EXPECT_LT(four.cycles, 5 * one.cycles);
    EXPECT_EQ(four.macs, 10000ULL * 128 * 128);
}

TEST(Mxu, RaggedTilesLowerUtilization)
{
    MatrixUnit mxu(MxuConfig{64, 64});
    const auto ragged = mxu.denseMatmul(10000, 65, 65);
    EXPECT_LT(ragged.utilization(), 0.5);
    EXPECT_EQ(ragged.macs, 10000ULL * 65 * 65);
}

TEST(Mxu, SmallEdgeArrayTakesMoreCycles)
{
    MatrixUnit big(MxuConfig{64, 64});
    MatrixUnit small(MxuConfig{16, 16});
    const auto b = big.denseMatmul(4096, 64, 64);
    const auto s = small.denseMatmul(4096, 64, 64);
    // 16x smaller array -> ~16x more cycles.
    EXPECT_GT(s.cycles, 12 * b.cycles);
    EXPECT_LT(s.cycles, 20 * b.cycles);
}

TEST(Mxu, SparseConvMacsMatchMaps)
{
    auto cloud = generate(DatasetKind::ShapeNet, 5, 0.2);
    KernelMapConfig kcfg;
    const auto maps = sortKernelMap(cloud, cloud, kcfg);
    MatrixUnit mxu(MxuConfig{64, 64});
    const auto s = mxu.sparseConv(maps, 64, 64);
    EXPECT_EQ(s.macs, maps.size() * 64ULL * 64ULL);
    EXPECT_GE(s.cycles, maps.size());
}

TEST(Mxu, SparseConvSkipsEmptyWeightGroups)
{
    MapSet maps(27);
    maps.forWeight(13).push(0, 0); // only the center weight has a map
    MatrixUnit mxu(MxuConfig{64, 64});
    const auto s = mxu.sparseConv(maps, 64, 64);
    // Only one tile pass: fill + 1 + drain, not 27 passes.
    EXPECT_LT(s.cycles, 4u * 64u);
}

TEST(Mxu, ZeroWork)
{
    MatrixUnit mxu;
    EXPECT_EQ(mxu.denseMatmul(0, 64, 64).cycles, 0u);
    EXPECT_EQ(mxu.denseMatmul(10, 0, 64).cycles, 0u);
}

TEST(Mxu, SramTrafficAccounting)
{
    MatrixUnit mxu(MxuConfig{64, 64});
    const auto s = mxu.denseMatmul(1000, 64, 64);
    EXPECT_EQ(s.inputSramBytes, 1000ULL * 64 * 2);
    EXPECT_EQ(s.weightSramBytes, 64ULL * 64 * 2);
    EXPECT_EQ(s.outputSramBytes, 2ULL * 1000 * 64 * 2);
}

} // namespace
} // namespace pointacc
