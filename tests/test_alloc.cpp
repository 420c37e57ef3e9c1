/**
 * @file
 * Heap-allocation ceiling for whole-network inference.
 *
 * This binary replaces the global operator new with a counting one, so
 * it stays out of the sanitizer builds: ASan's own operator new is what
 * checks new/delete pairing there. The count is taken on the second
 * Accelerator::run of each zoo network on its benchmark cloud, so
 * one-off set-up is not counted. Neighbour lists and maps are held as
 * columns, so an inference allocates per layer and per search, never
 * per query point; the ceiling fails when a per-point owner comes back.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "../bench/bench_util.hpp"
#include "nn/zoo.hpp"
#include "sim/accelerator.hpp"

namespace {

std::atomic<std::uint64_t> allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace pointacc {
namespace {

/** Most heap allocations one inference of a zoo network may make. */
constexpr std::uint64_t kMaxAllocationsPerInference = 2000;

TEST(Allocations, ZooInferenceStaysUnderCeiling)
{
    const Accelerator accel(pointAccConfig());
    for (const Network &net : allBenchmarks()) {
        const PointCloud cloud = bench::benchCloud(net);
        accel.run(net, cloud);
        const std::uint64_t before = allocations.load();
        accel.run(net, cloud);
        const std::uint64_t count = allocations.load() - before;
        std::printf("%-16s %6zu points %8llu allocations\n",
                    net.notation.c_str(), cloud.size(),
                    static_cast<unsigned long long>(count));
        EXPECT_LE(count, kMaxAllocationsPerInference) << net.notation;
    }
}

} // namespace
} // namespace pointacc
