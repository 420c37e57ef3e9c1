#include "sim/mapping_cost.hpp"

#include <algorithm>
#include <vector>

#include "core/logging.hpp"
#include "core/types.hpp"
#include "mpu/sorting_network.hpp"

namespace pointacc {

namespace {

std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** Elements per merger window: half the merger width, validated the
 *  way StreamMerger validates it. */
std::uint64_t
windowHalf(const MpuConfig &cfg)
{
    simAssert(cfg.mergerWidth >= 2 && isPowerOfTwo(cfg.mergerWidth),
              "merger width must be a power of two >= 2");
    return cfg.mergerWidth / 2;
}

/**
 * Cycles and comparisons of an arbitrary-length Sort/TopK through the
 * forwarding-loop merge tree (Fig. 10b/c), computed on run lengths
 * only. Mirrors StreamMerger::sort: initial windows are bitonic-sorted
 * one per cycle, then runs merge pairwise; with TopK every run is
 * truncated to k.
 */
MappingCost
sortCost(std::uint64_t n, std::uint64_t k, const MpuConfig &cfg)
{
    MappingCost c;
    if (n == 0)
        return c;
    const std::uint64_t half = windowHalf(cfg);

    // Stage ST: one window per cycle through the bitonic sorter.
    std::uint64_t runs = ceilDiv(n, half);
    c.cycles += runs;
    {
        // N/2-sorter: log^2 stages of N/4 comparators per window.
        std::uint64_t logn = 0;
        for (std::size_t s = half; s > 1; s /= 2)
            ++logn;
        c.comparisons += runs * logn * (logn + 1) / 2 * (half / 2);
    }
    c.sramBytes += n * cfg.elementBytes * 2; // read raw + write runs

    // Merge tree with truncation.
    std::vector<std::uint64_t> lens(runs - 1, half);
    lens.push_back(n - (runs - 1) * half);
    if (k > 0) {
        for (auto &len : lens)
            len = std::min(len, k);
    }
    while (lens.size() > 1) {
        std::vector<std::uint64_t> next;
        for (std::size_t i = 0; i + 1 < lens.size(); i += 2) {
            // Short runs pack into shared windows (BF buffering); a
            // truncating merge consumes both windows per cycle since
            // the upper output half is discarded.
            const std::uint64_t perCycle =
                k > 0 ? cfg.mergerWidth : half;
            const std::uint64_t windows =
                ceilDiv(lens[i] + lens[i + 1], perCycle);
            c.cycles += windows;
            c.comparisons += windows * mergeNetworkComparators(
                                           cfg.mergerWidth);
            c.sramBytes += windows * 3 * half * cfg.elementBytes;
            std::uint64_t merged = lens[i] + lens[i + 1];
            if (k > 0)
                merged = std::min(merged, k);
            next.push_back(merged);
        }
        if (lens.size() % 2 == 1)
            next.push_back(lens.back());
        lens = std::move(next);
    }
    return c;
}

} // namespace

MappingCost
kernelMapCost(std::uint64_t num_in, std::uint64_t num_out,
              int kernel_volume, const MpuConfig &cfg)
{
    MappingCost c;
    const std::uint64_t half = windowHalf(cfg);
    const std::uint64_t windows =
        ceilDiv(num_in, half) + ceilDiv(num_out, half);
    const auto volume = static_cast<std::uint64_t>(
        std::max(kernel_volume, 1));

    c.cycles = volume * windows;
    // Merge network plus the log N intersection-detector stages.
    std::uint64_t diStages = 0;
    for (std::size_t s = cfg.mergerWidth; s > 1; s /= 2)
        ++diStages;
    c.comparisons =
        volume * windows *
        (mergeNetworkComparators(cfg.mergerWidth) +
         diStages * cfg.mergerWidth);
    // Each pass streams both clouds through the sorter buffers and
    // writes the merged stream.
    c.sramBytes = volume * windows * 3 * half * cfg.elementBytes;
    return c;
}

MappingCost
fpsCost(std::uint64_t num_points, std::uint64_t num_samples,
        const MpuConfig &cfg)
{
    MappingCost c;
    if (num_samples == 0 || num_points == 0)
        return c;
    const std::uint64_t passes = num_samples > 0 ? num_samples - 1 : 0;
    c.cycles = passes * ceilDiv(num_points, cfg.distanceLanes);
    c.distanceOps = passes * num_points;
    c.comparisons = passes * 2 * num_points;
    c.sramBytes = passes * num_points * cfg.elementBytes * 2;
    return c;
}

MappingCost
knnCost(std::uint64_t num_inputs, std::uint64_t num_queries, int k,
        const MpuConfig &cfg, std::uint64_t survivors,
        std::uint32_t distance_dims)
{
    MappingCost c;
    if (num_inputs == 0 || num_queries == 0)
        return c;
    // Elements that reach the sorting stages: everything for plain
    // kNN; only in-radius candidates for ball query (the radius
    // comparator in stage CD drops the rest before stage ST).
    const std::uint64_t perQuerySorted =
        survivors > 0 ? std::max<std::uint64_t>(
                            1, ceilDiv(survivors, num_queries))
                      : num_inputs;
    const MappingCost sortPart = sortCost(
        perQuerySorted, static_cast<std::uint64_t>(std::max(k, 1)), cfg);
    // CD and the sort stages are consecutive pipeline stages (Fig. 7):
    // while one query's windows sort, the next query's distances
    // compute. Throughput is set by the slower stage.
    const std::uint64_t dimFactor =
        std::max<std::uint32_t>(distance_dims, 3) / 3;
    const std::uint64_t cdCycles =
        ceilDiv(num_inputs * dimFactor, cfg.distanceLanes);
    c.cycles = num_queries * std::max(cdCycles, sortPart.cycles);
    c.comparisons = num_queries * sortPart.comparisons;
    c.distanceOps = num_queries * num_inputs * dimFactor;
    c.sramBytes = num_queries * sortPart.sramBytes;
    return c;
}

MappingCost
quantizeCost(std::uint64_t num_points, const MpuConfig &cfg)
{
    // Bit clearing is free (wiring); constructing the deduplicated
    // output cloud is a full Sort plus an adjacent-equal compaction,
    // which shares the kernel-mapping DI hardware.
    MappingCost c = sortCost(num_points, 0, cfg);
    return c;
}

MappingCost
mappingOpCost(const MappingOpInfo &op, const MpuConfig &cfg)
{
    switch (op.kind) {
      case MappingOpKind::KernelMap:
        return kernelMapCost(op.inputPoints, op.outputPoints,
                             op.kernelVolume, cfg);
      case MappingOpKind::Fps:
        return fpsCost(op.inputPoints, op.outputPoints, cfg);
      case MappingOpKind::BallQuery:
      case MappingOpKind::Knn:
        return knnCost(op.inputPoints, op.outputPoints, op.k, cfg,
                       op.survivors, op.distanceDims);
      case MappingOpKind::Quantize:
        return quantizeCost(op.inputPoints, cfg);
    }
    panic("unreachable mapping op kind");
}

} // namespace pointacc
