#include "mpu/mpu.hpp"

#include <algorithm>
#include <limits>

#include "core/logging.hpp"

namespace pointacc {

MappingUnit::MappingUnit(const MpuConfig &cfg_)
    : cfg(cfg_), merger(cfg_.mergerWidth)
{}

void
MappingUnit::foldMergeStats(const MergeStats &ms, MpuStats &stats) const
{
    stats.cycles += ms.cycles;
    stats.comparisons += ms.comparisons;
    // Each merge cycle reads one window from each stream buffer and
    // writes one window of results (double-buffered sorter/merger
    // SRAMs, Fig. 7).
    const std::uint64_t window = cfg.mergerWidth / 2;
    stats.sramReadBytes += ms.cycles * 2 * window * cfg.elementBytes;
    stats.sramWriteBytes += ms.cycles * window * cfg.elementBytes;
}

KernelMapResult
MappingUnit::kernelMap(const PointCloud &input, const PointCloud &output,
                       const KernelMapConfig &kcfg) const
{
    simAssert(input.isSorted(), "MPU kernel map requires sorted input");
    simAssert(output.isSorted(), "MPU kernel map requires sorted output");
    simAssert(kernelMapKeysFit(input, output, kcfg),
              "MPU kernel map: coordinates outside the packed-key range");

    const auto offsets = kernelOffsets(kcfg.kernelSize, kcfg.inStride);
    KernelMapResult result;
    result.maps = MapSet(static_cast<std::int32_t>(offsets.size()));

    // Pre-build the output-cloud element stream once (kept resident in
    // the sorter buffer across all kernel offsets).
    ElementVec outStream;
    outStream.reserve(output.size());
    for (std::size_t q = 0; q < output.size(); ++q) {
        outStream.push_back(
            coordElement(output.coord(static_cast<PointIndex>(q)),
                         static_cast<PointIndex>(q), 1));
    }

    for (std::int32_t w = 0;
         w < static_cast<std::int32_t>(offsets.size()); ++w) {
        const Coord3 delta = offsets[w];

        // Stage FS + CD: stream input coordinates, apply the -delta
        // shift (one adder per lane, fully pipelined with the merge, so
        // it adds no cycles beyond the merge consumption rate).
        ElementVec inStream;
        inStream.reserve(input.size());
        for (std::size_t i = 0; i < input.size(); ++i) {
            const Coord3 shifted =
                input.coord(static_cast<PointIndex>(i)) - delta;
            inStream.push_back(coordElement(
                shifted, static_cast<PointIndex>(i), 0));
        }

        // Stage MS: merge shifted input with the output cloud. Both are
        // already sorted (a constant shift preserves order), so no ST
        // pass is needed — exactly the hardware dataflow in Fig. 9.
        MergeStats ms;
        ElementVec merged = merger.merge(inStream, outStream, ms);
        foldMergeStats(ms, result.stats);

        // Stage DI: adjacent-equal detection (pipelined, no cycles).
        MergeStats di;
        const auto matches =
            detectIntersection(merged, cfg.mergerWidth, di);
        result.stats.comparisons += di.comparisons;

        for (const auto &[inIdx, outIdx] : matches)
            result.maps.add(Map{inIdx, outIdx, w});
        result.stats.mapsEmitted += matches.size();
        // Map FIFO writes: 12 bytes per (in, out, w) tuple.
        result.stats.sramWriteBytes += matches.size() * 12;
    }
    return result;
}

SamplingResult
MappingUnit::farthestPointSampling(const PointCloud &cloud,
                                   std::size_t num_samples,
                                   PointIndex first) const
{
    const std::size_t n = cloud.size();
    num_samples = std::min(num_samples, n);
    SamplingResult result;
    if (num_samples == 0)
        return result;
    simAssert(first >= 0 && static_cast<std::size_t>(first) < n,
              "FPS seed out of range");

    result.indices.reserve(num_samples);
    result.indices.push_back(first);

    // minDist lives in the sorter buffer payload (updated distances are
    // written back from stage CD to FS each pass, Fig. 7 blue path).
    std::vector<std::int64_t> minDist(
        n, std::numeric_limits<std::int64_t>::max());

    PointIndex last = first;
    while (result.indices.size() < num_samples) {
        const Coord3 &lastCoord = cloud.coord(last);
        std::int64_t best = -1;
        PointIndex bestIdx = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const auto d = cloud.coord(static_cast<PointIndex>(i))
                               .distance2(lastCoord);
            if (d < minDist[i])
                minDist[i] = d;
            if (minDist[i] > best) {
                best = minDist[i];
                bestIdx = static_cast<PointIndex>(i);
            }
        }
        result.indices.push_back(bestIdx);
        last = bestIdx;

        // Timing: one full pass of the cloud through the CD lanes; the
        // running max (arg max in stage ST) is pipelined behind it.
        result.stats.cycles += (n + cfg.distanceLanes - 1) /
                               cfg.distanceLanes;
        result.stats.distanceOps += n;
        result.stats.comparisons += 2 * n; // min-update + max-track
        // Each pass reads every element and writes back the updated
        // distance (key + payload).
        result.stats.sramReadBytes += n * cfg.elementBytes;
        result.stats.sramWriteBytes += n * cfg.elementBytes;
    }
    return result;
}

NeighborResult
MappingUnit::kNearestNeighbors(const PointCloud &input,
                               const PointCloud &queries, int k) const
{
    simAssert(k >= 1, "kNN requires k >= 1");
    NeighborResult result;
    result.lists.reserve(queries.size());

    for (std::size_t q = 0; q < queries.size(); ++q) {
        const Coord3 &qc = queries.coord(static_cast<PointIndex>(q));

        // Stage CD: distances from every input point to this query.
        ElementVec dists;
        dists.reserve(input.size());
        for (std::size_t i = 0; i < input.size(); ++i) {
            dists.push_back(distanceElement(
                input.coord(static_cast<PointIndex>(i)).distance2(qc),
                static_cast<PointIndex>(i)));
        }
        result.stats.distanceOps += input.size();
        result.stats.cycles += (input.size() + cfg.distanceLanes - 1) /
                               cfg.distanceLanes;

        // Stages ST/BF/MS: TopK via truncated merge sort (Fig. 10c).
        MergeStats ms;
        ElementVec top = merger.sort(std::move(dists), ms,
                                     static_cast<std::size_t>(k));
        foldMergeStats(ms, result.stats);

        NeighborList list;
        for (const auto &e : top) {
            list.indices.push_back(e.payload);
            list.distances2.push_back(static_cast<std::int64_t>(e.key));
        }
        result.stats.mapsEmitted += list.indices.size();
        result.lists.push_back(std::move(list));
    }
    return result;
}

NeighborResult
MappingUnit::ballQuery(const PointCloud &input, const PointCloud &queries,
                       int k, std::int64_t radius2) const
{
    // Ball query is kNN plus a threshold comparator on the final k
    // elements (Section 2.1.2): same dataflow, same cycles.
    NeighborResult result = kNearestNeighbors(input, queries, k);
    for (auto &list : result.lists) {
        std::size_t keep = 0;
        while (keep < list.distances2.size() &&
               list.distances2[keep] <= radius2) {
            ++keep;
        }
        list.indices.resize(keep);
        list.distances2.resize(keep);
        result.stats.comparisons += static_cast<std::uint64_t>(k);
    }
    return result;
}

ElementVec
MappingUnit::sort(ElementVec data, MpuStats &stats) const
{
    MergeStats ms;
    ElementVec out = merger.sort(std::move(data), ms);
    foldMergeStats(ms, stats);
    return out;
}

ElementVec
MappingUnit::topK(ElementVec data, std::size_t k, MpuStats &stats) const
{
    MergeStats ms;
    ElementVec out = merger.sort(std::move(data), ms, k);
    foldMergeStats(ms, stats);
    return out;
}

} // namespace pointacc
