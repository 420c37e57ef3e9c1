/**
 * @file
 * MappingUnit (MPU): the versatile ranking-based mapping engine.
 *
 * Section 4.1: all mapping operations are converted to point-cloud-
 * agnostic ranking operations executed on one sorting-network pipeline
 * with 6 stages — FetchCoords (FS), CalculateDistance (CD), Sort (ST),
 * Buffering (BF), MergeSort (MS), DetectIntersection (DI):
 *
 *  - farthest point sampling: Max over running distances (FS<->CD<->ST
 *    forwarding loop);
 *  - kNN / ball query:        TopK via truncated merge sort (BF<->MS);
 *  - kernel mapping:          shift, MergeSort with the output cloud,
 *                             DetectIntersection (DI enabled).
 *
 * Every operation returns both the functional result (bit-identical to
 * the references in src/mapping, enforced by tests) and MpuStats with
 * cycle and memory-access counts for the performance model.
 */

#ifndef POINTACC_MPU_MPU_HPP
#define POINTACC_MPU_MPU_HPP

#include "core/point_cloud.hpp"
#include "mapping/kernel_map.hpp"
#include "mapping/knn.hpp"
#include "mpu/stream_merger.hpp"

namespace pointacc {

/** Static configuration of the Mapping Unit. */
struct MpuConfig
{
    /** Merger width N: elements the bitonic merger handles per cycle.
     *  The paper's full design uses 64; Edge uses 32. */
    std::size_t mergerWidth = 64;
    /** Distance-calculation lanes in stage CD (parallel point-level
     *  distance evaluations per cycle). */
    std::size_t distanceLanes = 64;
    /** Bytes per ComparatorStruct in the sorter/merger buffers:
     *  63-bit packed key + 32-bit payload + flags = 13 bytes. */
    std::size_t elementBytes = 13;
};

/** Cycle and access statistics for one mapping operation. */
struct MpuStats
{
    std::uint64_t cycles = 0;
    std::uint64_t comparisons = 0;
    std::uint64_t distanceOps = 0;      ///< 3-D squared-distance evals
    std::uint64_t sramReadBytes = 0;    ///< sorter/merger buffer reads
    std::uint64_t sramWriteBytes = 0;   ///< sorter/merger buffer writes
    std::uint64_t mapsEmitted = 0;      ///< maps pushed to the Map FIFO

    MpuStats &
    operator+=(const MpuStats &o)
    {
        cycles += o.cycles;
        comparisons += o.comparisons;
        distanceOps += o.distanceOps;
        sramReadBytes += o.sramReadBytes;
        sramWriteBytes += o.sramWriteBytes;
        mapsEmitted += o.mapsEmitted;
        return *this;
    }
};

/** Result of a kernel-mapping run: maps plus hardware statistics. */
struct KernelMapResult
{
    MapSet maps;
    MpuStats stats;
};

/** Result of an output-cloud construction run. */
struct SamplingResult
{
    std::vector<PointIndex> indices;
    MpuStats stats;
};

/** Result of a neighbor-search run. */
struct NeighborResult
{
    Neighbors lists;
    MpuStats stats;
};

/** The Mapping Unit hardware model. */
class MappingUnit
{
  public:
    explicit MappingUnit(const MpuConfig &cfg = {});

    const MpuConfig &config() const { return cfg; }

    /**
     * Kernel mapping (SparseConv): for every kernel offset, shift the
     * input cloud, stream-merge with the output cloud and detect
     * intersections. Both clouds must be sorted and deduplicated.
     */
    KernelMapResult kernelMap(const PointCloud &input,
                              const PointCloud &output,
                              const KernelMapConfig &kcfg) const;

    /** Farthest point sampling of `num_samples` points. */
    SamplingResult farthestPointSampling(const PointCloud &cloud,
                                         std::size_t num_samples,
                                         PointIndex first = 0) const;

    /** k-nearest-neighbors of each query in `input`. */
    NeighborResult kNearestNeighbors(const PointCloud &input,
                                     const PointCloud &queries,
                                     int k) const;

    /** Ball query: kNN constrained to the scale's squared radius. */
    NeighborResult ballQuery(const PointCloud &input,
                             const PointCloud &queries,
                             const BallScale &scale) const;

    /** Standalone Sort of arbitrary length (used by tests/ablations). */
    ElementVec sort(ElementVec data, MpuStats &stats) const;

    /** Standalone TopK of arbitrary length (Fig. 10c dataflow). */
    ElementVec topK(ElementVec data, std::size_t k, MpuStats &stats) const;

  private:
    /** Convert merger-level stats into MPU stats with buffer traffic. */
    void foldMergeStats(const MergeStats &ms, MpuStats &stats) const;

    MpuConfig cfg;
    StreamMerger merger;
};

} // namespace pointacc

#endif // POINTACC_MPU_MPU_HPP
