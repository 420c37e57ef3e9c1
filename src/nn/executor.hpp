/**
 * @file
 * Network executor: walks a network over a concrete point cloud and
 * emits one LayerWork per matrix operation, with real MapSets built by
 * the functional mapping references.
 *
 * Both the PointAcc simulator and the baseline platform models consume
 * LayerWork. Emitting through a visitor keeps memory bounded: maps of
 * a full-scale MinkowskiUNet level are tens of MB, and the maps alive
 * during a walk are the current stage's submanifold or EdgeConv maps
 * plus, for each open level (one per encoder level not yet
 * upsampled), its downsample's maps and the groups before the centre
 * of its stage's submanifold maps (all of them for an even kernel).
 *
 * Each distinct map is built once. Submanifold convs leave the cloud
 * unchanged, so every one of a stage with the same kernel size shares
 * one MapSet; likewise every EdgeConv over one cloud with the same k
 * shares one kNN MapSet. A transposed conv transposes the maps its
 * downsample built, and hands the decoder stage at that stride the
 * encoder stage's submanifold maps, restored in full from the held
 * half by mirrorSubmanifoldMaps: a MinkowskiUNet builds them once per
 * resolution. A downsample whose kernel size equals its stride
 * multiplier (every zoo downsample) reads its maps off the quantize
 * sort (downsampleWithMaps); other kernel/stride pairs merge with
 * sortKernelMap. The scales of a multi-scale set abstraction share one
 * ball query, each cutting the lists at its own radius and k. Every
 * layer still reports its own mapping ops, so the modelled mapping cost
 * is per layer.
 *
 * Each sparse LayerWork carries `mapsId`, the identity of its MapSet
 * within the walk, so a consumer can reuse work done on the same maps
 * (the accelerator prices consecutive layers over one MapSet with one
 * cache walk).
 */

#ifndef POINTACC_NN_EXECUTOR_HPP
#define POINTACC_NN_EXECUTOR_HPP

#include <functional>

#include "core/point_cloud.hpp"
#include "mapping/maps.hpp"
#include "nn/network.hpp"

namespace pointacc {

/** Mapping operations a layer performs before its matrix op. */
enum class MappingOpKind
{
    Quantize,  ///< coordinate quantization (output construction)
    KernelMap, ///< SparseConv neighbor search
    Fps,       ///< farthest point sampling (output construction)
    BallQuery, ///< PointNet++ neighbor search
    Knn,       ///< kNN neighbor search (DGCNN / FP interpolation)
};

/** Cost-relevant parameters of one mapping operation. */
struct MappingOpInfo
{
    MappingOpKind kind = MappingOpKind::KernelMap;
    std::uint64_t inputPoints = 0;  ///< searched cloud size
    std::uint64_t outputPoints = 0; ///< constructed/query cloud size
    int k = 0;                      ///< neighbors (TopK) if applicable
    int kernelVolume = 0;           ///< offsets for kernel mapping
    /** Total TopK candidates across queries (ball query pre-filters by
     *  radius in stage CD, so only in-ball elements reach the sorter);
     *  0 means "all inputPoints per query". */
    std::uint64_t survivors = 0;
    /** Dimensionality of the distance metric: 3 for geometric search,
     *  the feature width for graph-based (feature-space) kNN, which
     *  multiplies distance-evaluation cost on every engine. */
    std::uint32_t distanceDims = 3;
};

/** One matrix operation plus the mapping work that precedes it. */
struct LayerWork
{
    std::string name;
    /** True for FC / per-point (or per-edge) MLP layers. */
    bool isDense = false;
    /** Rows streamed through the matrix unit (points, maps or edges). */
    std::uint64_t numIn = 0;  ///< input points (gather domain)
    std::uint64_t numOut = 0; ///< output points (scatter domain)
    std::uint32_t cin = 0;
    std::uint32_t cout = 0;
    /** Maps of sparse layers; nullptr for dense layers. Valid only
     *  during the visit: later layers may share or drop them. */
    const MapSet *maps = nullptr;
    /** Identity of `maps` within one executeNetwork walk: layers that
     *  share a MapSet share its id, and every map set built,
     *  transposed or derived gets a new one (the address is no
     *  identity, as one address holds many map sets in turn). A
     *  decoder stage's restored submanifold maps keep the id of the
     *  encoder stage that built them. 0 for dense layers. */
    std::uint64_t mapsId = 0;
    /** Mapping operations executed before this matrix op. */
    std::vector<MappingOpInfo> mappingOps;
    /** Useful multiply-accumulates of the matrix op. */
    std::uint64_t macs = 0;
    /** Consecutive dense layers share a chain id (fusion candidates);
     *  -1 for sparse layers. */
    std::int32_t denseChainId = -1;
};

using LayerVisitor = std::function<void(const LayerWork &)>;

/**
 * Execute `net` on `input`, invoking `visit` once per matrix op in
 * order. The input cloud must be sorted and deduplicated with tensor
 * stride 1.
 */
void executeNetwork(const Network &net, const PointCloud &input,
                    const LayerVisitor &visit);

/** Aggregate counts used by the analytical baseline models. */
struct WorkloadSummary
{
    std::uint64_t inputPoints = 0;
    std::uint64_t numMatrixOps = 0;
    std::uint64_t numMappingOps = 0;
    std::uint64_t totalMacs = 0;
    std::uint64_t denseMacs = 0;
    std::uint64_t sparseMacs = 0;
    std::uint64_t totalMaps = 0;        ///< gather/scatter rows
    std::uint64_t gatherScatterBytes = 0; ///< GPU-flow DRAM traffic
    std::uint64_t fpsWork = 0;          ///< sum of n*m distance evals
    std::uint64_t neighborWork = 0;     ///< sum of n*q distance evals
    std::uint64_t kernelMapWork = 0;    ///< sum of (nIn+nOut)*volume
    std::uint64_t peakFeatureBytes = 0; ///< largest layer feature map
    std::uint64_t weightBytes = 0;      ///< total parameter bytes
};

/** Run the executor with an aggregating visitor. */
WorkloadSummary summarizeWorkload(const Network &net,
                                  const PointCloud &input);

/** Paper Fig. 5 per-network characterization. */
struct NetworkCharacteristics
{
    std::uint64_t macsPerPoint = 0;
    double featureBytesPerPoint = 0.0;
    std::uint64_t params = 0;
};

NetworkCharacteristics characterize(const Network &net,
                                    const PointCloud &input);

} // namespace pointacc

#endif // POINTACC_NN_EXECUTOR_HPP
