#include "nn/executor.hpp"

#include <algorithm>
#include <utility>

#include "core/logging.hpp"
#include "mapping/fps.hpp"
#include "mapping/kernel_map.hpp"
#include "mapping/knn.hpp"
#include "mapping/quantize.hpp"

namespace pointacc {

namespace {

/** A submanifold MapSet with the kernel size and LayerWork::mapsId it
 *  was built with; kernel 0 when there is none. */
struct StageMaps
{
    MapSet maps;
    int kernel = 0;
    std::uint64_t id = 0;
};

/** One open encoder level: the finer cloud, the maps of the downsample
 *  that left it (empty after a set abstraction), and the submanifold
 *  maps of its stage, kept for the decoder stage at the same stride.
 *  For an odd kernel only the groups before the centre are kept;
 *  mirrorSubmanifoldMaps restores the rest. */
struct Level
{
    PointCloud cloud;
    MapSet downMaps;
    StageMaps stage;
};

/** Execution state threaded through the layer walk. */
struct ExecState
{
    PointCloud cloud;          ///< current resolution coordinates
    std::uint32_t channels;    ///< current feature width
    std::int32_t chainId = 0;  ///< next dense-chain id
    bool inDenseChain = false;
    /** Encoder levels for U-Net upsampling / FP skip levels. */
    std::vector<Level> levelStack;
    /** Submanifold maps of `cloud`, shared by every submanifold conv
     *  of one stage; valid while stage.kernel > 0. */
    StageMaps stage;
    /** EdgeConv kNN maps of `cloud`, shared by every EdgeConv with the
     *  same k; valid while edgeK > 0. */
    MapSet edgeMaps;
    int edgeK = 0;
    std::uint64_t edgeMapsId = 0;
    /** Last LayerWork::mapsId handed out. */
    std::uint64_t lastMapsId = 0;

    const LayerVisitor *visit = nullptr;
};

/** A fresh LayerWork::mapsId, for a map set just built, transposed or
 *  derived. */
std::uint64_t
newMapsId(ExecState &st)
{
    return ++st.lastMapsId;
}

/** Release the maps kept for the current cloud: the stage's
 *  submanifold maps and the EdgeConv maps. Called before `cloud` is
 *  replaced, ahead of building any new map. */
void
dropStageMaps(ExecState &st)
{
    st.stage = StageMaps();
    st.edgeMaps = MapSet();
    st.edgeK = 0;
}

void
emit(ExecState &st, LayerWork &&work)
{
    if (work.isDense) {
        if (!st.inDenseChain) {
            ++st.chainId;
            st.inDenseChain = true;
        }
        work.denseChainId = st.chainId;
    } else {
        st.inDenseChain = false;
    }
    (*st.visit)(work);
}

/** Emit one per-point (or per-edge) dense layer. */
void
emitDense(ExecState &st, const std::string &name, std::uint64_t rows,
          std::uint32_t cin, std::uint32_t cout)
{
    LayerWork w;
    w.name = name;
    w.isDense = true;
    w.numIn = rows;
    w.numOut = rows;
    w.cin = cin;
    w.cout = cout;
    w.macs = rows * static_cast<std::uint64_t>(cin) * cout;
    emit(st, std::move(w));
}

void
runDense(ExecState &st, const LayerDesc &layer, const DenseDesc &d)
{
    simAssert(d.inChannels == st.channels,
              ("channel mismatch at " + layer.name).c_str());
    emitDense(st, layer.name, st.cloud.size(), d.inChannels,
              d.outChannels);
    st.channels = d.outChannels;
}

void
runSparseConv(ExecState &st, const LayerDesc &layer,
              const SparseConvDesc &d)
{
    simAssert(d.inChannels == st.channels + d.skipChannels,
              ("channel mismatch at " + layer.name).c_str());

    const std::uint64_t numIn = st.cloud.size();
    const MapSet *maps = nullptr;
    std::uint64_t mapsId = 0;
    MapSet upMaps;
    std::vector<MappingOpInfo> mappingOps;

    if (d.transposed) {
        // Upsample back to the finest open encoder level: the maps are
        // the transpose of that level's downsample maps, and the
        // level's stage maps, restored in full, serve the decoder
        // stage at this stride under their old id.
        simAssert(!st.levelStack.empty(),
                  "transposed conv without a matching downsample");
        dropStageMaps(st);
        Level level = std::move(st.levelStack.back());
        st.levelStack.pop_back();
        simAssert(level.downMaps.numWeights() ==
                      d.kernelSize * d.kernelSize * d.kernelSize,
                  ("transposed conv kernel differs from its downsample at " +
                   layer.name).c_str());
        upMaps = transposeMaps(level.downMaps, d.kernelSize);
        maps = &upMaps;
        mapsId = newMapsId(st);
        st.cloud = std::move(level.cloud);
        if (level.stage.kernel % 2 == 1)
            mirrorSubmanifoldMaps(level.stage.maps, st.cloud.size());
        st.stage = std::move(level.stage);
    } else if (d.strideMultiplier > 1) {
        // Strided downsample: quantize then kernel-map. The fine cloud,
        // the maps and the half of the stage maps before the centre
        // stay open for the mirroring transposed conv. When the kernel
        // spans exactly one coarse cell (kernel size == stride
        // multiplier, every zoo downsample) the quantize sort already
        // assigns each fine point its one map.
        StageMaps held = std::move(st.stage);
        if (held.kernel % 2 == 1)
            for (std::int32_t w = held.maps.numWeights() / 2;
                 w < held.maps.numWeights(); ++w)
                held.maps.forWeight(w) = {};
        dropStageMaps(st);
        const std::int32_t outStride =
            st.cloud.tensorStride() * d.strideMultiplier;
        Downsample down;
        if (d.kernelSize == d.strideMultiplier) {
            down = downsampleWithMaps(st.cloud, outStride);
        } else {
            down.cloud = quantizeDownsample(st.cloud, outStride);
            KernelMapConfig kcfg;
            kcfg.kernelSize = d.kernelSize;
            kcfg.inStride = st.cloud.tensorStride();
            kcfg.outStride = outStride;
            down.maps = sortKernelMap(st.cloud, down.cloud, kcfg);
        }
        mappingOps.push_back({MappingOpKind::Quantize, numIn,
                              down.cloud.size(), 0, 0});
        mapsId = newMapsId(st);
        st.levelStack.push_back(
            {std::exchange(st.cloud, std::move(down.cloud)),
             std::move(down.maps), std::move(held)});
        maps = &st.levelStack.back().downMaps;
    } else {
        // Submanifold convolution at the same resolution: the cloud is
        // unchanged, so one map build serves the whole stage.
        if (st.stage.kernel != d.kernelSize) {
            dropStageMaps(st);
            KernelMapConfig kcfg;
            kcfg.kernelSize = d.kernelSize;
            kcfg.inStride = st.cloud.tensorStride();
            kcfg.outStride = st.cloud.tensorStride();
            st.stage = {sortKernelMap(st.cloud, st.cloud, kcfg),
                        d.kernelSize, newMapsId(st)};
        }
        maps = &st.stage.maps;
        mapsId = st.stage.id;
    }

    // Every layer models its own kernel mapping, reused maps included.
    // A transposed conv's search is its downsample's: fine to coarse.
    const std::uint64_t numOut = st.cloud.size();
    mappingOps.push_back({MappingOpKind::KernelMap,
                          d.transposed ? numOut : numIn,
                          d.transposed ? numIn : numOut, 0,
                          static_cast<int>(maps->numWeights())});

    LayerWork w;
    w.name = layer.name;
    w.isDense = false;
    w.numIn = numIn;
    w.numOut = numOut;
    w.cin = d.inChannels;
    w.cout = d.outChannels;
    w.maps = maps;
    w.mapsId = mapsId;
    w.mappingOps = std::move(mappingOps);
    w.macs = maps->size() * static_cast<std::uint64_t>(d.inChannels) *
             d.outChannels;
    emit(st, std::move(w));

    st.channels = d.outChannels;
}

/** Squared ball radius of a set-abstraction scale. */
std::int64_t
radius2(const SaScale &scale)
{
    return static_cast<std::int64_t>(scale.radiusGrid) * scale.radiusGrid;
}

void
runSetAbstraction(ExecState &st, const LayerDesc &layer,
                  const SetAbstractionDesc &d)
{
    simAssert(d.inChannels == st.channels,
              ("channel mismatch at " + layer.name).c_str());
    dropStageMaps(st);

    if (d.numCenters == 0) {
        // Group-all: one global region, MLP over every point, max-pool.
        std::uint32_t cur = d.inChannels + 3;
        for (std::size_t i = 0; i < d.scales[0].mlp.size(); ++i) {
            emitDense(st, layer.name + ".mlp" + std::to_string(i),
                      st.cloud.size(), cur, d.scales[0].mlp[i]);
            cur = d.scales[0].mlp[i];
        }
        st.levelStack.push_back({st.cloud, {}, {}}); // FP climbs back up
        st.cloud = PointCloud({Coord3{0, 0, 0}});
        st.channels = cur;
        return;
    }

    // Output construction: farthest point sampling.
    const std::size_t centers =
        std::min<std::size_t>(d.numCenters, std::max<std::size_t>(
                                                1, st.cloud.size() / 2));
    const auto selected = farthestPointSampling(st.cloud, centers);
    const PointCloud queryCloud = gatherPoints(st.cloud, selected);

    // Neighbor search: one ball query serves every ball scale (MSG
    // scales share input and centroids); each scale cuts the shared
    // lists at its own radius and k. A kNN scale (radius 0) searches
    // on its own.
    std::vector<BallScale> ballScales;
    for (const auto &scale : d.scales)
        if (scale.radiusGrid > 0)
            ballScales.push_back({scale.k, radius2(scale)});
    const BallQueryResult balls =
        ballScales.empty() ? BallQueryResult{}
                           : ballQuery(st.cloud, queryCloud, ballScales);

    std::uint32_t outChannels = 0;
    std::size_t ballIndex = 0;
    for (std::size_t s = 0; s < d.scales.size(); ++s) {
        const auto &scale = d.scales[s];
        MapSet maps;
        std::uint64_t survivors = 0;
        MappingOpKind searchKind;
        if (scale.radiusGrid > 0) {
            maps = neighborsToMaps(balls.lists, scale.k, radius2(scale));
            survivors = balls.survivors[ballIndex++];
            searchKind = MappingOpKind::BallQuery;
        } else {
            maps = neighborsToMaps(
                kNearestNeighbors(st.cloud, queryCloud, scale.k), scale.k);
            searchKind = MappingOpKind::Knn;
        }

        // First MLP layer runs per gathered neighbor, driven by maps.
        LayerWork w;
        w.name = layer.name + ".s" + std::to_string(s) + ".mlp0";
        w.isDense = false;
        w.numIn = st.cloud.size();
        w.numOut = queryCloud.size();
        w.cin = d.inChannels + 3; // grouped features + relative coords
        w.cout = scale.mlp[0];
        w.maps = &maps;
        w.mapsId = newMapsId(st);
        w.macs = maps.size() * static_cast<std::uint64_t>(w.cin) * w.cout;
        if (s == 0) {
            w.mappingOps.push_back({MappingOpKind::Fps, st.cloud.size(),
                                    queryCloud.size(), 0, 0});
        }
        w.mappingOps.push_back({searchKind, st.cloud.size(),
                                queryCloud.size(), scale.k, 0,
                                survivors});
        const std::uint64_t edges = maps.size();
        emit(st, std::move(w));

        // Remaining MLP layers act per edge; max-pool follows (free).
        std::uint32_t cur = scale.mlp[0];
        for (std::size_t i = 1; i < scale.mlp.size(); ++i) {
            emitDense(st,
                      layer.name + ".s" + std::to_string(s) + ".mlp" +
                          std::to_string(i),
                      edges, cur, scale.mlp[i]);
            cur = scale.mlp[i];
        }
        outChannels += cur; // MSG concatenates scale outputs
    }

    st.levelStack.push_back({st.cloud, {}, {}}); // FP layers climb back up
    st.cloud = queryCloud;
    st.channels = outChannels;
}

void
runFeaturePropagation(ExecState &st, const LayerDesc &layer,
                      const FeaturePropagationDesc &d)
{
    simAssert(!st.levelStack.empty(),
              "feature propagation without a matching abstraction");
    dropStageMaps(st);
    PointCloud fine = std::move(st.levelStack.back().cloud);
    st.levelStack.pop_back();

    // 3-NN interpolation: each fine point finds 3 coarse neighbors.
    LayerWork w;
    w.name = layer.name + ".mlp0";
    w.isDense = false;
    w.numIn = st.cloud.size();
    w.numOut = fine.size();
    w.cin = d.inChannels;
    w.cout = d.mlp[0];
    MapSet maps = neighborsToMaps(kNearestNeighbors(st.cloud, fine, 3), 3);
    w.maps = &maps;
    w.mapsId = newMapsId(st);
    w.mappingOps.push_back(
        {MappingOpKind::Knn, st.cloud.size(), fine.size(), 3, 0});
    // Interpolated features are per fine point; the unit MLP runs per
    // fine point.
    w.macs = fine.size() * static_cast<std::uint64_t>(d.inChannels) *
             d.mlp[0];
    emit(st, std::move(w));

    std::uint32_t cur = d.mlp[0];
    for (std::size_t i = 1; i < d.mlp.size(); ++i) {
        emitDense(st, layer.name + ".mlp" + std::to_string(i),
                  fine.size(), cur, d.mlp[i]);
        cur = d.mlp[i];
    }
    st.cloud = std::move(fine);
    st.channels = cur;
}

void
runEdgeConv(ExecState &st, const LayerDesc &layer, const EdgeConvDesc &d)
{
    simAssert(d.inChannels == st.channels,
              ("channel mismatch at " + layer.name).c_str());

    // Feature-space kNN; geometry stands in for the feature metric
    // (identical cost structure — Section 2, graph-based special case).
    // EdgeConv never replaces the cloud, so the search depends only on
    // k: one build serves every EdgeConv of a stack. Each layer still
    // models its own search below.
    if (st.edgeK != d.k) {
        dropStageMaps(st);
        st.edgeMaps =
            neighborsToMaps(kNearestNeighbors(st.cloud, st.cloud, d.k), d.k);
        st.edgeK = d.k;
        st.edgeMapsId = newMapsId(st);
    }
    const MapSet &maps = st.edgeMaps;

    LayerWork w;
    w.name = layer.name + ".mlp0";
    w.isDense = false;
    w.numIn = st.cloud.size();
    w.numOut = st.cloud.size();
    w.cin = 2 * d.inChannels; // edge features (f_i, f_j - f_i)
    w.cout = d.mlp[0];
    w.maps = &maps;
    w.mapsId = st.edgeMapsId;
    MappingOpInfo knnOp{MappingOpKind::Knn, st.cloud.size(),
                        st.cloud.size(), d.k, 0, 0,
                        std::max<std::uint32_t>(3, d.inChannels)};
    w.mappingOps.push_back(knnOp);
    const std::uint64_t edges = maps.size();
    w.macs = edges * static_cast<std::uint64_t>(w.cin) * w.cout;
    emit(st, std::move(w));

    std::uint32_t cur = d.mlp[0];
    for (std::size_t i = 1; i < d.mlp.size(); ++i) {
        emitDense(st, layer.name + ".mlp" + std::to_string(i), edges, cur,
                  d.mlp[i]);
        cur = d.mlp[i];
    }
    st.channels = cur;
}

void
runConcat(ExecState &st, const ConcatDesc &d)
{
    // Concatenation only widens the live feature map; breaks a dense
    // chain because the concatenated source must be re-materialized.
    st.inDenseChain = false;
    st.channels += d.extraChannels;
}

void
runReset(ExecState &st, const ResetDesc &d)
{
    st.inDenseChain = false;
    st.channels = d.channels;
}

void
runGlobalPool(ExecState &st, const LayerDesc &layer, const GlobalPoolDesc &d)
{
    simAssert(d.channels == st.channels,
              ("channel mismatch at " + layer.name).c_str());
    // Max-pool; no MACs, breaks any dense chain. Broadcast mode keeps
    // the cloud (the pooled vector is repeated per point and typically
    // concatenated by a following Concat layer).
    st.inDenseChain = false;
    if (!d.broadcast) {
        dropStageMaps(st);
        st.cloud = PointCloud({Coord3{0, 0, 0}});
    }
}

} // namespace

void
executeNetwork(const Network &net, const PointCloud &input,
               const LayerVisitor &visit)
{
    simAssert(input.isSorted(), "executor requires a sorted input cloud");

    ExecState st;
    st.cloud = input;
    st.channels = net.inputChannels;
    st.visit = &visit;

    for (const auto &layer : net.layers) {
        std::visit(
            [&](const auto &desc) {
                using T = std::decay_t<decltype(desc)>;
                if constexpr (std::is_same_v<T, DenseDesc>)
                    runDense(st, layer, desc);
                else if constexpr (std::is_same_v<T, SparseConvDesc>)
                    runSparseConv(st, layer, desc);
                else if constexpr (std::is_same_v<T, SetAbstractionDesc>)
                    runSetAbstraction(st, layer, desc);
                else if constexpr (std::is_same_v<T,
                                                  FeaturePropagationDesc>)
                    runFeaturePropagation(st, layer, desc);
                else if constexpr (std::is_same_v<T, EdgeConvDesc>)
                    runEdgeConv(st, layer, desc);
                else if constexpr (std::is_same_v<T, ConcatDesc>)
                    runConcat(st, desc);
                else if constexpr (std::is_same_v<T, ResetDesc>)
                    runReset(st, desc);
                else
                    runGlobalPool(st, layer, desc);
            },
            layer.desc);
    }
}

WorkloadSummary
summarizeWorkload(const Network &net, const PointCloud &input)
{
    WorkloadSummary s;
    s.inputPoints = input.size();

    executeNetwork(net, input, [&](const LayerWork &w) {
        ++s.numMatrixOps;
        s.totalMacs += w.macs;
        if (w.isDense)
            s.denseMacs += w.macs;
        else
            s.sparseMacs += w.macs;
        s.weightBytes += static_cast<std::uint64_t>(w.cin) * w.cout * 2 *
                         (w.maps ? w.maps->numWeights() : 1);

        const std::uint64_t rows = w.maps ? w.maps->size() : w.numIn;
        s.totalMaps += w.maps ? w.maps->size() : 0;
        // GPU gather-matmul-scatter traffic: features cross DRAM on
        // gather read + gathered write + matmul read, psums written and
        // scattered (fp16).
        if (w.maps) {
            s.gatherScatterBytes +=
                rows * 2ULL * (3ULL * w.cin + 2ULL * w.cout);
        } else {
            s.gatherScatterBytes += rows * 2ULL * (w.cin + w.cout);
        }

        s.numMappingOps += w.mappingOps.size();
        for (const auto &op : w.mappingOps) {
            switch (op.kind) {
              case MappingOpKind::Fps:
                s.fpsWork += op.inputPoints * op.outputPoints;
                break;
              case MappingOpKind::BallQuery:
              case MappingOpKind::Knn:
                // Feature-space search costs dims/3 geometric evals.
                s.neighborWork += op.inputPoints * op.outputPoints *
                                  std::max<std::uint32_t>(
                                      op.distanceDims, 3) / 3;
                break;
              case MappingOpKind::KernelMap:
                s.kernelMapWork += (op.inputPoints + op.outputPoints) *
                                   static_cast<std::uint64_t>(
                                       std::max(op.kernelVolume, 1));
                break;
              case MappingOpKind::Quantize:
                s.kernelMapWork += op.inputPoints;
                break;
            }
        }

        const std::uint64_t inBytes = w.numIn * 2 * w.cin;
        const std::uint64_t outBytes = w.numOut * 2 * w.cout;
        s.peakFeatureBytes =
            std::max(s.peakFeatureBytes, std::max(inBytes, outBytes));
    });
    return s;
}

NetworkCharacteristics
characterize(const Network &net, const PointCloud &input)
{
    const auto s = summarizeWorkload(net, input);
    NetworkCharacteristics c;
    c.macsPerPoint = input.empty() ? 0 : s.totalMacs / input.size();
    c.featureBytesPerPoint =
        input.empty() ? 0.0
                      : static_cast<double>(s.peakFeatureBytes) /
                            static_cast<double>(input.size());
    c.params = s.weightBytes / 2;
    return c;
}

} // namespace pointacc
