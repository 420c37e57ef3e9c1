/**
 * @file
 * Tests for the NN substrate: layer construction, the network zoo, the
 * executor's shape bookkeeping, workload summaries and functional
 * sparse convolution semantics.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <variant>

#include "core/rng.hpp"
#include "datasets/synthetic.hpp"
#include "mapping/fps.hpp"
#include "mapping/kernel_map.hpp"
#include "mapping/knn.hpp"
#include "mapping/quantize.hpp"
#include "nn/executor.hpp"
#include "nn/functional.hpp"
#include "nn/zoo.hpp"

namespace pointacc {
namespace {

TEST(Zoo, EightBenchmarks)
{
    const auto nets = allBenchmarks();
    ASSERT_EQ(nets.size(), 8u);
    EXPECT_EQ(nets[0].notation, "PointNet");
    EXPECT_EQ(nets[7].notation, "MinkNet(o)");
    for (const auto &net : nets)
        EXPECT_FALSE(net.layers.empty()) << net.notation;
}

TEST(Zoo, ConvClassesMatchTable1)
{
    EXPECT_EQ(pointNet().convClass, ConvClass::PointMlp);
    EXPECT_EQ(pointNetPPClass().convClass, ConvClass::PointNetPP);
    EXPECT_EQ(dgcnn().convClass, ConvClass::PointNetPP);
    EXPECT_EQ(minkowskiUNetOutdoor().convClass, ConvClass::SparseConv);
}

TEST(Zoo, MesorasiCompatibilityFlags)
{
    // Section 5.2.2: Mesorasi only supports shared-weight aggregation
    // (PointNet++-based); SparseConv models are incompatible.
    EXPECT_TRUE(pointNetPPClass().mesorasiCompatible);
    EXPECT_TRUE(fPointNetPP().mesorasiCompatible);
    EXPECT_FALSE(minkowskiUNetIndoor().mesorasiCompatible);
    EXPECT_FALSE(miniMinkowskiUNet().mesorasiCompatible);
}

TEST(Zoo, MiniMinkBeatsPointNetPPAccuracy)
{
    // Fig. 16: co-designed Mini-MinkowskiUNet has 9.1% higher mIoU
    // than the PointNet++SSG Mesorasi runs on S3DIS.
    EXPECT_NEAR(miniMinkowskiUNet().paperAccuracy -
                    pointNetPPSemSeg().paperAccuracy,
                9.1, 0.01);
}

TEST(Executor, PointNetVisitsAllDenseLayers)
{
    const auto cloud = generate(DatasetKind::ModelNet40, 7, 0.5);
    int denseLayers = 0;
    std::uint64_t macs = 0;
    executeNetwork(pointNet(), cloud, [&](const LayerWork &w) {
        EXPECT_TRUE(w.isDense);
        EXPECT_EQ(w.maps, nullptr);
        ++denseLayers;
        macs += w.macs;
    });
    EXPECT_EQ(denseLayers, 8); // 5 backbone MLPs + 3 classifier FCs
    EXPECT_GT(macs, 0u);
}

TEST(Executor, DenseChainsSplitAtGlobalPool)
{
    const auto cloud = generate(DatasetKind::ModelNet40, 7, 0.5);
    std::vector<std::int32_t> chains;
    executeNetwork(pointNet(), cloud, [&](const LayerWork &w) {
        chains.push_back(w.denseChainId);
    });
    ASSERT_EQ(chains.size(), 8u);
    // First five layers one chain, classifier a second chain.
    EXPECT_EQ(chains[0], chains[4]);
    EXPECT_NE(chains[4], chains[5]);
    EXPECT_EQ(chains[5], chains[7]);
}

TEST(Executor, MinkUNetShapesAreConsistent)
{
    const auto cloud = generate(DatasetKind::S3DIS, 11, 0.1);
    std::uint64_t sparseOps = 0;
    std::uint64_t maxStridePoints = 0;
    executeNetwork(minkowskiUNetIndoor(), cloud, [&](const LayerWork &w) {
        if (!w.isDense) {
            ++sparseOps;
            ASSERT_NE(w.maps, nullptr) << w.name;
            EXPECT_EQ(w.macs,
                      w.maps->size() * static_cast<std::uint64_t>(w.cin) *
                          w.cout)
                << w.name;
            for (std::int32_t g = 0; g < w.maps->numWeights(); ++g) {
                for (const PointIndex in : w.maps->forWeight(g).in) {
                    EXPECT_GE(in, 0);
                    EXPECT_LT(static_cast<std::uint64_t>(in), w.numIn);
                }
                for (const PointIndex out : w.maps->forWeight(g).out)
                    EXPECT_LT(static_cast<std::uint64_t>(out), w.numOut);
            }
        }
        maxStridePoints = std::max(maxStridePoints, w.numOut);
    });
    // Stem 2 + 4 encoder stages (1 down + 4 convs) + 4 decoder stages
    // (1 up + 4 convs).
    EXPECT_EQ(sparseOps, 2u + 4u * 5u + 4u * 5u);
    EXPECT_EQ(maxStridePoints, cloud.size());
}

TEST(Executor, UNetReturnsToFullResolution)
{
    const auto cloud = generate(DatasetKind::S3DIS, 13, 0.08);
    std::uint64_t lastOut = 0;
    std::uint32_t lastCout = 0;
    executeNetwork(minkowskiUNetIndoor(), cloud, [&](const LayerWork &w) {
        lastOut = w.numOut;
        lastCout = w.cout;
    });
    EXPECT_EQ(lastOut, cloud.size()); // head runs at full resolution
    EXPECT_EQ(lastCout, 13u);         // S3DIS classes
}

TEST(Executor, DownsamplingShrinksCloud)
{
    const auto cloud = generate(DatasetKind::SemanticKITTI, 17, 0.05);
    std::vector<std::uint64_t> downOutputs;
    executeNetwork(minkowskiUNetOutdoor(), cloud, [&](const LayerWork &w) {
        if (w.name.find(".down") != std::string::npos)
            downOutputs.push_back(w.numOut);
    });
    ASSERT_EQ(downOutputs.size(), 4u);
    for (std::size_t i = 1; i < downOutputs.size(); ++i)
        EXPECT_LT(downOutputs[i], downOutputs[i - 1]);
}

/** Submanifold map reuse seen in one executor walk. */
struct SubmanifoldReuse
{
    /** Layers that shared the previous layer's maps. */
    int shared = 0;
    /** Layers that rebuilt because the stage's kernel changed. */
    int rebuilt = 0;
    /** Decoder stages that took over their encoder stage's maps,
     *  restored from the groups before the centre (odd kernel) or held
     *  whole (even kernel). */
    int restoredOdd = 0;
    int restoredEven = 0;
    /** Distinct mapsIds among submanifold layers: one per map build. */
    std::size_t builds = 0;
};

/**
 * Walk a sparse-conv network beside the executor and check every
 * sparse layer's maps against a fresh build from that layer's own
 * clouds: sortKernelMap, transposed for up convs, with no reuse. A
 * submanifold layer must reuse the maps of its cloud's stage exactly
 * when its kernel is the stage's: the same object and map storage
 * inside a stage, and after an up conv the encoder stage's maps at that
 * stride, so the group-by-group comparison pins the restored groups
 * byte for byte. Any other kernel must build afresh. One
 * full-resolution submanifold layer is also cross-checked against
 * hashKernelMap.
 */
SubmanifoldReuse
expectMapsMatchFreshBuilds(const Network &net, const PointCloud &input)
{
    std::map<std::string, SparseConvDesc> convs;
    for (const auto &layer : net.layers)
        if (const auto *d = std::get_if<SparseConvDesc>(&layer.desc))
            convs.emplace(layer.name, *d);

    /** The submanifold maps the executor keeps for one cloud. */
    struct Stage
    {
        int kernel = 0;
        std::uint64_t id = 0;
        const PointIndex *data = nullptr;
    };
    PointCloud cloud = input;
    std::vector<PointCloud> fine;    // open encoder levels
    std::vector<Stage> heldStages;   // their stages
    Stage stage;
    const MapSet *prevSubmanifold = nullptr;
    bool hashChecked = false;
    SubmanifoldReuse reuse;
    std::set<std::uint64_t> submanifoldIds;
    executeNetwork(net, input, [&](const LayerWork &w) {
        if (w.isDense)
            return;
        const auto &d = convs.at(w.name);
        const bool submanifold = !d.transposed && d.strideMultiplier == 1;
        KernelMapConfig kcfg;
        kcfg.kernelSize = d.kernelSize;
        MapSet fresh;
        if (d.transposed) {
            PointCloud out = std::move(fine.back());
            fine.pop_back();
            kcfg.inStride = out.tensorStride();
            kcfg.outStride = cloud.tensorStride();
            fresh = transposeMaps(sortKernelMap(out, cloud, kcfg),
                                  d.kernelSize);
            cloud = std::move(out);
            stage = heldStages.back();
            heldStages.pop_back();
        } else if (!submanifold) {
            PointCloud out = quantizeDownsample(
                cloud, cloud.tensorStride() * d.strideMultiplier);
            kcfg.inStride = cloud.tensorStride();
            kcfg.outStride = out.tensorStride();
            fresh = sortKernelMap(cloud, out, kcfg);
            fine.push_back(std::exchange(cloud, std::move(out)));
            heldStages.push_back(std::exchange(stage, Stage()));
        } else {
            kcfg.inStride = cloud.tensorStride();
            kcfg.outStride = cloud.tensorStride();
            fresh = sortKernelMap(cloud, cloud, kcfg);
            if (!hashChecked && cloud.tensorStride() == 1) {
                const MapSet hashed = hashKernelMap(cloud, cloud, kcfg);
                ASSERT_EQ(hashed.numWeights(), fresh.numWeights());
                for (std::int32_t g = 0; g < fresh.numWeights(); ++g)
                    EXPECT_EQ(hashed.forWeight(g), fresh.forWeight(g))
                        << w.name << " weight " << g;
                hashChecked = true;
            }
        }

        ASSERT_NE(w.maps, nullptr) << w.name;
        EXPECT_EQ(w.numOut, cloud.size()) << w.name;
        ASSERT_EQ(w.maps->numWeights(), fresh.numWeights()) << w.name;
        for (std::int32_t g = 0; g < fresh.numWeights(); ++g)
            EXPECT_EQ(w.maps->forWeight(g), fresh.forWeight(g))
                << w.name << " weight " << g;

        if (submanifold) {
            const PointIndex *data = w.maps->forWeight(0).in.data();
            if (d.kernelSize == stage.kernel) {
                // Same kernel over the same cloud: the stage's maps,
                // in the same storage.
                EXPECT_EQ(w.mapsId, stage.id) << w.name;
                EXPECT_EQ(data, stage.data) << w.name;
                if (prevSubmanifold != nullptr) {
                    EXPECT_EQ(w.maps, prevSubmanifold) << w.name;
                    ++reuse.shared;
                } else if (d.kernelSize % 2 == 1) {
                    ++reuse.restoredOdd;
                } else {
                    ++reuse.restoredEven;
                }
            } else {
                EXPECT_EQ(submanifoldIds.count(w.mapsId), 0u) << w.name;
                if (prevSubmanifold != nullptr)
                    ++reuse.rebuilt;
                stage = {d.kernelSize, w.mapsId, data};
            }
            submanifoldIds.insert(w.mapsId);
        }
        prevSubmanifold = submanifold ? w.maps : nullptr;
    });
    EXPECT_TRUE(fine.empty());
    EXPECT_TRUE(hashChecked);
    reuse.builds = submanifoldIds.size();
    return reuse;
}

TEST(Executor, MinkUNetReusedMapsMatchFreshBuilds)
{
    // 34 submanifold convs over 9 stages (strides 1-8 entered twice,
    // stride 16 once): 25 reuse the previous conv's maps, and each
    // decoder stage reuses the maps its encoder stage built at that
    // stride, so only the stem and the 4 encoder stages build.
    const auto indoor = generate(DatasetKind::S3DIS, 23, 0.05);
    const auto outdoor = generate(DatasetKind::SemanticKITTI, 23, 0.02);
    for (const auto &[net, cloud] :
         {std::make_pair(minkowskiUNetIndoor(), &indoor),
          std::make_pair(minkowskiUNetOutdoor(), &outdoor)}) {
        const SubmanifoldReuse reuse = expectMapsMatchFreshBuilds(net, *cloud);
        EXPECT_EQ(reuse.shared, 25) << net.notation;
        EXPECT_EQ(reuse.restoredOdd, 4) << net.notation;
        EXPECT_EQ(reuse.builds, 5u) << net.notation;
    }
    // 13 submanifold convs over 7 stages: the stem and 3 encoder
    // stages build.
    const SubmanifoldReuse mini =
        expectMapsMatchFreshBuilds(miniMinkowskiUNet(), indoor);
    EXPECT_EQ(mini.shared, 6);
    EXPECT_EQ(mini.restoredOdd, 3);
    EXPECT_EQ(mini.builds, 4u);
}

/**
 * A seeded random sparse-conv stack over shapes the zoo lacks: a
 * full-resolution stem, then one to three nested levels, each a
 * downsample of kernel 2-4 and stride multiplier 2 or 4 (mostly
 * kernel != multiplier, runSparseConv's sortKernelMap fallback) and
 * closed by an up conv with its downsample's kernel. Every stage holds
 * submanifold convs of kernel 2, 3 or 5, and may change kernel
 * between them.
 */
Network
randomSparseStack(std::uint64_t seed)
{
    Rng rng(seed);
    Network net;
    net.name = "random sparse stack";
    net.notation = "random" + std::to_string(seed);
    net.convClass = ConvClass::SparseConv;
    net.inputChannels = 8;
    const auto conv = [&](int kernel, int stride, bool transposed) {
        net.layers.push_back(
            makeSparseConv("l" + std::to_string(net.layers.size()), 8, 8,
                           kernel, stride, transposed));
    };
    const auto stage = [&](std::uint64_t min_layers) {
        const int kernels[] = {2, 3, 5};
        int kernel = kernels[rng.range(3)];
        for (std::uint64_t n = min_layers + rng.range(4); n > 0; --n) {
            if (rng.range(3) == 0)
                kernel = kernels[rng.range(3)];
            conv(kernel, 1, false);
        }
    };
    std::vector<std::pair<int, int>> open; // (kernel, stride multiplier)
    stage(1);
    for (std::uint64_t depth = 1 + rng.range(3); depth > 0; --depth) {
        open.emplace_back(2 + static_cast<int>(rng.range(3)),
                          rng.range(2) == 0 ? 2 : 4);
        conv(open.back().first, open.back().second, false);
        stage(0);
    }
    for (; !open.empty(); open.pop_back()) {
        conv(open.back().first, open.back().second, true);
        stage(0);
    }
    return net;
}

TEST(Executor, RandomSparseStacksMatchFreshBuilds)
{
    // Shapes each stack reaches, summed over the seeds: a branch no
    // seed takes is a branch this test does not check.
    std::map<int, int> submanifoldKernels;
    int cellDownsamples = 0;     // kernel == multiplier: quantize maps
    int fallbackDownsamples = 0; // kernel != multiplier: sortKernelMap
    int nestedDownsamples = 0;   // taken with a level already open
    SubmanifoldReuse total;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const Network net = randomSparseStack(seed);
        int open = 0;
        for (const auto &layer : net.layers) {
            const auto &d = std::get<SparseConvDesc>(layer.desc);
            if (d.transposed) {
                --open;
            } else if (d.strideMultiplier > 1) {
                ++(d.kernelSize == d.strideMultiplier ? cellDownsamples
                                                      : fallbackDownsamples);
                nestedDownsamples += open > 0;
                ++open;
            } else {
                ++submanifoldKernels[d.kernelSize];
            }
        }
        const SubmanifoldReuse reuse = expectMapsMatchFreshBuilds(
            net, makeIndoorScene(seed, 2000, 80));
        total.shared += reuse.shared;
        total.rebuilt += reuse.rebuilt;
        total.restoredOdd += reuse.restoredOdd;
        total.restoredEven += reuse.restoredEven;
    }
    for (const int k : {2, 3, 5})
        EXPECT_GT(submanifoldKernels[k], 0) << "kernel " << k;
    EXPECT_GT(cellDownsamples, 0);
    EXPECT_GT(fallbackDownsamples, 0);
    EXPECT_GT(nestedDownsamples, 0);
    EXPECT_GT(total.shared, 0);
    EXPECT_GT(total.rebuilt, 0);
    EXPECT_GT(total.restoredOdd, 0);
    EXPECT_GT(total.restoredEven, 0);
}

/**
 * Walk a network beside the executor and check every EdgeConv layer's
 * maps against a fresh kNN build over that layer's cloud, and that the
 * layer emits exactly one Knn op. Strided sparse convs replace the
 * tracked cloud as the executor does. Returns how many EdgeConv layers
 * shared the previous EdgeConv's MapSet (same cloud, same k).
 */
int
expectEdgeMapsMatchFreshBuilds(const Network &net, const PointCloud &input)
{
    std::map<std::string, EdgeConvDesc> edges;
    std::map<std::string, SparseConvDesc> convs;
    for (const auto &layer : net.layers) {
        if (const auto *d = std::get_if<EdgeConvDesc>(&layer.desc))
            edges.emplace(layer.name + ".mlp0", *d);
        if (const auto *d = std::get_if<SparseConvDesc>(&layer.desc))
            convs.emplace(layer.name, *d);
    }

    PointCloud cloud = input;
    const MapSet *prevMaps = nullptr;
    const PointIndex *prevData = nullptr;
    int prevK = 0;
    int checked = 0;
    int shared = 0;
    executeNetwork(net, input, [&](const LayerWork &w) {
        if (const auto conv = convs.find(w.name); conv != convs.end()) {
            const auto &d = conv->second;
            ASSERT_FALSE(d.transposed) << w.name;
            if (d.strideMultiplier > 1) {
                cloud = quantizeDownsample(
                    cloud, cloud.tensorStride() * d.strideMultiplier);
                prevMaps = nullptr;
            }
            return;
        }
        const auto edge = edges.find(w.name);
        if (edge == edges.end())
            return;
        const int k = edge->second.k;
        ++checked;
        ASSERT_EQ(w.mappingOps.size(), 1u) << w.name;
        EXPECT_EQ(w.mappingOps[0].kind, MappingOpKind::Knn) << w.name;
        EXPECT_EQ(w.mappingOps[0].k, k) << w.name;
        EXPECT_EQ(w.numIn, cloud.size()) << w.name;

        const MapSet fresh =
            neighborsToMaps(kNearestNeighbors(cloud, cloud, k), k);
        ASSERT_NE(w.maps, nullptr) << w.name;
        ASSERT_EQ(w.maps->numWeights(), fresh.numWeights()) << w.name;
        for (std::int32_t g = 0; g < fresh.numWeights(); ++g)
            EXPECT_EQ(w.maps->forWeight(g), fresh.forWeight(g))
                << w.name << " weight " << g;

        // EdgeConvs over one cloud with one k see one MapSet: the same
        // object, holding the same map storage.
        if (prevMaps != nullptr && prevK == k) {
            EXPECT_EQ(w.maps, prevMaps) << w.name;
            EXPECT_EQ(w.maps->forWeight(0).in.data(), prevData) << w.name;
            ++shared;
        }
        prevMaps = w.maps;
        prevData = w.maps->forWeight(0).in.data();
        prevK = k;
    });
    EXPECT_EQ(checked, static_cast<int>(edges.size()));
    return shared;
}

TEST(Executor, EdgeConvReusedMapsMatchFreshBuilds)
{
    const auto cloud = generate(DatasetKind::ShapeNet, 23, 0.25);
    // edge1 builds the k = 20 maps; edge2 and edge3 reuse them.
    EXPECT_EQ(expectEdgeMapsMatchFreshBuilds(dgcnn(), cloud), 2);

    // A change of k rebuilds: only e2 and e4 reuse.
    Network kChange;
    kChange.inputChannels = 3;
    kChange.layers = {makeEdgeConv("e1", 3, 20, {16}),
                      makeEdgeConv("e2", 16, 20, {16}),
                      makeEdgeConv("e3", 16, 10, {16}),
                      makeEdgeConv("e4", 16, 10, {16})};
    EXPECT_EQ(expectEdgeMapsMatchFreshBuilds(kChange, cloud), 2);

    // A downsample between EdgeConvs replaces the cloud: e2 rebuilds
    // over the coarse cloud with the same k, and e3 reuses that build.
    Network cloudChange;
    cloudChange.inputChannels = 3;
    cloudChange.layers = {makeEdgeConv("e1", 3, 8, {16}),
                          makeSparseConv("down", 16, 16, 2, 2),
                          makeEdgeConv("e2", 16, 8, {16}),
                          makeEdgeConv("e3", 16, 8, {16})};
    EXPECT_EQ(expectEdgeMapsMatchFreshBuilds(cloudChange, cloud), 1);
}

/** One set-abstraction scale's search, built fresh. */
struct FreshScale
{
    std::string name;
    MappingOpKind kind;
    int k;
    MapSet maps;
    std::uint64_t survivors = 0;
};

/**
 * Walk a network of set abstractions, feature propagations and dense
 * layers beside the executor, and check every set-abstraction scale's
 * maps and search survivors against a fresh single-scale search of that
 * scale: ballQuery, or kNearestNeighbors for radius 0. Returns how many
 * scales were checked.
 */
int
expectScalesMatchFreshSearches(const Network &net, const PointCloud &input)
{
    std::vector<FreshScale> fresh;
    PointCloud cloud = input;
    std::vector<PointCloud> levels;
    for (const auto &layer : net.layers) {
        if (std::holds_alternative<FeaturePropagationDesc>(layer.desc)) {
            cloud = std::move(levels.back());
            levels.pop_back();
            continue;
        }
        const auto *d = std::get_if<SetAbstractionDesc>(&layer.desc);
        if (d == nullptr)
            continue;
        if (d->numCenters == 0) {
            levels.push_back(std::exchange(cloud, PointCloud({{0, 0, 0}})));
            continue;
        }
        const std::size_t centers = std::min<std::size_t>(
            d->numCenters, std::max<std::size_t>(1, cloud.size() / 2));
        PointCloud queries =
            gatherPoints(cloud, farthestPointSampling(cloud, centers));
        for (std::size_t s = 0; s < d->scales.size(); ++s) {
            const SaScale &scale = d->scales[s];
            const std::int64_t r2 =
                static_cast<std::int64_t>(scale.radiusGrid) *
                scale.radiusGrid;
            const auto lists =
                scale.radiusGrid > 0
                    ? ballQuery(cloud, queries, scale.k, r2)
                    : kNearestNeighbors(cloud, queries, scale.k);
            FreshScale f{layer.name + ".s" + std::to_string(s) + ".mlp0",
                         scale.radiusGrid > 0 ? MappingOpKind::BallQuery
                                              : MappingOpKind::Knn,
                         scale.k, neighborsToMaps(lists, scale.k), 0};
            for (const auto &list : lists)
                f.survivors += list.candidates;
            fresh.push_back(std::move(f));
        }
        levels.push_back(std::exchange(cloud, std::move(queries)));
    }

    std::size_t next = 0;
    executeNetwork(net, input, [&](const LayerWork &w) {
        if (next == fresh.size() || w.name != fresh[next].name)
            return;
        const FreshScale &f = fresh[next++];
        ASSERT_NE(w.maps, nullptr) << w.name;
        ASSERT_EQ(w.maps->numWeights(), f.maps.numWeights()) << w.name;
        EXPECT_EQ(w.maps->size(), f.maps.size()) << w.name;
        for (std::int32_t g = 0; g < f.maps.numWeights(); ++g)
            EXPECT_EQ(w.maps->forWeight(g), f.maps.forWeight(g))
                << w.name << " weight " << g;
        const MappingOpInfo &search = w.mappingOps.back();
        EXPECT_EQ(search.kind, f.kind) << w.name;
        EXPECT_EQ(search.k, f.k) << w.name;
        EXPECT_EQ(search.survivors, f.survivors) << w.name;
    });
    EXPECT_EQ(next, fresh.size());
    return static_cast<int>(next);
}

TEST(Executor, MsgScalesMatchFreshBallQueries)
{
    const auto cloud = generate(DatasetKind::ShapeNet, 23, 0.25);
    // sa1's three scales and sa2's two.
    EXPECT_EQ(expectScalesMatchFreshSearches(pointNetPPPartSeg(), cloud), 5);

    // k shrinks as the radius grows; two equal radii; a kNN scale
    // between two ball scales.
    Network shapes;
    shapes.inputChannels = 3;
    shapes.layers = {
        makeSetAbstraction("shrink", 256, 3,
                           {SaScale{7, 48, {16}}, SaScale{13, 24, {16}},
                            SaScale{26, 8, {16}}}),
        makeSetAbstraction("equal", 128, 48,
                           {SaScale{26, 8, {16}}, SaScale{26, 32, {16}}}),
        makeSetAbstraction("mixed", 64, 32,
                           {SaScale{13, 16, {16}}, SaScale{0, 8, {16}},
                            SaScale{51, 32, {16}}})};
    EXPECT_EQ(expectScalesMatchFreshSearches(shapes, cloud), 8);
}

TEST(Executor, PointNetPPEmitsMappingOps)
{
    const auto cloud = generate(DatasetKind::ModelNet40, 19, 1.0);
    bool sawFps = false, sawBall = false;
    executeNetwork(pointNetPPClass(), cloud, [&](const LayerWork &w) {
        for (const auto &op : w.mappingOps) {
            if (op.kind == MappingOpKind::Fps)
                sawFps = true;
            if (op.kind == MappingOpKind::BallQuery) {
                sawBall = true;
                EXPECT_GT(op.k, 0);
            }
        }
    });
    EXPECT_TRUE(sawFps);
    EXPECT_TRUE(sawBall);
}

TEST(Executor, DgcnnUsesKnnOnEveryEdgeConv)
{
    const auto cloud = generate(DatasetKind::ShapeNet, 23, 0.25);
    int knnOps = 0;
    executeNetwork(dgcnn(), cloud, [&](const LayerWork &w) {
        for (const auto &op : w.mappingOps) {
            if (op.kind == MappingOpKind::Knn)
                ++knnOps;
        }
    });
    EXPECT_EQ(knnOps, 3);
}

TEST(Summary, MinkNetSparseDominated)
{
    const auto cloud = generate(DatasetKind::S3DIS, 29, 0.1);
    const auto s = summarizeWorkload(minkowskiUNetIndoor(), cloud);
    EXPECT_GT(s.sparseMacs, s.denseMacs);
    EXPECT_GT(s.kernelMapWork, 0u);
    EXPECT_EQ(s.fpsWork, 0u);
}

TEST(Summary, PointNetPPFpsDominatesMappingWork)
{
    const auto cloud = generate(DatasetKind::ModelNet40, 31, 1.0);
    const auto s = summarizeWorkload(pointNetPPClass(), cloud);
    EXPECT_GT(s.fpsWork, 0u);
    EXPECT_GT(s.neighborWork, 0u);
    EXPECT_EQ(s.kernelMapWork, 0u);
}

TEST(Summary, Fig5MacsPerPointRegime)
{
    // Fig. 5 (middle): point cloud networks sit orders of magnitude
    // below CNNs in MACs per point... actually per *pixel* CNNs are
    // ~1e5; point cloud nets span 1e3-1e6 per point. Check our zoo
    // lands in a sane band and MinkNet > PointNet per point.
    const auto mn40 = generate(DatasetKind::ModelNet40, 37, 1.0);
    const auto s3dis = generate(DatasetKind::S3DIS, 37, 0.25);
    const auto pn = characterize(pointNet(), mn40);
    const auto mink = characterize(minkowskiUNetIndoor(), s3dis);
    EXPECT_GT(pn.macsPerPoint, 100u);
    EXPECT_GT(mink.macsPerPoint, pn.macsPerPoint / 100);
    EXPECT_GT(mink.featureBytesPerPoint, 100.0);
}

TEST(Summary, CnnReferencesPresent)
{
    const auto &refs = cnnReferences();
    ASSERT_EQ(refs.size(), 2u);
    EXPECT_GT(refs[1].gmacs, refs[0].gmacs); // ResNet50 > MobileNetV2
}

// ---------------------------------------------------------------- //
//                     Functional layer compute                      //
// ---------------------------------------------------------------- //

TEST(Functional, IdentityConvIsPassthrough)
{
    auto cloud = generate(DatasetKind::ModelNet40, 41, 0.25);
    randomizeFeatures(cloud, 8, 42);
    KernelMapConfig kcfg;
    const auto maps = sortKernelMap(cloud, cloud, kcfg);
    const auto weights = identityWeights(27, 8);
    const auto out = sparseConvForward(cloud, maps, weights, cloud.size());
    ASSERT_EQ(out.size(), cloud.size() * 8);
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        for (int c = 0; c < 8; ++c) {
            EXPECT_FLOAT_EQ(out[i * 8 + c],
                            cloud.feature(static_cast<PointIndex>(i), c))
                << "point " << i << " ch " << c;
        }
    }
}

TEST(Functional, ConvIsLinearInFeatures)
{
    auto cloud = generate(DatasetKind::ShapeNet, 43, 0.1);
    randomizeFeatures(cloud, 4, 1);
    KernelMapConfig kcfg;
    const auto maps = sortKernelMap(cloud, cloud, kcfg);
    const auto weights = randomWeights(27, 4, 6, 2);

    const auto once = sparseConvForward(cloud, maps, weights, cloud.size());
    auto doubled = cloud;
    for (auto &v : doubled.featureData())
        v *= 2.0f;
    const auto twice =
        sparseConvForward(doubled, maps, weights, cloud.size());
    for (std::size_t i = 0; i < once.size(); ++i)
        EXPECT_NEAR(twice[i], 2.0f * once[i], 1e-4f);
}

TEST(Functional, DenseForwardMatchesManual)
{
    ConvWeights w;
    w.numWeights = 1;
    w.cin = 2;
    w.cout = 2;
    w.data = {1.0f, 2.0f,   // row ci=0
              3.0f, 4.0f};  // row ci=1
    const std::vector<float> f = {1.0f, 1.0f, 2.0f, 0.0f};
    const auto out = denseForward(f, 2, w);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_FLOAT_EQ(out[0], 4.0f);
    EXPECT_FLOAT_EQ(out[1], 6.0f);
    EXPECT_FLOAT_EQ(out[2], 2.0f);
    EXPECT_FLOAT_EQ(out[3], 4.0f);
}

TEST(Functional, ReluClampsNegatives)
{
    std::vector<float> f = {-1.0f, 0.5f, -0.25f, 2.0f};
    reluInPlace(f);
    EXPECT_FLOAT_EQ(f[0], 0.0f);
    EXPECT_FLOAT_EQ(f[1], 0.5f);
    EXPECT_FLOAT_EQ(f[2], 0.0f);
    EXPECT_FLOAT_EQ(f[3], 2.0f);
}

TEST(Functional, MaxPoolByOutputPicksMaxEdge)
{
    MapSet maps(2);
    maps.forWeight(0).push(0, 0);
    maps.forWeight(1).push(1, 0);
    // Two edges into output 0, one channel each row.
    const std::vector<float> edges = {3.0f, 7.0f};
    const auto out = maxPoolByOutput(edges, maps, 1, 1);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FLOAT_EQ(out[0], 7.0f);
}

TEST(Functional, MaxPoolZeroFillsUntouchedOutputs)
{
    MapSet maps(1);
    maps.forWeight(0).push(0, 1);
    const std::vector<float> edges = {5.0f};
    const auto out = maxPoolByOutput(edges, maps, 1, 3);
    EXPECT_FLOAT_EQ(out[0], 0.0f);
    EXPECT_FLOAT_EQ(out[1], 5.0f);
    EXPECT_FLOAT_EQ(out[2], 0.0f);
}

} // namespace
} // namespace pointacc
