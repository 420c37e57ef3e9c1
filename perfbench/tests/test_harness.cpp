/**
 * @file
 * Tests of the benchmark's own code: the timing decorators forward
 * exactly, visitor-gap attribution telescopes to the executeNetwork
 * wall time, and malformed command lines are rejected.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "datasets/synthetic.hpp"
#include "harness.hpp"
#include "nn/zoo.hpp"
#include "runtime/serving_stats.hpp"
#include "sim/accel_config.hpp"
#include "workloads.hpp"

using namespace perfbench;
using namespace pointacc;

namespace {

WorkloadSpec
smallSpec()
{
    WorkloadSpec spec;
    spec.seed = 7;
    spec.requestsPerMCycle = 40.0;
    spec.horizonCycles = 2'000'000;
    spec.mix = {{0, 0, 3.0, 0, 0, 0.5}, {1, 1, 1.0, 200'000, 1, 0.5}};
    return spec;
}

/** Deterministic two-network table with distinct per-call answers. */
class FixedModel : public ServiceModel
{
  public:
    ServiceProfile
    profile(const AcceleratorConfig &, std::uint32_t network_id,
            std::uint32_t bucket) const override
    {
        ServiceProfile p;
        p.mappingCycles = 3'000 + 1'000 * network_id + 500 * bucket;
        p.computeCycles = 9'000 + 2'000 * network_id;
        p.totalCycles = p.mappingCycles + p.computeCycles;
        p.weightLoadCycles = 700;
        p.mapBytes = 64 * p.mappingCycles;
        return p;
    }
};

bool
sameRequest(const Request &a, const Request &b)
{
    return a.id == b.id && a.networkId == b.networkId &&
           a.sizeBucket == b.sizeBucket && a.cloudId == b.cloudId &&
           a.arrivalCycle == b.arrivalCycle &&
           a.deadlineCycle == b.deadlineCycle;
}

std::string
servingJson(const ServingReport &r)
{
    std::ostringstream os;
    writeServingJson(os, r);
    return os.str();
}

SchedulerConfig
cachedConfig()
{
    SchedulerConfig cfg;
    cfg.policy = QueuePolicy::Edf;
    cfg.batcher.targetK = 2;
    cfg.batcher.maxWaitCycles = 20'000;
    cfg.mapCache.enabled = true;
    cfg.mapCache.capacityEntries = 8;
    return cfg;
}

} // namespace

// ------------------------------------------------------------------ //
// Decorators                                                         //
// ------------------------------------------------------------------ //

TEST(Decorators, RequestSourceForwardsEveryCallUnchanged)
{
    for (const std::uint32_t stride : {1u, 3u}) {
        WorkloadStream plain(smallSpec());
        WorkloadStream inner(smallSpec());
        TimedRequestSource timed(inner, stride);
        std::uint64_t n = 0;
        while (true) {
            const Request *want = plain.peek();
            const Request *got = timed.peek();
            ASSERT_EQ(want == nullptr, got == nullptr);
            if (want == nullptr)
                break;
            ASSERT_TRUE(sameRequest(*want, *got));
            ASSERT_TRUE(sameRequest(plain.take(), timed.take()));
            ++n;
        }
        EXPECT_GT(n, 10u);
        EXPECT_EQ(timed.takes(), n);
        EXPECT_EQ(timed.meter().calls, 2 * n + 1); // n peeks, n takes, end
        EXPECT_EQ(timed.meter().timedCalls,
                  (timed.meter().calls + stride - 1) / stride);
    }
}

TEST(Decorators, ServiceModelForwardsEveryCallUnchanged)
{
    const FixedModel model;
    const TimedServiceModel timed(model, 2);
    const AcceleratorConfig cfg = pointAccConfig();
    for (std::uint32_t net = 0; net < 2; ++net)
        for (std::uint32_t bucket = 0; bucket < 2; ++bucket) {
            const ServiceProfile a = model.profile(cfg, net, bucket);
            const ServiceProfile b = timed.profile(cfg, net, bucket);
            EXPECT_EQ(a.totalCycles, b.totalCycles);
            EXPECT_EQ(a.mappingCycles, b.mappingCycles);
            EXPECT_EQ(a.computeCycles, b.computeCycles);
            EXPECT_EQ(a.weightLoadCycles, b.weightLoadCycles);
            EXPECT_EQ(a.mapBytes, b.mapBytes);
        }
    EXPECT_EQ(model.layerConfigHash(1), timed.layerConfigHash(1));
    EXPECT_EQ(timed.meter().calls, 5u);
    EXPECT_EQ(timed.meter().timedCalls, 3u); // calls 1, 3 and 5
}

TEST(Decorators, DecoratedSchedulerRunIsByteIdentical)
{
    const FixedModel model;
    const std::vector<AcceleratorConfig> fleet(2, pointAccConfig());
    const std::vector<double> buckets = {1.0, 2.0};

    WorkloadStream plainStream(smallSpec());
    const ServingReport plain =
        FleetScheduler(fleet, model, buckets, cachedConfig())
            .run(plainStream);

    WorkloadStream inner(smallSpec());
    TimedRequestSource source(inner, 4);
    const TimedServiceModel timedModel(model, 4);
    const ServingReport traced =
        FleetScheduler(fleet, timedModel, buckets, cachedConfig())
            .run(source);

    EXPECT_EQ(servingJson(plain), servingJson(traced));
    EXPECT_EQ(servingDigest(plain), servingDigest(traced));
    EXPECT_EQ(source.takes(), plain.generated);
    EXPECT_GT(timedModel.meter().calls, 0u);
}

TEST(Decorators, EstimateScalesSampledTime)
{
    CallMeter m;
    m.stride = 4;
    for (int i = 0; i < 8; ++i)
        m.measure([] { return 0; });
    EXPECT_EQ(m.calls, 8u);
    EXPECT_EQ(m.timedCalls, 2u);
    m.timedNs = 2 * clockOverheadNs() + 100; // 50 ns per timed call
    EXPECT_EQ(m.estimatedNs(), 400u);
}

// ------------------------------------------------------------------ //
// Visitor-gap attribution                                            //
// ------------------------------------------------------------------ //

namespace {

std::uint64_t fakeNow = 0;
std::uint64_t fakeStep = 0;

std::uint64_t
fakeClock()
{
    fakeNow += fakeStep;
    return fakeNow;
}

LayerWork
layerWith(std::vector<MappingOpKind> kinds)
{
    LayerWork w;
    for (const MappingOpKind kind : kinds) {
        MappingOpInfo op;
        op.kind = kind;
        op.inputPoints = 10;
        op.outputPoints = 4;
        w.mappingOps.push_back(op);
    }
    return w;
}

} // namespace

TEST(GapAttribution, TimeAndWorkGoToTheLayersFirstMappingKind)
{
    fakeNow = 1'000;
    GapAttributor gaps(fakeClock);
    fakeStep = 0;
    gaps.start();
    fakeStep = 30;
    gaps.visit(layerWith({MappingOpKind::Fps, MappingOpKind::BallQuery}));
    fakeStep = 7;
    gaps.visit(layerWith({}));
    fakeStep = 50;
    gaps.visit(layerWith({MappingOpKind::KernelMap}));
    fakeStep = 20;
    gaps.visit(layerWith({MappingOpKind::Quantize, MappingOpKind::KernelMap}));
    fakeStep = 5;
    gaps.finish();

    EXPECT_EQ(gaps.ns(GapKind::Fps), 30u);
    EXPECT_EQ(gaps.ns(GapKind::BallQuery), 0u);
    EXPECT_EQ(gaps.ns(GapKind::KernelMap), 50u);
    EXPECT_EQ(gaps.ns(GapKind::Quantize), 20u);
    EXPECT_EQ(gaps.ns(GapKind::None), 12u); // the dense layer + the tail
    EXPECT_EQ(gaps.wallNs(), 112u);
    ASSERT_EQ(gaps.gaps().size(), 5u);
    // Work follows the time: the FPS layer's ball query (40) counts
    // under Fps with the FPS (40), the strided conv's kernel map (14)
    // under Quantize with the quantize (10).
    EXPECT_EQ(gaps.work(GapKind::Fps), 80u);
    EXPECT_EQ(gaps.work(GapKind::BallQuery), 0u);
    EXPECT_EQ(gaps.work(GapKind::KernelMap), 14u);
    EXPECT_EQ(gaps.work(GapKind::Quantize), 24u);
    EXPECT_EQ(gaps.work(GapKind::None), 0u);
}

TEST(GapAttribution, SumsToExecuteNetworkWallTime)
{
    const Network net = pointNetPPClass();
    const PointCloud cloud = generate(net.dataset, 3, 0.05);
    GapAttributor gaps;
    std::size_t visits = 0;
    const LayerVisitor visitor = [&](const LayerWork &w) {
        ++visits;
        gaps.visit(w);
    };
    const std::uint64_t before = nowNs();
    gaps.start();
    executeNetwork(net, cloud, visitor);
    gaps.finish();
    const std::uint64_t after = nowNs();

    std::uint64_t sum = 0;
    for (std::size_t k = 0; k < kGapKinds; ++k)
        sum += gaps.ns(static_cast<GapKind>(k));
    EXPECT_EQ(sum, gaps.wallNs());
    EXPECT_LE(gaps.wallNs(), after - before);
    EXPECT_EQ(gaps.gaps().size(), visits + 1);
    EXPECT_EQ(gaps.gaps().front().startNs + gaps.wallNs(),
              gaps.gaps().back().endNs);
    EXPECT_GT(gaps.ns(GapKind::Fps), 0u);
}

TEST(GapAttribution, WorkMatchesSummarizeWorkload)
{
    for (const Network &net : {pointNetPPClass(), minkowskiUNetIndoor(),
                               dgcnn()}) {
        const PointCloud cloud = generate(net.dataset, 5, 0.05);
        GapAttributor gaps;
        gaps.start();
        executeNetwork(net, cloud,
                       [&gaps](const LayerWork &w) { gaps.visit(w); });
        gaps.finish();
        // Point-based layers hold FPS and neighbour search, sparse
        // convs quantize and kernel maps; neither mixes with the other.
        const WorkloadSummary s = summarizeWorkload(net, cloud);
        EXPECT_EQ(gaps.work(GapKind::Fps) + gaps.work(GapKind::Knn) +
                      gaps.work(GapKind::BallQuery),
                  s.fpsWork + s.neighborWork)
            << net.notation;
        EXPECT_EQ(gaps.work(GapKind::KernelMap) +
                      gaps.work(GapKind::Quantize),
                  s.kernelMapWork)
            << net.notation;
        EXPECT_EQ(gaps.work(GapKind::None), 0u) << net.notation;
    }
}

// ------------------------------------------------------------------ //
// Command line                                                       //
// ------------------------------------------------------------------ //

namespace {

Options
parse(std::vector<std::string> args)
{
    return parseOptions(args);
}

} // namespace

TEST(Options, ParsesTheBenchmarkCommandLine)
{
    const Options opt = parse({"--workload", "serve_stream", "--seed", "42",
                               "--seconds", "10", "--trace", "1"});
    EXPECT_EQ(opt.workload, WorkloadKind::ServeStream);
    EXPECT_EQ(opt.seed, 42u);
    EXPECT_DOUBLE_EQ(opt.seconds, 10.0);
    EXPECT_TRUE(opt.trace);
    EXPECT_TRUE(opt.fig13);
    EXPECT_FALSE(parse({"--workload", "infer_zoo", "--seed", "0", "--fig13",
                        "0"})
                     .fig13);
    EXPECT_EQ(parse({"--seed", "18446744073709551615", "--workload",
                     "infer_zoo"})
                  .seed,
              18446744073709551615ULL);
}

TEST(Options, RejectsMalformedWorkloadSpecs)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--workload", "serve", "--seed", "1"},
        {"--workload", "", "--seed", "1"},
        {"--workload", "infer_zoo", "--seed", "-1"},
        {"--workload", "infer_zoo", "--seed", "1.5"},
        {"--workload", "infer_zoo", "--seed", "abc"},
        {"--workload", "infer_zoo", "--seed", ""},
        {"--workload", "infer_zoo", "--seed", "18446744073709551616"},
        {"--workload", "infer_zoo"},
        {"--seed", "1"},
        {"--workload", "infer_zoo", "--seed"},
        {"--workload", "infer_zoo", "--seed", "1", "--seconds", "0"},
        {"--workload", "infer_zoo", "--seed", "1", "--seconds", "nan"},
        {"--workload", "infer_zoo", "--seed", "1", "--seconds", "5s"},
        {"--workload", "infer_zoo", "--seed", "1", "--trace", "2"},
        {"--workload", "infer_zoo", "--seed", "1", "--fig13", "yes"},
        {"--workload", "infer_zoo", "--seed", "1", "--threads", "4"},
        {"--workload", "infer_zoo", "--seed", "1", "--print-digests"},
    };
    for (const auto &args : bad)
        EXPECT_THROW(parse(args), std::invalid_argument)
            << ::testing::PrintToString(args);
}

// ------------------------------------------------------------------ //
// Digests and spans                                                  //
// ------------------------------------------------------------------ //

TEST(Digests, TableRoundTrips)
{
    const std::string path = "perfbench_test_digests.txt";
    {
        std::ofstream out(path);
        out << "# comment\n"
            << "serve_stream 3 " << hex64(1) << "," << hex64(~0ULL) << "\n";
    }
    const DigestTable table = DigestTable::load(path);
    const auto *found = table.find("serve_stream", 3);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, (std::vector<std::uint64_t>{1, ~0ULL}));
    EXPECT_EQ(table.find("serve_stream", 4), nullptr);
    EXPECT_EQ(table.find("infer_zoo", 3), nullptr);
    EXPECT_EQ(DigestTable::load("no_such_file").find("serve_stream", 3),
              nullptr);
    std::remove(path.c_str());
}

TEST(Spans, ChildrenPointAtTheirParent)
{
    SpanLog log("infer_zoo");
    const std::int64_t op = log.open("op", 100);
    const std::int64_t child = log.add("child", 110, 120, op);
    log.finish(op, 200);
    EXPECT_EQ(op, 0);
    EXPECT_EQ(child, 1);
    EXPECT_EQ(log.size(), 2u);
    const char *path = "perfbench_test_spans.json";
    ASSERT_TRUE(log.write(path));
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::remove(path);
    EXPECT_NE(text.find("\"parent\":0"), std::string::npos);
    EXPECT_NE(text.find("\"workload\":\"infer_zoo\""), std::string::npos);
}

TEST(Names, MetricStemsAreValidMetricNames)
{
    EXPECT_EQ(metricStem("PointNet++(c)"), "pointnetpp_c");
    EXPECT_EQ(metricStem("F-PointNet++"), "f-pointnetpp");
    EXPECT_EQ(metricStem("MinkNet(o)"), "minknet_o");
    EXPECT_EQ(inferMetricNames().size(), 8u);
}
