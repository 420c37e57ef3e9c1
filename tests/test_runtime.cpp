/**
 * @file
 * Tests for the serving runtime: deterministic replay, queue-policy
 * ordering, batcher compatibility, conservation of requests through
 * the scheduler, per-accelerator utilization bounds, the kernel-map
 * cache (eviction policies, counters, and hand-computed hit/miss
 * schedules), traffic-program validation and presets, and the
 * reactive autoscaler (config validation, the windowed decision
 * function, and a hand-computed spin-up/graceful-drain schedule).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "core/rng.hpp"
#include "nn/zoo.hpp"
#include "runtime/autoscaler.hpp"
#include "runtime/batcher.hpp"
#include "runtime/faults.hpp"
#include "runtime/map_cache.hpp"
#include "runtime/planner.hpp"
#include "runtime/queue.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serving_stats.hpp"
#include "runtime/traffic.hpp"
#include "runtime/workload.hpp"
#include "sim/accel_config.hpp"
#include "sim/report.hpp"

namespace pointacc {
namespace {

// ---------------------------------------------------------------- //
//                           Workload                                //
// ---------------------------------------------------------------- //

WorkloadSpec
basicSpec(ArrivalProcess process = ArrivalProcess::Poisson)
{
    WorkloadSpec spec;
    spec.seed = 99;
    spec.requestsPerMCycle = 50.0;
    spec.horizonCycles = 10'000'000;
    spec.arrivals = process;
    spec.mix = {{0, 0, 3.0, 0}, {1, 1, 1.0, 500'000}};
    return spec;
}

TEST(Workload, DeterministicReplay)
{
    const auto a = WorkloadGenerator(basicSpec()).generate();
    const auto b = WorkloadGenerator(basicSpec()).generate();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].arrivalCycle, b[i].arrivalCycle);
        EXPECT_EQ(a[i].networkId, b[i].networkId);
        EXPECT_EQ(a[i].sizeBucket, b[i].sizeBucket);
        EXPECT_EQ(a[i].deadlineCycle, b[i].deadlineCycle);
        EXPECT_EQ(a[i].cloudId, b[i].cloudId);
    }

    auto other = basicSpec();
    other.seed = 100;
    const auto c = WorkloadGenerator(other).generate();
    bool differs = c.size() != a.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].arrivalCycle != c[i].arrivalCycle;
    EXPECT_TRUE(differs);
}

TEST(Workload, ArrivalsSortedAndInHorizon)
{
    for (const auto process :
         {ArrivalProcess::Poisson, ArrivalProcess::Bursty}) {
        const auto spec = basicSpec(process);
        const auto trace = WorkloadGenerator(spec).generate();
        ASSERT_FALSE(trace.empty()) << toString(process);
        for (std::size_t i = 1; i < trace.size(); ++i)
            EXPECT_GE(trace[i].arrivalCycle, trace[i - 1].arrivalCycle);
        // Burst members trail their event by at most the burst size.
        const std::uint64_t slack =
            process == ArrivalProcess::Bursty ? 2 * spec.meanBurstSize : 0;
        EXPECT_LT(trace.back().arrivalCycle, spec.horizonCycles + slack);
    }
}

TEST(Workload, MeanRateIsRespected)
{
    for (const auto process :
         {ArrivalProcess::Poisson, ArrivalProcess::Bursty}) {
        const auto spec = basicSpec(process);
        const auto trace = WorkloadGenerator(spec).generate();
        const double expected = spec.requestsPerMCycle *
                                static_cast<double>(spec.horizonCycles) /
                                1e6;
        EXPECT_NEAR(static_cast<double>(trace.size()), expected,
                    0.25 * expected)
            << toString(process);
    }
}

TEST(Workload, DeadlinesFollowTheMix)
{
    const auto trace = WorkloadGenerator(basicSpec()).generate();
    for (const auto &r : trace) {
        if (r.networkId == 1) {
            EXPECT_EQ(r.deadlineCycle, r.arrivalCycle + 500'000);
        } else {
            EXPECT_EQ(r.deadlineCycle, 0u);
        }
    }
}

TEST(Workload, StreamReuseControlsCloudIdentity)
{
    // mapReuseProb = 0: every frame is fresh — cloudIds are unique
    // and real (>= 1; 0 is the no-identity default).
    auto spec = basicSpec();
    const auto fresh = WorkloadGenerator(spec).generate();
    std::set<std::uint64_t> ids;
    for (const auto &r : fresh) {
        EXPECT_GE(r.cloudId, 1u);
        ids.insert(r.cloudId);
    }
    EXPECT_EQ(ids.size(), fresh.size());

    // mapReuseProb = 1 on a single stream: the first frame repeats
    // forever — one cloudId across the whole trace.
    spec.mix = {{0, 0, 1.0, 0, 0, 1.0}};
    const auto repeated = WorkloadGenerator(spec).generate();
    ASSERT_FALSE(repeated.empty());
    for (const auto &r : repeated)
        EXPECT_EQ(r.cloudId, repeated.front().cloudId);

    // Two classes on separate streams never share frames.
    spec.mix = {{0, 0, 1.0, 0, 0, 0.5}, {1, 1, 1.0, 0, 1, 0.5}};
    const auto twoStreams = WorkloadGenerator(spec).generate();
    std::set<std::uint64_t> net0, net1;
    for (const auto &r : twoStreams)
        (r.networkId == 0 ? net0 : net1).insert(r.cloudId);
    for (const auto id : net0)
        EXPECT_EQ(net1.count(id), 0u);
}

// ---------------------------------------------------------------- //
//                             Queue                                 //
// ---------------------------------------------------------------- //

Request
makeRequest(std::uint64_t id, std::uint64_t arrival,
            std::uint64_t estimate = 0, std::uint64_t deadline = 0)
{
    Request r;
    r.id = id;
    r.arrivalCycle = arrival;
    r.estimatedCycles = estimate;
    r.deadlineCycle = deadline;
    return r;
}

/** Pop the queue's head alone: a one-request batch led by it. */
Request
popHead(AdmissionQueue &q)
{
    const Request *head = q.peekEligible(nullptr);
    if (head == nullptr) {
        ADD_FAILURE() << "popHead on an empty queue";
        return Request{};
    }
    return q.popLedByBuckets(*head, {}, nullptr, 1, nullptr).front();
}

TEST(AdmissionQueue, FifoPreservesArrivalOrder)
{
    AdmissionQueue q(8, QueuePolicy::Fifo);
    q.push(makeRequest(0, 30));
    q.push(makeRequest(1, 10));
    q.push(makeRequest(2, 20));
    EXPECT_EQ(popHead(q).id, 1u);
    EXPECT_EQ(popHead(q).id, 2u);
    EXPECT_EQ(popHead(q).id, 0u);
}

TEST(AdmissionQueue, SjfPicksShortestEstimate)
{
    AdmissionQueue q(8, QueuePolicy::Sjf);
    q.push(makeRequest(0, 0, 900));
    q.push(makeRequest(1, 1, 100));
    q.push(makeRequest(2, 2, 500));
    EXPECT_EQ(popHead(q).id, 1u);
    EXPECT_EQ(popHead(q).id, 2u);
    EXPECT_EQ(popHead(q).id, 0u);
}

TEST(AdmissionQueue, EdfPicksEarliestDeadlineBestEffortLast)
{
    AdmissionQueue q(8, QueuePolicy::Edf);
    q.push(makeRequest(0, 0, 0, 0));    // best-effort
    q.push(makeRequest(1, 1, 0, 5000));
    q.push(makeRequest(2, 2, 0, 1000));
    EXPECT_EQ(popHead(q).id, 2u);
    EXPECT_EQ(popHead(q).id, 1u);
    EXPECT_EQ(popHead(q).id, 0u);
}

TEST(AdmissionQueue, BoundedDepthDropsAndCounts)
{
    AdmissionQueue q(2, QueuePolicy::Fifo);
    EXPECT_TRUE(q.push(makeRequest(0, 0)));
    EXPECT_TRUE(q.push(makeRequest(1, 1)));
    EXPECT_FALSE(q.push(makeRequest(2, 2)));
    EXPECT_EQ(q.admitted(), 2u);
    EXPECT_EQ(q.dropped(), 1u);
    EXPECT_EQ(q.size(), 2u);
}

TEST(AdmissionQueue, PushUncountedNeverTouchesDropAccounting)
{
    // The crash-retry re-admission path: a request already counted as
    // admitted at its first push must not inflate `admitted` when it
    // re-enters, and a shed retry must not become a second `dropped` —
    // the conservation identities count each request exactly once.
    AdmissionQueue q(2, QueuePolicy::Fifo);
    EXPECT_TRUE(q.push(makeRequest(0, 0)));
    EXPECT_TRUE(q.pushUncounted(makeRequest(1, 1)));
    EXPECT_EQ(q.admitted(), 1u);
    EXPECT_EQ(q.dropped(), 0u);
    EXPECT_EQ(q.size(), 2u);

    // Full queue: the uncounted push sheds, with no drop recorded.
    EXPECT_FALSE(q.pushUncounted(makeRequest(2, 2)));
    EXPECT_EQ(q.admitted(), 1u);
    EXPECT_EQ(q.dropped(), 0u);
    EXPECT_EQ(q.size(), 2u);

    // The counted path still counts normally afterwards.
    EXPECT_FALSE(q.push(makeRequest(3, 3)));
    EXPECT_EQ(q.dropped(), 1u);

    // Re-admitted requests drain through the policies like any other.
    EXPECT_EQ(popHead(q).id, 0u);
    EXPECT_EQ(popHead(q).id, 1u);
    EXPECT_TRUE(q.empty());
}

TEST(AdmissionQueue, DuplicateIdIsRejected)
{
    // Queued ids must be unique, on both push paths and under every
    // policy. An id may come back once it has left, and a hedge copy
    // (bit 63 set) is a distinct id queued beside its original.
    constexpr std::uint64_t kHedgeBit = 1ULL << 63;
    for (const QueuePolicy policy :
         {QueuePolicy::Fifo, QueuePolicy::Sjf, QueuePolicy::Edf}) {
        SCOPED_TRACE(toString(policy));
        AdmissionQueue q(8, policy);
        ASSERT_TRUE(q.push(makeRequest(7, 0)));
        EXPECT_DEATH(q.push(makeRequest(7, 1)), "unique request ids");
        EXPECT_DEATH(q.pushUncounted(makeRequest(7, 1)),
                     "unique request ids");
        EXPECT_TRUE(q.pushUncounted(makeRequest(7 | kHedgeBit, 1)));
        EXPECT_EQ(popHead(q).id, 7u);
        EXPECT_TRUE(q.pushUncounted(makeRequest(7, 2)));
        EXPECT_DEATH(q.pushUncounted(makeRequest(7 | kHedgeBit, 3)),
                     "unique request ids");
        EXPECT_EQ(q.size(), 2u);
    }
}

// ---------------------------------------------------------------- //
//                       Fault validation                            //
// ---------------------------------------------------------------- //

TEST(FaultValidation, DisabledProgramAndPolicyAreVacuouslyValid)
{
    // Disabled carriers validate vacuously even with absurd fields —
    // the off switch must never be able to throw.
    FaultProgram program;
    program.mtbfNs = 5;
    program.crashes.push_back(CrashWindow{0, 999, 0});
    EXPECT_NO_THROW(validateFaultProgram(program));

    RetryPolicy policy;
    policy.backoffBaseNs = 0;
    policy.backoffMult = 0.0;
    EXPECT_NO_THROW(validateRetryPolicy(policy));
}

TEST(FaultValidation, StochasticRatesMustBePairedWithAHorizon)
{
    FaultProgram program;
    program.enabled = true;
    program.horizonNs = 1'000'000;
    program.mtbfNs = 10'000;
    program.mttrNs = 1'000;
    EXPECT_NO_THROW(validateFaultProgram(program));

    program.mttrNs = 0; // MTBF without MTTR: outage length undefined
    EXPECT_THROW(validateFaultProgram(program),
                 std::invalid_argument);

    program.mtbfNs = 0; // MTTR without MTBF: nothing ever fails
    program.mttrNs = 1'000;
    EXPECT_THROW(validateFaultProgram(program),
                 std::invalid_argument);

    program.mtbfNs = 10'000; // paired again, but no generation window
    program.horizonNs = 0;
    EXPECT_THROW(validateFaultProgram(program),
                 std::invalid_argument);
}

TEST(FaultValidation, ScheduledWindowsBeyondTheHorizonThrow)
{
    FaultProgram program;
    program.enabled = true;
    program.horizonNs = 1'000;
    program.crashes.push_back(CrashWindow{0, 500, 100});
    EXPECT_NO_THROW(validateFaultProgram(program));

    program.crashes.push_back(CrashWindow{1, 2'000, 0});
    EXPECT_THROW(validateFaultProgram(program),
                 std::invalid_argument);

    program.crashes.pop_back();
    program.stragglers.push_back(StragglerWindow{0, 5'000, 10, 2.0});
    EXPECT_THROW(validateFaultProgram(program),
                 std::invalid_argument);

    // horizonNs == 0 means "no bound": the same windows are fine.
    program.crashes.push_back(CrashWindow{1, 2'000, 0});
    program.horizonNs = 0;
    EXPECT_NO_THROW(validateFaultProgram(program));
}

TEST(FaultValidation, StragglerWindowsNeedRealSlowdownsAndDurations)
{
    FaultProgram program;
    program.enabled = true;
    program.stragglers.push_back(StragglerWindow{0, 100, 50, 2.0});
    EXPECT_NO_THROW(validateFaultProgram(program));

    program.stragglers[0].slowdown = 1.0; // not a slowdown at all
    EXPECT_THROW(validateFaultProgram(program),
                 std::invalid_argument);

    program.stragglers[0].slowdown =
        std::numeric_limits<double>::infinity();
    EXPECT_THROW(validateFaultProgram(program),
                 std::invalid_argument);

    program.stragglers[0].slowdown = 2.0;
    program.stragglers[0].durationNs = 0; // empty window
    EXPECT_THROW(validateFaultProgram(program),
                 std::invalid_argument);
}

TEST(FaultValidation, OverlappingStragglerWindowsPerInstanceThrow)
{
    FaultProgram program;
    program.enabled = true;
    program.stragglers.push_back(StragglerWindow{0, 100, 100, 2.0});
    program.stragglers.push_back(StragglerWindow{0, 150, 100, 3.0});
    EXPECT_THROW(validateFaultProgram(program),
                 std::invalid_argument);

    // The same two windows on different instances are fine.
    program.stragglers[1].instance = 1;
    EXPECT_NO_THROW(validateFaultProgram(program));
}

TEST(FaultValidation, RetryBackoffParametersAreBounded)
{
    RetryPolicy policy;
    policy.enabled = true;
    EXPECT_NO_THROW(validateRetryPolicy(policy));

    policy.backoffBaseNs = 0;
    EXPECT_THROW(validateRetryPolicy(policy), std::invalid_argument);

    policy.backoffBaseNs = 1'000;
    policy.backoffMult = 0.5; // shrinking "backoff"
    EXPECT_THROW(validateRetryPolicy(policy), std::invalid_argument);

    policy.backoffMult = 2.0;
    policy.maxBackoffNs = 500; // cap below the base
    EXPECT_THROW(validateRetryPolicy(policy), std::invalid_argument);
}

TEST(FaultValidation, RetryBackoffGrowsGeometricallyAndSaturates)
{
    RetryPolicy policy;
    policy.enabled = true;
    policy.backoffBaseNs = 1'000;
    policy.backoffMult = 2.0;
    EXPECT_EQ(retryBackoffNs(policy, 0), 1'000u);
    EXPECT_EQ(retryBackoffNs(policy, 1), 2'000u);
    EXPECT_EQ(retryBackoffNs(policy, 3), 8'000u);

    policy.maxBackoffNs = 3'000;
    EXPECT_EQ(retryBackoffNs(policy, 3), 3'000u);

    // A huge attempt index saturates instead of overflowing.
    policy.maxBackoffNs = 0;
    EXPECT_GT(retryBackoffNs(policy, 200), retryBackoffNs(policy, 3));
}

TEST(FaultValidation, MaterializeIsDeterministicAndFleetBounded)
{
    FaultProgram program;
    program.enabled = true;
    program.horizonNs = 10'000'000;
    program.mtbfNs = 1'000'000;
    program.mttrNs = 100'000;
    program.seed = 7;
    program.crashes.push_back(CrashWindow{5, 1'000, 500});

    const auto a = materializeFaultEvents(program, 2);
    const auto b = materializeFaultEvents(program, 2);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].atNs, b[i].atNs);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].instance, b[i].instance);
    }
    // Sorted by time, and the out-of-fleet scheduled window (instance
    // 5 against a 2-instance fleet) materialized to nothing.
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_GE(a[i].atNs, a[i - 1].atNs);
    for (const auto &e : a)
        EXPECT_LT(e.instance, 2u);

    FaultProgram off;
    EXPECT_TRUE(materializeFaultEvents(off, 4).empty());
}

TEST(AdmissionQueue, PopLedByBucketsStaysInNetworkAndBound)
{
    AdmissionQueue q(8, QueuePolicy::Fifo);
    for (std::uint64_t i = 0; i < 6; ++i) {
        auto r = makeRequest(i, i);
        r.networkId = i % 2; // alternate two networks
        q.push(r);
    }
    const Request *head = q.peekEligible(nullptr);
    ASSERT_NE(head, nullptr);
    const auto batch = q.popLedByBuckets(*head, {0u}, nullptr, 2, nullptr);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].id, 0u);
    EXPECT_EQ(batch[1].id, 2u); // next same-network, not id 1
    EXPECT_EQ(q.size(), 4u);
}

TEST(AdmissionQueue, VisitClassWalksExactlyThatClass)
{
    AdmissionQueue q(16, QueuePolicy::Fifo);
    for (std::uint64_t i = 0; i < 8; ++i) {
        auto r = makeRequest(i, i);
        r.networkId = static_cast<std::uint32_t>(i % 2);
        r.sizeBucket = static_cast<std::uint32_t>(i % 4 / 2);
        q.push(r);
    }
    std::vector<std::uint64_t> seen;
    q.visitClass(0, 1, [&](const Request &r) {
        seen.push_back(r.id);
        return true;
    });
    // Network 0, bucket 1: ids 2 and 6, in rank (arrival) order.
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], 2u);
    EXPECT_EQ(seen[1], 6u);

    // Early stop after the first member.
    seen.clear();
    q.visitClass(1, 0, [&](const Request &r) {
        seen.push_back(r.id);
        return false;
    });
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], 1u);

    // Absent classes visit nothing.
    q.visitClass(7, 0, [&](const Request &) {
        ADD_FAILURE() << "visited an absent class";
        return true;
    });
}

TEST(AdmissionQueue, PopLedByBucketsMergesClassesInPolicyOrder)
{
    AdmissionQueue q(16, QueuePolicy::Fifo);
    // Network 0 requests across buckets 0/1/2, interleaved arrivals;
    // one network-1 request that must never join.
    const auto add = [&](std::uint64_t id, std::uint64_t arrival,
                         std::uint32_t net, std::uint32_t bucket) {
        auto r = makeRequest(id, arrival);
        r.networkId = net;
        r.sizeBucket = bucket;
        q.push(r);
    };
    add(0, 5, 0, 0);
    add(1, 1, 0, 1);
    add(2, 2, 1, 0);
    add(3, 3, 0, 2);
    add(4, 4, 0, 1);

    const Request head = *q.peekEligible(nullptr); // id 1, arrival 1
    ASSERT_EQ(head.id, 1u);
    // Buckets 0 and 1 are allowed; bucket 2 (id 3) is not. The merge
    // must interleave the two class sub-queues by arrival order.
    const auto batch =
        q.popLedByBuckets(head, {0u, 1u}, nullptr, 8, nullptr);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].id, 1u);
    EXPECT_EQ(batch[1].id, 4u); // arrival 4, bucket 1
    EXPECT_EQ(batch[2].id, 0u); // arrival 5, bucket 0
    EXPECT_EQ(q.size(), 2u);    // ids 2 (other network) and 3 remain

    // The per-item extra rule filters followers but never the head,
    // and only the head's network's classes are visited.
    EXPECT_EQ(popHead(q).id, 2u); // clear network 1
    add(5, 6, 0, 0);
    add(6, 7, 0, 0);
    const Request head2 = *q.peekEligible(nullptr);
    ASSERT_EQ(head2.id, 3u); // network 0, bucket 2
    const auto filtered = q.popLedByBuckets(
        head2, {0u},
        [](const Request &, const Request &r) { return r.id % 2 == 0; },
        8, nullptr);
    ASSERT_EQ(filtered.size(), 2u); // head 3 (odd!) + id 6; id 5 odd
    EXPECT_EQ(filtered[0].id, 3u);
    EXPECT_EQ(filtered[1].id, 6u);
    EXPECT_EQ(q.size(), 1u); // id 5 remains
}

// ---------------------------------------------------------------- //
//                            Batcher                                //
// ---------------------------------------------------------------- //

TEST(Batcher, CompatibilityRules)
{
    BatcherConfig bcfg;
    bcfg.maxPointsRatio = 2.0;
    const Batcher batcher(bcfg, {1.0, 1.5, 4.0});

    auto a = makeRequest(0, 0);
    auto b = makeRequest(1, 1);
    a.networkId = b.networkId = 3;
    a.sizeBucket = 0;
    b.sizeBucket = 1; // ratio 1.5 <= 2.0
    EXPECT_TRUE(batcher.compatible(a, b));

    b.sizeBucket = 2; // ratio 4.0 > 2.0
    EXPECT_FALSE(batcher.compatible(a, b));

    b.sizeBucket = 1;
    b.networkId = 4; // different network
    EXPECT_FALSE(batcher.compatible(a, b));
}

TEST(Batcher, FormLedByRespectsMaxSizeAndDisabledMode)
{
    BatcherConfig bcfg;
    bcfg.maxBatchSize = 3;
    const Batcher batcher(bcfg, {1.0});

    AdmissionQueue q(16, QueuePolicy::Fifo);
    for (std::uint64_t i = 0; i < 5; ++i)
        q.push(makeRequest(i, i));
    const auto batch = batcher.formLedBy(q, *q.peekEligible(nullptr), nullptr);
    EXPECT_EQ(batch.size(), 3u);
    EXPECT_EQ(q.size(), 2u);

    BatcherConfig off = bcfg;
    off.enabled = false;
    const Batcher single(off, {1.0});
    const auto lone = single.formLedBy(q, *q.peekEligible(nullptr), nullptr);
    EXPECT_EQ(lone.size(), 1u);
}

TEST(Batcher, ExtraCompatibilityRuleIsAnded)
{
    // The scheduler installs "equal map-cache hit status" through this
    // hook; any pair the extra rule rejects must not batch, however
    // compatible the built-in rule finds them.
    Batcher batcher(BatcherConfig{}, {1.0});
    auto a = makeRequest(0, 0);
    auto b = makeRequest(1, 1);
    EXPECT_TRUE(batcher.compatible(a, b));

    batcher.setExtraCompatibility([](const Request &x, const Request &y) {
        return x.cloudId == y.cloudId;
    });
    a.cloudId = 7;
    b.cloudId = 8;
    EXPECT_FALSE(batcher.compatible(a, b));
    b.cloudId = 7;
    EXPECT_TRUE(batcher.compatible(a, b));
}

// ---------------------------------------------------------------- //
//                          Map cache                                //
// ---------------------------------------------------------------- //

MapCacheKey
cloudKey(std::uint64_t cloud)
{
    MapCacheKey key;
    key.cloudId = cloud;
    return key;
}

TEST(MapCache, LruEvictsLeastRecentlyUsed)
{
    MapCacheConfig mcfg;
    mcfg.enabled = true;
    mcfg.capacityEntries = 2;
    mcfg.eviction = MapCacheEviction::Lru;
    MapCache cache(mcfg);

    cache.insert(cloudKey(1), {100, 64});
    cache.insert(cloudKey(2), {100, 64});
    cache.recordHit(cloudKey(1)); // 1 is now the most recent
    cache.insert(cloudKey(3), {100, 64});
    EXPECT_TRUE(cache.contains(cloudKey(1)));
    EXPECT_FALSE(cache.contains(cloudKey(2)));
    EXPECT_TRUE(cache.contains(cloudKey(3)));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(MapCache, LfuEvictsLeastFrequentlyUsed)
{
    MapCacheConfig mcfg;
    mcfg.enabled = true;
    mcfg.capacityEntries = 2;
    mcfg.eviction = MapCacheEviction::Lfu;
    MapCache cache(mcfg);

    cache.insert(cloudKey(1), {100, 64});
    cache.insert(cloudKey(2), {100, 64});
    cache.recordHit(cloudKey(1));
    cache.recordHit(cloudKey(1));
    cache.recordHit(cloudKey(2)); // 2 used once, 1 used twice
    cache.insert(cloudKey(3), {100, 64});
    EXPECT_TRUE(cache.contains(cloudKey(1)));
    EXPECT_FALSE(cache.contains(cloudKey(2)));
    EXPECT_TRUE(cache.contains(cloudKey(3)));
}

TEST(MapCache, CountersAndIdempotentInsert)
{
    MapCacheConfig mcfg;
    mcfg.enabled = true;
    mcfg.capacityEntries = 8;
    mcfg.hitReadCycles = 10;
    MapCache cache(mcfg);

    EXPECT_FALSE(cache.contains(cloudKey(1)));
    cache.recordMiss();
    cache.insert(cloudKey(1), {100, 64});
    // Re-inserting a resident key (two in-flight misses of one frame)
    // refreshes without double-counting.
    cache.insert(cloudKey(1), {100, 64});
    EXPECT_EQ(cache.stats().insertions, 1u);

    cache.recordHit(cloudKey(1));
    cache.recordHit(cloudKey(1));
    const auto &s = cache.stats();
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.bytesSaved, 128u);          // 2 hits x 64 bytes
    // recordHit books no cycle savings: the scheduler credits the
    // batch-level skipped mapping explicitly, so the counter matches
    // the simulated schedule instead of a per-hit approximation.
    EXPECT_EQ(s.cyclesSaved, 0u);
    cache.creditSavedCycles(100 - 10);
    cache.creditSavedCycles(100 - 10);
    EXPECT_EQ(s.cyclesSaved, 2u * (100 - 10));
    EXPECT_DOUBLE_EQ(s.hitRate(), 2.0 / 3.0);

    // Distinct networks / layer stacks never share entries, even for
    // the same cloud.
    MapCacheKey otherNet = cloudKey(1);
    otherNet.networkId = 1;
    EXPECT_FALSE(cache.contains(otherNet));
    MapCacheKey otherLayers = cloudKey(1);
    otherLayers.layerHash = 42;
    EXPECT_FALSE(cache.contains(otherLayers));
}

// ---------------------------------------------------------------- //
//                      Scheduler + fleet                            //
// ---------------------------------------------------------------- //

/** Fixed cost table: network n, bucket b costs base*(n+1)*(b+1). */
class FixedServiceModel : public ServiceModel
{
  public:
    explicit FixedServiceModel(std::uint64_t base_cycles,
                               std::uint64_t weight_load = 0)
        : base(base_cycles), weightLoad(weight_load)
    {}

    ServiceProfile
    profile(const AcceleratorConfig &, std::uint32_t network_id,
            std::uint32_t bucket) const override
    {
        ServiceProfile p;
        p.totalCycles = base * (network_id + 1) * (bucket + 1);
        p.computeCycles = p.totalCycles;
        p.weightLoadCycles = weightLoad;
        return p;
    }

  private:
    std::uint64_t base;
    std::uint64_t weightLoad;
};

/** Explicit per-network phase table (network id indexes the table). */
class PhasedServiceModel : public ServiceModel
{
  public:
    struct Entry
    {
        std::uint64_t mapCycles;
        std::uint64_t backendCycles;
        std::uint64_t weightLoadCycles = 0;
    };

    explicit PhasedServiceModel(std::vector<Entry> entries)
        : table(std::move(entries))
    {}

    ServiceProfile
    profile(const AcceleratorConfig &, std::uint32_t network_id,
            std::uint32_t) const override
    {
        const Entry &e = table.at(network_id);
        ServiceProfile p;
        p.totalCycles = e.mapCycles + e.backendCycles;
        p.mappingCycles = e.mapCycles;
        p.computeCycles = e.backendCycles;
        p.weightLoadCycles = e.weightLoadCycles;
        return p;
    }

  private:
    std::vector<Entry> table;
};

std::vector<Request>
denseTrace(std::size_t count, std::uint64_t gap)
{
    std::vector<Request> trace;
    for (std::size_t i = 0; i < count; ++i) {
        auto r = makeRequest(i, i * gap);
        r.networkId = i % 2;
        trace.push_back(r);
    }
    return trace;
}

TEST(FleetScheduler, ConstructorRejectsBadFaultPrograms)
{
    // The scheduler validates fault/retry configs at construction,
    // never mid-simulation — the validateWorkloadSpec idiom.
    const FixedServiceModel model(10'000);
    SchedulerConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.mtbfNs = 1'000; // MTBF without MTTR
    EXPECT_THROW(
        FleetScheduler({pointAccConfig()}, model, {1.0}, cfg),
        std::invalid_argument);

    SchedulerConfig cfg2;
    cfg2.retry.enabled = true;
    cfg2.retry.backoffBaseNs = 0;
    EXPECT_THROW(
        FleetScheduler({pointAccConfig()}, model, {1.0}, cfg2),
        std::invalid_argument);
}

TEST(FleetScheduler, ConservationUnderOverload)
{
    const FixedServiceModel model(10'000);
    SchedulerConfig scfg;
    scfg.queueDepth = 4; // tiny: force drops
    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);

    // Arrivals far faster than service: queue must shed load.
    const auto report = sched.run(denseTrace(200, 100));
    EXPECT_EQ(report.generated, 200u);
    EXPECT_GT(report.dropped, 0u);
    EXPECT_EQ(report.generated, report.admitted + report.dropped);
    EXPECT_EQ(report.admitted, report.completed + report.leftoverQueued);
    EXPECT_EQ(report.leftoverQueued, 0u); // the simulation drains
}

TEST(FleetScheduler, DeterministicReplay)
{
    const FixedServiceModel model(25'000, 2'000);
    SchedulerConfig scfg;
    scfg.policy = QueuePolicy::Sjf;
    scfg.batcher.enabled = true;
    FleetScheduler sched({pointAccConfig(), pointAccConfig()}, model,
                         {1.0}, scfg);

    const auto a = sched.run(denseTrace(300, 7'000));
    const auto b = sched.run(denseTrace(300, 7'000));
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.horizonCycles, b.horizonCycles);
    EXPECT_DOUBLE_EQ(a.latencyCycles.mean(), b.latencyCycles.mean());
    EXPECT_DOUBLE_EQ(a.latencyCycles.percentile(0.99),
                     b.latencyCycles.percentile(0.99));
    ASSERT_EQ(a.accelerators.size(), b.accelerators.size());
    for (std::size_t i = 0; i < a.accelerators.size(); ++i)
        EXPECT_EQ(a.accelerators[i].busyCycles,
                  b.accelerators[i].busyCycles);
}

TEST(FleetScheduler, UtilizationNeverExceedsOne)
{
    const FixedServiceModel model(50'000);
    for (const std::size_t fleetSize : {1u, 2u, 3u}) {
        std::vector<AcceleratorConfig> fleet(fleetSize, pointAccConfig());
        FleetScheduler sched(fleet, model, {1.0}, {});
        const auto report = sched.run(denseTrace(150, 10'000));
        ASSERT_EQ(report.accelerators.size(), fleetSize);
        for (const auto &acc : report.accelerators) {
            EXPECT_LE(acc.utilization(report.horizonCycles), 1.0)
                << acc.name;
            EXPECT_LE(acc.busyCycles, report.horizonCycles) << acc.name;
        }
    }
}

TEST(FleetScheduler, P99MonotoneWithFleetSize)
{
    const FixedServiceModel model(40'000);
    WorkloadSpec spec;
    spec.seed = 5;
    spec.requestsPerMCycle = 30.0; // ~1.2x one instance's capacity
    spec.horizonCycles = 30'000'000;
    spec.mix = {{0, 0, 1.0, 0}, {1, 0, 1.0, 0}};
    const auto trace = WorkloadGenerator(spec).generate();

    double prev = -1.0;
    for (const std::size_t fleetSize : {4u, 2u, 1u}) {
        std::vector<AcceleratorConfig> fleet(fleetSize, pointAccConfig());
        FleetScheduler sched(fleet, model, {1.0}, {});
        const auto report = sched.run(trace);
        const double p99 = report.latencyCycles.percentile(0.99);
        EXPECT_GE(p99, prev) << fleetSize << " accelerators";
        prev = p99;
    }
}

TEST(FleetScheduler, DeadlineMissesAreCounted)
{
    const FixedServiceModel model(100'000);
    FleetScheduler sched({pointAccConfig()}, model, {1.0}, {});

    // Two back-to-back requests; the second waits 100k cycles and
    // misses its 150k relative deadline, the first makes it.
    auto a = makeRequest(0, 0, 0, 150'000);
    auto b = makeRequest(1, 1, 0, 150'001);
    const auto report = sched.run({a, b});
    EXPECT_EQ(report.completed, 2u);
    EXPECT_EQ(report.deadlineMisses, 1u);
}

TEST(FleetScheduler, CrashRetryFailoverOracle)
{
    // One request, two instances, phases 100 + 900. Dispatched to
    // instance 0 at t=0 (due at 1000); the scheduled crash at 500
    // kills it mid-flight. The retry waits its 100 ns backoff, re-
    // enters admission at 600, and lands on the healthy instance 1,
    // completing at 1600 — a counted failover.
    const PhasedServiceModel model({{100, 900}});
    SchedulerConfig scfg;
    scfg.faults.enabled = true;
    scfg.faults.crashes.push_back(CrashWindow{0, 500, 0});
    scfg.retry.enabled = true;
    scfg.retry.backoffBaseNs = 100;
    FleetScheduler sched({pointAccConfig(), pointAccConfig()}, model,
                         {1.0}, scfg);
    const auto report = sched.run({makeRequest(0, 0)});

    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.faults.crashes, 1u);
    EXPECT_EQ(report.faults.inflightFailed, 1u);
    EXPECT_EQ(report.faults.failedBatches, 1u);
    EXPECT_EQ(report.faults.retryAttempts, 1u);
    EXPECT_EQ(report.faults.failovers, 1u);
    EXPECT_EQ(report.horizonCycles, 1600u);
    EXPECT_EQ(report.latencyCycles.mean(), 1600.0);
    EXPECT_EQ(report.admitted, report.completed + report.failed +
                                   report.leftoverQueued);
}

TEST(FleetScheduler, CrashWithoutRetryFailsTerminallyAndRecovers)
{
    // No retry policy: the crash victim fails terminally. The single
    // instance recovers at 700 and serves the second arrival (queued
    // while it was down) to completion at 1700.
    const PhasedServiceModel model({{100, 900}});
    SchedulerConfig scfg;
    scfg.faults.enabled = true;
    scfg.faults.crashes.push_back(CrashWindow{0, 500, 200});
    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);
    const auto report =
        sched.run({makeRequest(0, 0), makeRequest(1, 600)});

    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.faults.crashes, 1u);
    EXPECT_EQ(report.faults.recoveries, 1u);
    EXPECT_EQ(report.faults.retryAttempts, 0u);
    EXPECT_EQ(report.horizonCycles, 1700u);
    EXPECT_EQ(report.admitted, 2u);
    EXPECT_EQ(report.admitted, report.completed + report.failed +
                                   report.leftoverQueued);
}

/** One autoscaled instance (min = max = initial = 1, evaluated every
 *  1000 ns) under one crash window, serving four 100-ns requests that
 *  arrive at 0, 500, 1000 and 1500. */
ServingReport
runAutoscaledCrash(const CrashWindow &crash, bool autoscale)
{
    const FixedServiceModel model(100);
    SchedulerConfig scfg;
    scfg.faults.enabled = true;
    scfg.faults.crashes.push_back(crash);
    scfg.autoscaler.enabled = autoscale;
    scfg.autoscaler.minInstances = 1;
    scfg.autoscaler.maxInstances = 1;
    scfg.autoscaler.initialInstances = 1;
    scfg.autoscaler.evalIntervalCycles = 1000;
    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);
    return sched.run({makeRequest(0, 0), makeRequest(1, 500),
                      makeRequest(2, 1000), makeRequest(3, 1500)});
}

TEST(FleetScheduler, AutoscalerStopsWhenTheWholeFleetIsDownForGood)
{
    // Regression: the crash at 1000 powers the only instance off for
    // good, and the evaluation used to re-arm forever over the two
    // stranded requests. With no instance able to serve again it must
    // stop, exactly where the unscaled fleet stops: horizon 1500, the
    // first two requests done, the last two left over.
    const auto scaled = runAutoscaledCrash(CrashWindow{0, 1000, 0}, true);
    const auto fixed = runAutoscaledCrash(CrashWindow{0, 1000, 0}, false);
    for (const auto *report : {&scaled, &fixed}) {
        EXPECT_EQ(report->horizonCycles, 1500u);
        EXPECT_EQ(report->completed, 2u);
        EXPECT_EQ(report->failed, 0u);
        EXPECT_EQ(report->leftoverQueued, 2u);
        EXPECT_EQ(report->admitted, report->completed + report->failed +
                                        report->leftoverQueued);
    }
    // One evaluation ran (at 1000, after the crash: below the floor
    // it votes up, but no instance can be powered); none re-armed.
    EXPECT_EQ(scaled.autoscaler.evals, 1u);
    EXPECT_EQ(scaled.autoscaler.scaleUps, 0u);
    EXPECT_EQ(scaled.autoscaler.finalProvisioned, 0u);
}

TEST(FleetScheduler, AutoscalerRestoresItsFloorAfterARecovery)
{
    // Regression: the instance recovers at 1500 as an unpowered pool
    // member, and a two-request queue never reaches the scale-up
    // threshold, so the fleet used to sit at zero instances forever.
    // The floor powers it at the next evaluation (2000), and it
    // serves the stranded requests as one batch of two (200 ns).
    const auto report =
        runAutoscaledCrash(CrashWindow{0, 1000, 500}, true);
    EXPECT_EQ(report.completed, 4u);
    EXPECT_EQ(report.leftoverQueued, 0u);
    EXPECT_EQ(report.failed, 0u);
    const std::vector<std::uint64_t> expected = {100, 600, 2200, 2200};
    EXPECT_EQ(report.completionCycles, expected);
    EXPECT_EQ(report.horizonCycles, 2200u);
    EXPECT_EQ(report.faults.recoveries, 1u);
    EXPECT_EQ(report.autoscaler.scaleUps, 1u);
    EXPECT_EQ(report.autoscaler.finalProvisioned, 1u);
}

TEST(FleetScheduler, StragglerWindowStretchesServiceTime)
{
    // The window covers the dispatch instant, so the 2x slowdown
    // prices the batch at 200 + 1800 instead of 100 + 900; a second
    // request dispatched after the window ends runs at full speed.
    const PhasedServiceModel model({{100, 900}});
    SchedulerConfig scfg;
    scfg.faults.enabled = true;
    scfg.faults.stragglers.push_back(StragglerWindow{0, 0, 1000, 2.0});
    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);
    const auto report =
        sched.run({makeRequest(0, 0), makeRequest(1, 2000)});

    EXPECT_EQ(report.completed, 2u);
    EXPECT_EQ(report.faults.stragglerWindows, 1u);
    // First: 0 -> 2000 (slowed). Second: 2000 -> 3000 (full speed).
    EXPECT_EQ(report.horizonCycles, 3000u);
}

TEST(FleetScheduler, BatchOfSeveralHedgesKeepsAdmissionAccounting)
{
    // Regression: one batch can carry several hedge copies, and the
    // in-queue hedge counter must come down once per copy, not once
    // per batch — a stuck counter wraps leftoverQueued below zero at
    // the end of the run. Two originals batch at t=0 (map 20, long
    // backend), both arm hedges at t=100; the copies batch together
    // and lose to the originals.
    const PhasedServiceModel model({{10, 10'000}});
    SchedulerConfig scfg;
    scfg.batcher.enabled = true;
    scfg.batcher.maxBatchSize = 2;
    scfg.retry.enabled = true;
    scfg.retry.backoffBaseNs = 1;
    scfg.retry.hedgeDelayNs = 100;
    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);
    const auto report =
        sched.run({makeRequest(0, 0), makeRequest(1, 0)});

    EXPECT_EQ(report.completed, 2u);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.faults.hedges, 2u);
    EXPECT_EQ(report.faults.hedgesWon, 0u);
    EXPECT_EQ(report.faults.hedgesLost, 2u);
    // The conservation identity only holds if both copies left the
    // in-queue count at their shared dispatch.
    EXPECT_EQ(report.leftoverQueued, 0u);
    EXPECT_EQ(report.admitted, report.completed + report.failed +
                                   report.leftoverQueued);
}

TEST(ServiceModelBatching, AmortizesWeightLoadWithFloor)
{
    const FixedServiceModel model(10'000, 3'000);
    const auto cfg = pointAccConfig();

    Batch batch;
    for (std::uint64_t i = 0; i < 4; ++i)
        batch.requests.push_back(makeRequest(i, 0));
    // 4 requests of 10k each, 3 followers amortize 3k of weight load.
    EXPECT_EQ(model.batchServiceCycles(cfg, batch), 40'000u - 3u * 3'000u);

    // The floor: savings can never push a batch under its longest
    // member.
    const FixedServiceModel greedy(10'000, 10'000);
    EXPECT_EQ(greedy.batchServiceCycles(cfg, batch), 10'000u);

    Batch one;
    one.requests.push_back(makeRequest(0, 0));
    EXPECT_EQ(model.batchServiceCycles(cfg, one), 10'000u);
}

// ---------------------------------------------------------------- //
//                          Phase splits                             //
// ---------------------------------------------------------------- //

TEST(ServiceModelPhases, ProfilePhasesPartitionTheTotal)
{
    ServiceProfile p;
    p.totalCycles = 1000;
    p.mappingCycles = 300;
    p.computeCycles = 700;
    const auto ph = p.phases();
    EXPECT_EQ(ph.mapCycles, 300u);
    EXPECT_EQ(ph.backendCycles, 700u);
    EXPECT_EQ(ph.total(), p.totalCycles);

    // Degenerate profile (mapping exceeds total): clamp, never wrap.
    p.mappingCycles = 1500;
    const auto clamped = p.phases();
    EXPECT_EQ(clamped.mapCycles, 1000u);
    EXPECT_EQ(clamped.backendCycles, 0u);
}

TEST(ServiceModelPhases, BatchPhasesPartitionTheBatchPrice)
{
    const PhasedServiceModel model({{400, 600, 200}});
    const auto cfg = pointAccConfig();

    Batch batch;
    for (std::uint64_t i = 0; i < 3; ++i)
        batch.requests.push_back(makeRequest(i, 0));

    // Total: 3*1000 - 2*200 (weight credit) = 2600; mapping never
    // amortizes, so map = 3*400 and the credit lands on the backend.
    const auto total = model.batchServiceCycles(cfg, batch);
    EXPECT_EQ(total, 2600u);
    const auto ph = model.batchPhases(cfg, batch);
    EXPECT_EQ(ph.mapCycles, 1200u);
    EXPECT_EQ(ph.backendCycles, 1400u);
    EXPECT_EQ(ph.total(), total);

    // Map-dominated profile where the weight credit would push the
    // backend negative: the map share is clamped into the total.
    const PhasedServiceModel mapHeavy({{900, 100, 100}});
    Batch big;
    for (std::uint64_t i = 0; i < 4; ++i)
        big.requests.push_back(makeRequest(i, 0));
    const auto heavyTotal = mapHeavy.batchServiceCycles(cfg, big);
    const auto heavyPh = mapHeavy.batchPhases(cfg, big);
    EXPECT_EQ(heavyPh.total(), heavyTotal);
    EXPECT_LE(heavyPh.mapCycles, heavyTotal);
}

// ---------------------------------------------------------------- //
//                     Wait-for-K batching                           //
// ---------------------------------------------------------------- //

TEST(Batcher, HoldForHeadWaitsUntilKOrTimeout)
{
    BatcherConfig bcfg;
    bcfg.targetK = 3;
    bcfg.maxWaitCycles = 100;
    const Batcher batcher(bcfg, {1.0});

    AdmissionQueue q(16, QueuePolicy::Fifo);
    auto r0 = makeRequest(0, 10);
    q.push(r0);

    // One of three wanted, inside the window: hold until arrival+wait.
    auto hold = batcher.holdForHead(q, *q.peekEligible(nullptr), 20);
    EXPECT_TRUE(hold.hold);
    EXPECT_EQ(hold.until, 110u);

    // Window expired: dispatch undersized.
    hold = batcher.holdForHead(q, *q.peekEligible(nullptr), 110);
    EXPECT_FALSE(hold.hold);

    // Incompatible requests do not count toward K.
    auto other = makeRequest(1, 15);
    other.networkId = 7;
    q.push(other);
    auto third = makeRequest(2, 16);
    third.networkId = 7;
    q.push(third);
    hold = batcher.holdForHead(q, *q.peekEligible(nullptr), 30);
    EXPECT_TRUE(hold.hold);

    // K compatible requests queued: dispatch immediately.
    q.push(makeRequest(3, 17));
    q.push(makeRequest(4, 18));
    hold = batcher.holdForHead(q, *q.peekEligible(nullptr), 30);
    EXPECT_FALSE(hold.hold);

    // Excluded requests (members of other held groups) never count
    // toward K: with one of the three compatibles masked out, the
    // head must keep waiting.
    const auto maskId3 = [](const Request &r) { return r.id == 3; };
    hold = batcher.holdForHead(q, *q.peekEligible(nullptr), 30, maskId3);
    EXPECT_TRUE(hold.hold);

    // Immediate-mode batcher (targetK == 1) never holds.
    BatcherConfig immediate;
    const Batcher eager(immediate, {1.0});
    EXPECT_FALSE(eager.holdForHead(q, *q.peekEligible(nullptr), 0).hold);
}

TEST(Batcher, HoldDeadlineAnchorsAtOldestGroupMember)
{
    // Under SJF a newly arrived shorter request becomes the leader;
    // the wait bound must stay anchored at the group's oldest member
    // so leader churn can never extend the hold past maxWaitCycles.
    BatcherConfig bcfg;
    bcfg.targetK = 3;
    bcfg.maxWaitCycles = 100;
    const Batcher batcher(bcfg, {1.0});

    AdmissionQueue q(8, QueuePolicy::Sjf);
    q.push(makeRequest(0, 0, 900));  // long job, arrived first
    q.push(makeRequest(1, 90, 100)); // short job, now the SJF head
    const Request &head = *q.peekEligible(nullptr);
    ASSERT_EQ(head.id, 1u);

    const auto hold = batcher.holdForHead(q, head, 95);
    EXPECT_TRUE(hold.hold);
    EXPECT_EQ(hold.until, 100u); // oldest arrival 0 + 100, not 190

    // Past the oldest member's deadline: dispatch undersized.
    EXPECT_FALSE(batcher.holdForHead(q, head, 100).hold);
}

TEST(Batcher, PricedHoldForHeadTable)
{
    // targetK 4 on one network, FIFO, so K = 4 and the oldest queued
    // arrival anchors the wait. With missing = 4 - have:
    //   gain = missing * W, slack = max(0, B - M),
    //   cost = max(0, (now - oldest) + missing * G - slack),
    // hold while gain > cost, until min(now + G, break-even, cap) where
    // break-even = oldest + slack + gain - missing * G and
    // cap = oldest + maxWait (none when maxWait is 0).
    struct Row
    {
        const char *name;
        std::uint64_t maxWait;
        std::vector<std::uint64_t> arrivals;
        std::uint64_t now;
        bool priced;
        DispatchCost price; ///< {W, M, B, G} in ns
        bool hold;
        std::uint64_t until;
    };
    const std::vector<Row> rows = {
        // No cadence seen yet: no basis to price waiting.
        {"gap 0 dispatches", 0, {0}, 10, true, {1000, 0, 0, 0}, false, 0},
        {"K reached dispatches", 0, {0, 1, 2, 3}, 10, true,
         {1000, 0, 0, 10}, false, 0},
        // missing 2: gain 200; cost = 100 + 2 * 50 - 0 = 200.
        {"gain == cost dispatches", 0, {0, 40}, 100, true,
         {100, 100, 0, 50}, false, 0},
        // Same, with slack 500 - 100 = 400: cost 0 < 200. Until
        // min(100 + 50, 0 + 400 + 200 - 100 = 500, none) = 150.
        {"backlog slack holds until now + gap", 0, {0, 40}, 100, true,
         {100, 100, 500, 50}, true, 150},
        // missing 3: gain 300; cost = 50 + 3 * 70 = 260. Until
        // min(50 + 70, 0 + 0 + 300 - 210 = 90, none) = 90.
        {"holds until break-even", 0, {0}, 50, true, {100, 0, 0, 70}, true,
         90},
        // gain 300, cost = 50 + 3 * 10 = 80. Until
        // min(50 + 10, 0 + 300 - 30 = 270, 0 + 55) = 55.
        {"holds until the hard cap", 55, {0}, 50, true, {100, 0, 0, 10},
         true, 55},
        {"hard cap passed dispatches", 55, {0}, 55, true, {100, 0, 0, 10},
         false, 0},
        // No price: the plain deadline hold, until oldest + maxWait.
        {"unpriced holds until the deadline", 55, {0}, 50, false, {}, true,
         55},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.name);
        BatcherConfig bcfg;
        bcfg.targetK = 4;
        bcfg.maxWaitCycles = row.maxWait;
        bcfg.costAware = row.priced;
        const Batcher batcher(bcfg, {1.0});
        AdmissionQueue q(16, QueuePolicy::Fifo);
        for (std::size_t i = 0; i < row.arrivals.size(); ++i)
            q.push(makeRequest(i, row.arrivals[i]));
        const BatchHold hold =
            batcher.holdForHead(q, *q.peekEligible(nullptr), row.now,
                                nullptr, row.priced ? &row.price : nullptr);
        EXPECT_EQ(hold.hold, row.hold);
        if (row.hold) {
            EXPECT_EQ(hold.until, row.until);
            EXPECT_GT(hold.until, row.now);
        }
    }
}

TEST(FleetScheduler, WaitForKCoalescesSpreadArrivals)
{
    // Two same-network requests 50 cycles apart. Immediate batching
    // dispatches the first alone; wait-for-2 holds it and serves both
    // in one batch.
    const FixedServiceModel model(10'000, 2'000);

    const auto trace = [] {
        std::vector<Request> t;
        t.push_back(makeRequest(0, 0));
        t.push_back(makeRequest(1, 50));
        return t;
    };

    SchedulerConfig eager;
    eager.batcher.enabled = true;
    FleetScheduler eagerSched({pointAccConfig()}, model, {1.0}, eager);
    const auto eagerReport = eagerSched.run(trace());
    EXPECT_EQ(eagerReport.batchSize.max(), 1.0);
    EXPECT_EQ(eagerReport.batchHolds, 0u);

    SchedulerConfig waitK = eager;
    waitK.batcher.targetK = 2;
    waitK.batcher.maxWaitCycles = 1'000;
    FleetScheduler waitSched({pointAccConfig()}, model, {1.0}, waitK);
    const auto waitReport = waitSched.run(trace());
    EXPECT_EQ(waitReport.batchSize.max(), 2.0);
    // One hold episode: the first request held once, however many
    // events re-evaluated the hold before the second arrived.
    EXPECT_EQ(waitReport.batchHolds, 1u);
    EXPECT_EQ(waitReport.completed, 2u);
    // One batch of two at 10k cycles each minus one 2k weight reload.
    ASSERT_EQ(waitReport.completionCycles.size(), 2u);
    EXPECT_EQ(waitReport.completionCycles[0], 50u + 18'000u);
}

TEST(FleetScheduler, WaitForKTimesOutAndDispatchesUndersized)
{
    // A lone request with targetK 4: held exactly maxWait cycles past
    // arrival, then dispatched anyway by the timer event.
    const FixedServiceModel model(10'000);
    SchedulerConfig scfg;
    scfg.batcher.enabled = true;
    scfg.batcher.targetK = 4;
    scfg.batcher.maxWaitCycles = 200;
    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);

    const auto report = sched.run({makeRequest(0, 30)});
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.batchHolds, 1u);
    ASSERT_EQ(report.completionCycles.size(), 1u);
    EXPECT_EQ(report.completionCycles[0], 30u + 200u + 10'000u);
    ASSERT_EQ(report.queueWaitCycles.count(), 1u);
    EXPECT_EQ(report.queueWaitCycles.mean(), 200.0);
}

TEST(FleetScheduler, HeldGroupDoesNotBlockOtherGroups)
{
    // Network 0's lone request is held waiting for K=2; network 1's
    // pair reaches K while the hold is outstanding and must dispatch
    // around it — a held head never freezes the rest of the queue.
    const FixedServiceModel model(10'000); // net0: 10k, net1: 20k
    SchedulerConfig scfg;
    scfg.batcher.enabled = true;
    scfg.batcher.targetK = 2;
    scfg.batcher.maxWaitCycles = 100'000;
    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);

    auto a = makeRequest(0, 0); // net 0: held until 100'000
    auto b1 = makeRequest(1, 10);
    auto b2 = makeRequest(2, 20);
    b1.networkId = b2.networkId = 1;
    const auto report = sched.run({a, b1, b2});

    ASSERT_EQ(report.completionCycles.size(), 3u);
    // {b1, b2} dispatch at t=20 (K reached): 2 * 20'000 cycles.
    EXPECT_EQ(report.completionCycles[0], 20u + 40'000u);
    EXPECT_EQ(report.completionCycles[1], 20u + 40'000u);
    // The held net-0 request times out at t=100'000 and runs alone.
    EXPECT_EQ(report.completionCycles[2], 100'000u + 10'000u);
    // Two hold episodes: net 0's leader and net 1's first request
    // (held from t=10 until its partner arrived at t=20).
    EXPECT_EQ(report.batchHolds, 2u);
}

// The event loop skips dispatch passes it can prove are no-ops: once a
// pass stops because no instance accepts, and it held no wait-for-K
// group, arrivals alone cannot make an instance accept. The next two
// tests pin that guard; loopEvents counts the live instants.

TEST(FleetScheduler, HeldGroupDeadlineOnABusyFleetArmsNoTimer)
{
    // One monolithic instance, wait-for-4 with a 1'000-cycle deadline.
    //
    //   t=0       a (net 0) holds, arming the timer at 1'000; b1-b4
    //             (net 1) reach K and occupy the instance to 80'000
    //   t=100     c (net 2) arrives. The pass before its admission
    //             stops on the busy instance before it re-decides a's
    //             hold, so it holds nothing and disarms the timer.
    //   t=80'000  b's batch completes; a, past its deadline, runs alone
    //   t=90'000  a completes; c, past its own deadline, runs alone
    //   t=120'000 c completes
    //
    // Five live instants. Skipping the t=100 passes because the t=0
    // pass ended on a busy fleet would leave the timer armed, and it
    // would fire as a sixth instant at 1'000.
    const FixedServiceModel model(10'000); // net n costs (n+1) * 10k
    SchedulerConfig scfg;
    scfg.occupancy = OccupancyModel::Monolithic;
    scfg.batcher.enabled = true;
    scfg.batcher.targetK = 4;
    scfg.batcher.maxWaitCycles = 1'000;
    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);

    std::vector<Request> trace = {makeRequest(0, 0)};
    for (std::uint64_t id = 1; id <= 4; ++id) {
        trace.push_back(makeRequest(id, 0));
        trace.back().networkId = 1;
    }
    trace.push_back(makeRequest(5, 100));
    trace.back().networkId = 2;
    const auto report = sched.run(trace);

    EXPECT_EQ(report.loopEvents, 5u);
    EXPECT_EQ(report.horizonCycles, 120'000u);
    const std::vector<std::uint64_t> done = {80'000, 80'000, 80'000,
                                             80'000, 90'000, 120'000};
    EXPECT_EQ(report.completionCycles, done);
    EXPECT_EQ(report.batchHolds, 1u);
}

TEST(FleetScheduler, CapacityEventsReopenDispatchOnAFullFleet)
{
    // A recovery and a finished spin-up each make an instance accept
    // at an instant when nothing else happens: the pass they trigger
    // must run, though every pass since the last completion found the
    // fleet full.
    const FixedServiceModel model(10'000);
    {
        // One monolithic instance, crashed from 50 to 150: r0 dies
        // (no retry policy) and r1, queued at 10, runs from the
        // recovery on.
        SchedulerConfig scfg;
        scfg.occupancy = OccupancyModel::Monolithic;
        scfg.faults.enabled = true;
        scfg.faults.crashes.push_back(CrashWindow{0, 50, 100});
        FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);
        const auto report =
            sched.run({makeRequest(0, 0), makeRequest(1, 10)});
        EXPECT_EQ(report.failed, 1u);
        EXPECT_EQ(report.completed, 1u);
        EXPECT_EQ(report.loopEvents, 5u);
        EXPECT_EQ(report.horizonCycles, 10'150u);
    }
    {
        // Instance 0 takes r0 at 0; the evaluation at 1'000 sees two
        // queued and powers instance 1, which becomes Active at 1'500
        // and takes r1 at once. Live instants: 0, 1'500, 11'500 and
        // the twenty evaluations 1'000 ... 20'000.
        SchedulerConfig scfg;
        scfg.occupancy = OccupancyModel::Monolithic;
        scfg.batcher.enabled = false; // singleton dispatches
        scfg.autoscaler.enabled = true;
        scfg.autoscaler.minInstances = 1;
        scfg.autoscaler.initialInstances = 1;
        scfg.autoscaler.evalIntervalCycles = 1'000;
        scfg.autoscaler.queueHighDepth = 2;
        scfg.autoscaler.queueLowDepth = 0;
        scfg.autoscaler.spinUpCycles = 500;
        FleetScheduler sched({pointAccConfig(), pointAccConfig()}, model,
                             {1.0}, scfg);
        const auto report = sched.run(
            {makeRequest(0, 0), makeRequest(1, 0), makeRequest(2, 0)});
        const std::vector<std::uint64_t> done = {10'000, 11'500, 20'000};
        EXPECT_EQ(report.completionCycles, done);
        EXPECT_EQ(report.loopEvents, 23u);
        EXPECT_EQ(report.horizonCycles, 20'000u);
    }
}

// ---------------------------------------------------------------- //
//                  Cost-aware hold-vs-dispatch                      //
// ---------------------------------------------------------------- //

/**
 * Hand-computed cost-aware schedule. One pipelined FIFO instance,
 * network 0 has map 100 + backend 100 with a 150-cycle weight load,
 * targetK = maxBatchSize = 2, no wait-deadline (the cost model alone
 * decides). Arrivals at 0 / 50 / 100 give a 50 ns observed cadence.
 *
 *   t=0:   r0's class has no cadence yet (one arrival) -> eager solo
 *          dispatch. mapDone=100, handoff, backDone=200.
 *   t=50:  r1 arrives; the front is busy until 100, nothing to price.
 *   t=100: front frees. Hold r1? missing=1, gain=150 (one forfeited
 *          weight load). Backlog is r0's remaining backend (100),
 *          which exactly covers r1's own map (100) -> slack=0. Spent
 *          so far: 50 waited + 50 more to the predicted partner =
 *          100. gain 150 > cost 100 -> hold until min(next-arrival
 *          150, break-even 150). Same tick, r2 is admitted: the group
 *          reaches K=2 and dispatches. Batch price: 2x200 - 150
 *          amortized = 250 total, map phase 200, backend 50:
 *          mapDone=300, backStart=max(300, 200), backDone=350.
 */
TEST(FleetScheduler, CostAwareOracleHoldsThenJoins)
{
    const PhasedServiceModel model({{100, 100, 150}});
    SchedulerConfig scfg;
    scfg.batcher.enabled = true;
    scfg.batcher.costAware = true;
    scfg.batcher.targetK = 2;
    scfg.batcher.maxBatchSize = 2;
    scfg.batcher.maxWaitCycles = 0; // no deadline: pure cost model
    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);

    const auto report = sched.run(
        {makeRequest(0, 0), makeRequest(1, 50), makeRequest(2, 100)});
    ASSERT_EQ(report.completionCycles.size(), 3u);
    EXPECT_EQ(report.completionCycles[0], 200u);
    EXPECT_EQ(report.completionCycles[1], 350u);
    EXPECT_EQ(report.completionCycles[2], 350u);
    EXPECT_TRUE(report.costAware);
    EXPECT_EQ(report.costHolds, 1u);      // r1's one priced hold
    EXPECT_EQ(report.costDispatches, 1u); // r0's undersized solo
    EXPECT_EQ(report.batchHolds, 1u);
}

TEST(FleetScheduler, CostAwareDispatchesAtBreakEven)
{
    // Same class and cadence, but the predicted partner never comes:
    // after the hold at t=100 (gain 150 > cost 100), waiting accrues
    // cost at 1/ns with no further slack — the break-even timer fires
    // at 150, where cost reaches gain, and r1 dispatches undersized
    // instead of waiting on a wall-clock deadline that does not exist.
    const PhasedServiceModel model({{100, 100, 150}});
    SchedulerConfig scfg;
    scfg.batcher.enabled = true;
    scfg.batcher.costAware = true;
    scfg.batcher.targetK = 2;
    scfg.batcher.maxBatchSize = 2;
    scfg.batcher.maxWaitCycles = 0;
    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);

    const auto report =
        sched.run({makeRequest(0, 0), makeRequest(1, 50)});
    ASSERT_EQ(report.completionCycles.size(), 2u);
    EXPECT_EQ(report.completionCycles[0], 200u);
    // r1 solo at 150: mapDone 250, backStart max(250, 200), done 350.
    EXPECT_EQ(report.completionCycles[1], 350u);
    // costHolds counts priced hold decisions, and t=100 prices twice
    // (the dispatch pass runs before and after arrival admission).
    EXPECT_EQ(report.costHolds, 2u);
    EXPECT_EQ(report.costDispatches, 2u); // both ran undersized
    EXPECT_EQ(report.batchHolds, 1u);     // but one hold episode
}

TEST(FleetScheduler, CostAwareHonorsTheHardDeadline)
{
    // maxWaitCycles stays a hard cap on top of the cost model: r1's
    // group deadline (arrival 50 + 30) has already passed when the
    // front frees at t=100, so it dispatches without a priced hold.
    const PhasedServiceModel model({{100, 100, 150}});
    SchedulerConfig scfg;
    scfg.batcher.enabled = true;
    scfg.batcher.costAware = true;
    scfg.batcher.targetK = 2;
    scfg.batcher.maxBatchSize = 2;
    scfg.batcher.maxWaitCycles = 30;
    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);

    const auto report =
        sched.run({makeRequest(0, 0), makeRequest(1, 50)});
    ASSERT_EQ(report.completionCycles.size(), 2u);
    EXPECT_EQ(report.completionCycles[0], 200u);
    // r1 solo at 100: mapDone 200, backStart 200, done 300.
    EXPECT_EQ(report.completionCycles[1], 300u);
    EXPECT_EQ(report.costHolds, 0u);
    EXPECT_EQ(report.costDispatches, 2u);
}

// ---------------------------------------------------------------- //
//               Two-stage pipeline vs oracle                        //
// ---------------------------------------------------------------- //

/**
 * Hand-computed two-stage pipeline makespans for 3-request traces on
 * a 1-instance FIFO fleet (no batching). The recurrence, with m/b
 * the map/backend phases, t the arrival and d the dispatch time:
 *   d_k        = max(t_k, backStart_{k-1})   (blocking handoff frees
 *                                             the front at handoff)
 *   mapDone_k  = d_k + m_k
 *   backStart_k= max(mapDone_k, backDone_{k-1})
 *   backDone_k = backStart_k + b_k
 */
TEST(FleetScheduler, PipelineOracleBackendBoundTrace)
{
    // m=10 b=100 each, all arriving at 0: the map phases of requests
    // 2 and 3 hide behind the running back-end entirely.
    const PhasedServiceModel model({{10, 100}});
    SchedulerConfig scfg;
    scfg.batcher.enabled = false;
    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);

    const auto report = sched.run(
        {makeRequest(0, 0), makeRequest(1, 0), makeRequest(2, 0)});
    ASSERT_EQ(report.completionCycles.size(), 3u);
    EXPECT_EQ(report.completionCycles[0], 110u);
    EXPECT_EQ(report.completionCycles[1], 210u);
    EXPECT_EQ(report.completionCycles[2], 310u);
    EXPECT_EQ(report.horizonCycles, 310u);

    // The same trace under monolithic occupancy serializes fully.
    SchedulerConfig mono = scfg;
    mono.occupancy = OccupancyModel::Monolithic;
    FleetScheduler monoSched({pointAccConfig()}, model, {1.0}, mono);
    const auto monoReport = monoSched.run(
        {makeRequest(0, 0), makeRequest(1, 0), makeRequest(2, 0)});
    ASSERT_EQ(monoReport.completionCycles.size(), 3u);
    EXPECT_EQ(monoReport.completionCycles[0], 110u);
    EXPECT_EQ(monoReport.completionCycles[1], 220u);
    EXPECT_EQ(monoReport.completionCycles[2], 330u);
}

TEST(FleetScheduler, PipelineOracleMapBoundTrace)
{
    // m=100 b=20: the front-end is the bottleneck; each back-end run
    // hides behind the next mapping.
    const PhasedServiceModel model({{100, 20}});
    SchedulerConfig scfg;
    scfg.batcher.enabled = false;
    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);

    const auto report = sched.run(
        {makeRequest(0, 0), makeRequest(1, 0), makeRequest(2, 0)});
    ASSERT_EQ(report.completionCycles.size(), 3u);
    EXPECT_EQ(report.completionCycles[0], 120u);
    EXPECT_EQ(report.completionCycles[1], 220u);
    EXPECT_EQ(report.completionCycles[2], 320u);
    EXPECT_EQ(report.horizonCycles, 320u);
}

TEST(FleetScheduler, PipelineOracleMixedTraceWithGaps)
{
    // Three different networks, staggered arrivals:
    //   r0: m=50 b=70 t=0   -> d=0,   mapDone=50,  backStart=50,
    //                          backDone=120
    //   r1: m=30 b=90 t=60  -> d=60,  mapDone=90,  backStart=120,
    //                          backDone=210
    //   r2: m=40 b=10 t=65  -> d=120 (front frees at r1's handoff),
    //                          mapDone=160, backStart=210, backDone=220
    const PhasedServiceModel model({{50, 70}, {30, 90}, {40, 10}});
    SchedulerConfig scfg;
    scfg.batcher.enabled = false;
    FleetScheduler sched({pointAccConfig()}, model, {1.0, 1.0, 1.0}, scfg);

    auto r0 = makeRequest(0, 0);
    auto r1 = makeRequest(1, 60);
    auto r2 = makeRequest(2, 65);
    r1.networkId = 1;
    r2.networkId = 2;
    const auto report = sched.run({r0, r1, r2});
    ASSERT_EQ(report.completionCycles.size(), 3u);
    EXPECT_EQ(report.completionCycles[0], 120u);
    EXPECT_EQ(report.completionCycles[1], 210u);
    EXPECT_EQ(report.completionCycles[2], 220u);
    EXPECT_EQ(report.horizonCycles, 220u);

    // Latencies follow completion - arrival exactly.
    ASSERT_EQ(report.latencyCycles.count(), 3u);
    EXPECT_EQ(report.latencyCycles.data()[0], 120.0);
    EXPECT_EQ(report.latencyCycles.data()[1], 150.0);
    EXPECT_EQ(report.latencyCycles.data()[2], 155.0);

    // Per-stage accounting: map stage busy 120 of 220 cycles, backend
    // 170 of 220, instance covered 0..220 continuously.
    ASSERT_EQ(report.accelerators.size(), 1u);
    const auto &acc = report.accelerators.front();
    EXPECT_EQ(acc.mapBusyCycles, 120u);
    EXPECT_EQ(acc.backendBusyCycles, 170u);
    EXPECT_EQ(acc.busyCycles, 220u);
}

/**
 * Hand-computed run-ahead schedule pinning the two-batch stall and
 * its fix. Three networks, all arriving at t=0, FIFO, no batching:
 *   net 0: m=10  b=200   net 1: m=10 b=10   net 2: m=100 b=10
 *
 * Depth 1 (blocking handoff): r1's mapped output occupies the front
 * until the back frees at 210, so r2's long map cannot start before
 * then and the back idles waiting for it:
 *   r0: d=0,   mapDone=10,  backStart=10,  backDone=210
 *   r1: d=10,  mapDone=20,  backStart=210, backDone=220
 *   r2: d=210, mapDone=310, backStart=310, backDone=320
 *
 * Depth 2 (one staged slot): r1 parks at 20, freeing the front for
 * r2 at 20 — its map finishes at 120, well inside r0's backend run,
 * and the back never idles:
 *   r0: d=0,  mapDone=10,  backStart=10,  backDone=210
 *   r1: d=10, mapDone=20 -> staged;       backStart=210, backDone=220
 *   r2: d=20, mapDone=120 (front-held);   backStart=220, backDone=230
 */
TEST(FleetScheduler, RunAheadOracleBreaksTheTwoBatchStall)
{
    const PhasedServiceModel model({{10, 200}, {10, 10}, {100, 10}});
    SchedulerConfig scfg;
    scfg.batcher.enabled = false;

    std::vector<Request> trace;
    for (std::uint64_t i = 0; i < 3; ++i) {
        auto r = makeRequest(i, 0);
        r.networkId = static_cast<std::uint32_t>(i);
        trace.push_back(r);
    }

    scfg.runAheadDepth = 1;
    FleetScheduler shallow({pointAccConfig()}, model, {1.0, 1.0, 1.0},
                           scfg);
    const auto d1 = shallow.run(trace);
    ASSERT_EQ(d1.completionCycles.size(), 3u);
    EXPECT_EQ(d1.completionCycles[0], 210u);
    EXPECT_EQ(d1.completionCycles[1], 220u);
    EXPECT_EQ(d1.completionCycles[2], 320u);
    EXPECT_EQ(d1.runAheadDepth, 1u);
    EXPECT_EQ(d1.runAheadStaged, 0u);

    scfg.runAheadDepth = 2;
    FleetScheduler deep({pointAccConfig()}, model, {1.0, 1.0, 1.0},
                        scfg);
    const auto d2 = deep.run(trace);
    ASSERT_EQ(d2.completionCycles.size(), 3u);
    EXPECT_EQ(d2.completionCycles[0], 210u);
    EXPECT_EQ(d2.completionCycles[1], 220u);
    EXPECT_EQ(d2.completionCycles[2], 230u);
    EXPECT_EQ(d2.horizonCycles, 230u);
    EXPECT_EQ(d2.runAheadDepth, 2u);
    // r1 parked at 20 and r2 parked at 210; never more than one slot.
    EXPECT_EQ(d2.runAheadStaged, 2u);
    EXPECT_EQ(d2.runAheadPeakStaged, 1u);
    // Stage accounting: maps 10+10+100, backends 200+10+10, and the
    // instance is busy without a gap from 0 to 230.
    ASSERT_EQ(d2.accelerators.size(), 1u);
    EXPECT_EQ(d2.accelerators[0].mapBusyCycles, 120u);
    EXPECT_EQ(d2.accelerators[0].backendBusyCycles, 220u);
    EXPECT_EQ(d2.accelerators[0].busyCycles, 230u);
}

/** Per-accelerator-class phase table in each class's OWN clock
 *  domain (cycles), keyed by config name — the scheduler converts to
 *  the wall-clock ns axis at dispatch, which is exactly what the
 *  heterogeneous oracle below pins. */
class ClassPhasedServiceModel : public ServiceModel
{
  public:
    struct Entry
    {
        std::uint64_t mapCycles;
        std::uint64_t backendCycles;
    };

    explicit ClassPhasedServiceModel(
        std::map<std::string, Entry> entries)
        : table(std::move(entries))
    {}

    ServiceProfile
    profile(const AcceleratorConfig &cfg, std::uint32_t,
            std::uint32_t) const override
    {
        const Entry &e = table.at(cfg.name);
        ServiceProfile p;
        p.totalCycles = e.mapCycles + e.backendCycles;
        p.mappingCycles = e.mapCycles;
        p.computeCycles = e.backendCycles;
        return p;
    }

  private:
    std::map<std::string, Entry> table;
};

/**
 * Hand-computed heterogeneous-fleet oracle on the wall-clock event
 * axis: a 2 GHz server (100 map + 200 backend cycles in its own clock
 * -> 150 ns total, split 50 map + 100 backend after the clamp-into-
 * total conversion) next to a 1 GHz edge part (120 + 240 cycles ->
 * 120 + 240 ns, the identity). FIFO, no batching, pipelined. Trace:
 * r0 and r1 at t=0, r2 at t=50 ns.
 *
 *   r0 at 0:  server (done 0+50+100 = 150 ns) beats edge (360) ->
 *             server: mapDone 50, backDone 150.
 *   r1 at 0:  server front busy, edge free -> edge: mapDone 120,
 *             backDone 360.
 *   r2 at 50: server front freed by r0's handoff, edge front busy ->
 *             server: mapDone 100, backStart max(100, 150) = 150,
 *             backDone 250.
 */
TEST(FleetScheduler, HeterogeneousFleetWallClockOracle)
{
    AcceleratorConfig server = pointAccConfig();
    server.name = "Server@2GHz";
    server.freqGHz = 2.0;
    const AcceleratorConfig edge = pointAccEdgeConfig();

    const ClassPhasedServiceModel model(
        {{server.name, {100, 200}}, {edge.name, {120, 240}}});
    SchedulerConfig scfg;
    scfg.batcher.enabled = false;
    FleetScheduler sched({server, edge}, model, {1.0}, scfg);

    const auto report = sched.run(
        {makeRequest(0, 0), makeRequest(1, 0), makeRequest(2, 50)});
    ASSERT_EQ(report.completionCycles.size(), 3u);
    EXPECT_EQ(report.completionCycles[0], 150u);
    EXPECT_EQ(report.completionCycles[1], 250u);
    EXPECT_EQ(report.completionCycles[2], 360u);
    EXPECT_EQ(report.horizonCycles, 360u);

    // Latencies in completion order: r0 150-0, r2 250-50, r1 360-0.
    ASSERT_EQ(report.latencyCycles.count(), 3u);
    EXPECT_EQ(report.latencyCycles.data()[0], 150.0);
    EXPECT_EQ(report.latencyCycles.data()[1], 200.0);
    EXPECT_EQ(report.latencyCycles.data()[2], 360.0);

    // Per-instance accounting, all in event-axis ns: the server ran
    // r0 and r2 (maps 50+50, backends 100+100, resident 0..250), the
    // edge ran r1 alone (resident 0..360). Each instance reports its
    // own clock for the ns -> cycles conversion.
    ASSERT_EQ(report.accelerators.size(), 2u);
    const auto &srv = report.accelerators[0];
    EXPECT_EQ(srv.freqGHz, 2.0);
    EXPECT_EQ(srv.requests, 2u);
    EXPECT_EQ(srv.mapBusyCycles, 100u);
    EXPECT_EQ(srv.backendBusyCycles, 200u);
    EXPECT_EQ(srv.busyCycles, 250u);
    const auto &edg = report.accelerators[1];
    EXPECT_EQ(edg.freqGHz, 1.0);
    EXPECT_EQ(edg.requests, 1u);
    EXPECT_EQ(edg.mapBusyCycles, 120u);
    EXPECT_EQ(edg.backendBusyCycles, 240u);
    EXPECT_EQ(edg.busyCycles, 360u);
}

TEST(FleetScheduler, HeterogeneousTieBreaksToLowestIndex)
{
    // Two classes that price identically on the ns axis: 100+900
    // cycles at 1 GHz and 200+1800 cycles at 2 GHz are both 1000 ns.
    // A strict done < bestDone comparison keeps the first-indexed
    // instance on ties — whichever class sits at index 0 — so fleet
    // order, not clock rate or name, decides.
    AcceleratorConfig slow = pointAccConfig();
    slow.name = "Slow@1GHz";
    AcceleratorConfig fast = pointAccConfig();
    fast.name = "Fast@2GHz";
    fast.freqGHz = 2.0;
    const ClassPhasedServiceModel model(
        {{slow.name, {100, 900}}, {fast.name, {200, 1800}}});
    SchedulerConfig scfg;
    scfg.batcher.enabled = false;

    for (const auto &fleet :
         {std::vector<AcceleratorConfig>{slow, fast},
          std::vector<AcceleratorConfig>{fast, slow}}) {
        FleetScheduler sched(fleet, model, {1.0}, scfg);
        const auto report = sched.run({makeRequest(0, 0)});
        SCOPED_TRACE(fleet.front().name + " first");
        ASSERT_EQ(report.accelerators.size(), 2u);
        EXPECT_EQ(report.accelerators[0].requests, 1u);
        EXPECT_EQ(report.accelerators[1].requests, 0u);
        EXPECT_EQ(report.horizonCycles, 1000u);
    }
}

// ---------------------------------------------------------------- //
//                Kernel-map cache through the scheduler             //
// ---------------------------------------------------------------- //

/**
 * Hand-computed hit/miss schedule: network 0 has m=100 b=50, the
 * cache reads a stored map back in 10 cycles, batching is off, one
 * pipelined FIFO instance. Three requests at t=0: clouds A, A, B.
 *
 *   r0 (A, miss): d=0,   mapDone=100 (A published), backDone=150
 *   r1 (A, hit):  d=100 (front frees at r0's handoff; A resident),
 *                 map collapses to 10 -> mapDone=110,
 *                 backStart=max(110, 150)=150, backDone=200
 *   r2 (B, miss): d=150 (front frees at r1's handoff), mapDone=250,
 *                 backStart=250, backDone=300
 *
 * Without the cache r1 maps in full: completions 150 / 250 / 350.
 */
TEST(FleetScheduler, MapCacheOracleHitMissTrace)
{
    const PhasedServiceModel model({{100, 50}});
    SchedulerConfig scfg;
    scfg.batcher.enabled = false;
    scfg.mapCache.enabled = true;
    scfg.mapCache.hitReadCycles = 10;

    auto r0 = makeRequest(0, 0);
    auto r1 = makeRequest(1, 0);
    auto r2 = makeRequest(2, 0);
    r0.cloudId = r1.cloudId = 1; // repeated frame
    r2.cloudId = 2;

    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);
    const auto report = sched.run({r0, r1, r2});
    ASSERT_EQ(report.completionCycles.size(), 3u);
    EXPECT_EQ(report.completionCycles[0], 150u);
    EXPECT_EQ(report.completionCycles[1], 200u);
    EXPECT_EQ(report.completionCycles[2], 300u);
    EXPECT_EQ(report.mapCache.hits, 1u);
    EXPECT_EQ(report.mapCache.misses, 2u);
    EXPECT_EQ(report.mapCache.insertions, 2u);
    EXPECT_EQ(report.mapCache.evictions, 0u);
    EXPECT_EQ(report.mapCache.cyclesSaved, 90u); // 100 - 10 read

    SchedulerConfig off = scfg;
    off.mapCache.enabled = false;
    FleetScheduler offSched({pointAccConfig()}, model, {1.0}, off);
    const auto offReport = offSched.run({r0, r1, r2});
    ASSERT_EQ(offReport.completionCycles.size(), 3u);
    EXPECT_EQ(offReport.completionCycles[0], 150u);
    EXPECT_EQ(offReport.completionCycles[1], 250u);
    EXPECT_EQ(offReport.completionCycles[2], 350u);
    EXPECT_EQ(offReport.mapCache.hits + offReport.mapCache.misses, 0u);
}

TEST(FleetScheduler, MapCacheBatchSavingsMatchTheSimulatedSchedule)
{
    // Batched-hit savings are priced at batch level, against what the
    // simulation actually skipped. Network 0: map 100 + backend 50
    // with a 150-cycle weight load, so a 2-batch prices at
    // max(2x150 - 150, 150) = 150 total — the batch map phase clamps
    // to 150, not the 200 sum of member maps. A 2-hit batch replaces
    // that with 2x30 = 60 of reads: the honest credit is 150 - 60 =
    // 90. Per-request accounting would claim 2x(100 - 30) = 140,
    // savings the schedule never saw.
    const PhasedServiceModel model({{100, 50, 150}});
    SchedulerConfig scfg;
    scfg.batcher.enabled = true;
    scfg.batcher.maxBatchSize = 2;
    scfg.mapCache.enabled = true;
    scfg.mapCache.hitReadCycles = 30;

    // Prime with a miss-pure 2-batch (clouds 1, 2), then replay the
    // same clouds after the maps publish at t=150.
    auto r0 = makeRequest(0, 0);
    auto r1 = makeRequest(1, 0);
    auto r2 = makeRequest(2, 200);
    auto r3 = makeRequest(3, 200);
    r0.cloudId = r2.cloudId = 1;
    r1.cloudId = r3.cloudId = 2;

    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);
    const auto report = sched.run({r0, r1, r2, r3});
    EXPECT_EQ(report.mapCache.hits, 2u);
    EXPECT_EQ(report.mapCache.misses, 2u);
    EXPECT_EQ(report.mapCache.cyclesSaved, 90u);
    // The hit batch dispatches at 200, reads both maps back by 260
    // and has no residual backend phase: completions at 260.
    ASSERT_EQ(report.completionCycles.size(), 4u);
    EXPECT_EQ(report.completionCycles[2], 260u);
    EXPECT_EQ(report.completionCycles[3], 260u);
}

TEST(FleetScheduler, MapCacheHitNeverSlowerThanMissEvenWithCostlyReads)
{
    // A pathological read cost far above the mapping it replaces must
    // clamp: the cached run can never be slower than the uncached one.
    const PhasedServiceModel model({{100, 50}});
    SchedulerConfig scfg;
    scfg.batcher.enabled = false;
    scfg.mapCache.enabled = true;
    scfg.mapCache.hitReadCycles = 1'000'000;

    auto r0 = makeRequest(0, 0);
    auto r1 = makeRequest(1, 0);
    r0.cloudId = r1.cloudId = 9;
    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);
    const auto report = sched.run({r0, r1});
    ASSERT_EQ(report.completionCycles.size(), 2u);
    // The "hit" costs exactly the full map phase (clamped): the
    // schedule matches the uncached one, and no savings are claimed.
    EXPECT_EQ(report.completionCycles[1], 250u);
    EXPECT_EQ(report.mapCache.hits, 1u);
    EXPECT_EQ(report.mapCache.cyclesSaved, 0u);
}

TEST(FleetScheduler, MapCacheKeepsHitsAndMissesInSeparateBatches)
{
    // r0 publishes cloud 1; r1 (cloud 1, a hit) and r2 (cloud 2, a
    // miss) are both queued when the front frees — compatible by
    // network and size, but the cache rule must keep them apart.
    const PhasedServiceModel model({{100, 50}});
    SchedulerConfig scfg;
    scfg.batcher.enabled = true;
    scfg.batcher.maxBatchSize = 8;
    scfg.mapCache.enabled = true;
    scfg.mapCache.hitReadCycles = 10;

    auto r0 = makeRequest(0, 0);
    auto r1 = makeRequest(1, 10);
    auto r2 = makeRequest(2, 10);
    r0.cloudId = r1.cloudId = 1;
    r2.cloudId = 2;

    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);
    const auto report = sched.run({r0, r1, r2});
    EXPECT_EQ(report.completed, 3u);
    EXPECT_EQ(report.batchSize.max(), 1.0);
    EXPECT_EQ(report.mapCache.hits, 1u);
    EXPECT_EQ(report.mapCache.misses, 2u);

    // Control: with the cache off the pair {r1, r2} merges into one
    // dispatch — the split above really is the cache rule.
    SchedulerConfig off = scfg;
    off.mapCache.enabled = false;
    FleetScheduler offSched({pointAccConfig()}, model, {1.0}, off);
    const auto offReport = offSched.run({r0, r1, r2});
    EXPECT_EQ(offReport.batchSize.max(), 2.0);
}

TEST(FleetScheduler, MapCacheIdentitylessRequestsNeverHit)
{
    // cloudId 0 means "no content identity" (hand-built traces):
    // distinct geometries must never alias one cache entry, so such
    // requests count as misses, publish nothing, and the schedule
    // matches the cache-off one exactly.
    const PhasedServiceModel model({{100, 50}});
    SchedulerConfig scfg;
    scfg.batcher.enabled = false;
    scfg.mapCache.enabled = true;
    scfg.mapCache.hitReadCycles = 10;

    const auto r0 = makeRequest(0, 0);
    const auto r1 = makeRequest(1, 0); // cloudId stays 0 on both
    FleetScheduler sched({pointAccConfig()}, model, {1.0}, scfg);
    const auto report = sched.run({r0, r1});
    ASSERT_EQ(report.completionCycles.size(), 2u);
    EXPECT_EQ(report.completionCycles[0], 150u);
    EXPECT_EQ(report.completionCycles[1], 250u); // full map, no hit
    EXPECT_EQ(report.mapCache.hits, 0u);
    EXPECT_EQ(report.mapCache.misses, 2u);
    EXPECT_EQ(report.mapCache.insertions, 0u);
}

TEST(FleetScheduler, MapCacheMonolithicPublishesAtRunCompletion)
{
    // A monolithic run is one opaque interval: there is no observable
    // mapping-completion moment inside it, so its maps publish only
    // when the run finishes. A same-frame request dispatched to a
    // second instance mid-run must therefore miss; one arriving after
    // completion hits.
    const PhasedServiceModel model({{100, 50}});
    SchedulerConfig scfg;
    scfg.batcher.enabled = false;
    scfg.occupancy = OccupancyModel::Monolithic;
    scfg.mapCache.enabled = true;
    scfg.mapCache.hitReadCycles = 10;

    auto r0 = makeRequest(0, 0);
    auto r1 = makeRequest(1, 1);   // mid-run on the second instance
    auto r2 = makeRequest(2, 200); // after r0's run (0..150) finished
    r0.cloudId = r1.cloudId = r2.cloudId = 1;

    FleetScheduler sched({pointAccConfig(), pointAccConfig()}, model,
                         {1.0}, scfg);
    const auto report = sched.run({r0, r1, r2});
    EXPECT_EQ(report.mapCache.misses, 2u); // r0, and r1 mid-run
    EXPECT_EQ(report.mapCache.hits, 1u);   // r2, after publication
}

/** Per-class cost table that counts every profile and layer-hash
 *  call, keyed by (config name, network, bucket). */
class CountingServiceModel : public ServiceModel
{
  public:
    ServiceProfile
    profile(const AcceleratorConfig &cfg, std::uint32_t network_id,
            std::uint32_t bucket) const override
    {
        profileCalls[{cfg.name, network_id, bucket}] += 1;
        ServiceProfile p;
        p.totalCycles = 20'000 * (network_id + 1) * (bucket + 1);
        p.mappingCycles = p.totalCycles * 2 / 5;
        p.computeCycles = p.totalCycles - p.mappingCycles;
        p.weightLoadCycles = p.totalCycles / 10;
        p.mapBytes = 4096;
        return p;
    }

    std::uint64_t
    layerConfigHash(std::uint32_t network_id) const override
    {
        hashCalls[network_id] += 1;
        return ServiceModel::layerConfigHash(network_id);
    }

    mutable std::map<std::tuple<std::string, std::uint32_t, std::uint32_t>,
                     int>
        profileCalls;
    mutable std::map<std::uint32_t, int> hashCalls;
};

TEST(FleetScheduler, PricesEachTripleOncePerRun)
{
    // The scheduler reads every (class, network, bucket) price from a
    // per-run table, so the model sees each triple at most once per
    // run, however many dispatches, hit credits, miss inserts and
    // cost-aware hold decisions price it.
    AcceleratorConfig slow = pointAccConfig();
    AcceleratorConfig fast = pointAccConfig();
    fast.name += "@1.25GHz";
    fast.freqGHz = 1.25;
    const std::vector<AcceleratorConfig> fleet = {slow, fast, slow, fast};

    WorkloadSpec spec;
    spec.seed = 17;
    spec.requestsPerMCycle = 60.0;
    spec.horizonCycles = 20'000'000;
    spec.mix = {{0, 0, 3.0, 400'000, 0, 0.7},
                {1, 1, 2.0, 0, 1, 0.6},
                {2, 1, 1.0, 0, 2, 0.5}};

    SchedulerConfig scfg;
    scfg.policy = QueuePolicy::Edf;
    scfg.batcher.enabled = true;
    scfg.batcher.maxBatchSize = 8;
    scfg.batcher.targetK = 4;
    scfg.batcher.costAware = true;
    scfg.batcher.maxWaitCycles = 40'000;
    scfg.runAheadDepth = 2;
    scfg.mapCache.enabled = true;
    scfg.mapCache.capacityEntries = 16;
    scfg.mapCache.hitReadCycles = 2'000;

    const CountingServiceModel model;
    FleetScheduler sched(fleet, model, {0.5, 1.0}, scfg);
    const auto report = sched.run(WorkloadGenerator(spec).generate());

    // Every feature the table serves was exercised.
    EXPECT_GT(report.completed, 1000u);
    EXPECT_EQ(report.completed, report.admitted);
    EXPECT_GT(report.costHolds, 0u);
    EXPECT_GT(report.mapCache.hits, 0u);
    EXPECT_GT(report.mapCache.evictions, 0u);
    EXPECT_GT(report.batchSize.mean(), 1.0);
    for (const auto &acc : report.accelerators)
        EXPECT_GT(acc.requests, 0u) << acc.name;

    // 2 classes x 3 (network, bucket) pairs, each priced once.
    EXPECT_EQ(model.profileCalls.size(), 6u);
    for (const auto &call : model.profileCalls)
        EXPECT_EQ(call.second, 1)
            << std::get<0>(call.first) << " network "
            << std::get<1>(call.first) << " bucket "
            << std::get<2>(call.first);
    EXPECT_EQ(model.hashCalls.size(), 3u);
    for (const auto &call : model.hashCalls)
        EXPECT_EQ(call.second, 1) << "network " << call.first;
}

// ---------------------------------------------------------------- //
//                        Capacity planner                           //
// ---------------------------------------------------------------- //

/** Tiny workload for planner tests whose probes never read the trace
 *  (TablePlanner below) or only need a handful of requests. */
WorkloadSpec
plannerSpec()
{
    WorkloadSpec spec;
    spec.seed = 5;
    spec.requestsPerMCycle = 20.0;
    spec.horizonCycles = 500'000;
    spec.mix = {{0, 0, 1.0, 0}};
    return spec;
}

/**
 * Planner with a scripted fleet axis: probe(n) passes the SLO (p99
 * 500 against a 1000-cycle bound) iff `pass[n]` — the seam that lets
 * the search logic, including the non-monotone fallback, be tested
 * against exact pass/fail shapes no real workload reproduces on
 * demand. Also logs every probed size, duplicates included, to prove
 * the memoization claim (probesSpent counts simulations, and repeat
 * evaluations never re-simulate).
 */
class TablePlanner : public CapacityPlanner
{
    static PlannerConfig
    spotProbesConfig(std::size_t spot_probes)
    {
        PlannerConfig cfg;
        cfg.spotProbes = spot_probes;
        return cfg;
    }

  public:
    TablePlanner(const ServiceModel &model, std::vector<bool> pass_by_fleet)
        : CapacityPlanner(pointAccConfig(), model, {1.0, 2.0},
                          spotProbesConfig(4)),
          pass(std::move(pass_by_fleet))
    {
    }

    ServingReport
    probe(std::size_t fleet_size, const SchedulerConfig &,
          const std::vector<Request> &) const override
    {
        probedSizes.push_back(fleet_size);
        const bool ok = fleet_size < pass.size() && pass[fleet_size];
        ServingReport r;
        r.horizonCycles = 1'000'000;
        r.completed = 1;
        r.latencyCycles.record(ok ? 500.0 : 5000.0);
        return r;
    }

    std::vector<bool> pass; ///< indexed by fleet size
    mutable std::vector<std::size_t> probedSizes;
};

SloSpec
p99Slo(std::uint64_t max_cycles)
{
    SloSpec slo;
    slo.maxP99Cycles = max_cycles;
    return slo;
}

PlanSearchSpace
fleetOnlySpace(std::size_t max_fleet)
{
    PlanSearchSpace space;
    space.minFleetSize = 1;
    space.maxFleetSize = max_fleet;
    return space;
}

TEST(CapacityPlanner, GallopAndBisectFindTheCheapestMonotoneFleet)
{
    const FixedServiceModel model(1000);
    // Fleet sizes 1..8; 5 is the smallest passing size.
    std::vector<bool> pass(9, true);
    for (std::size_t n = 1; n <= 4; ++n)
        pass[n] = false;
    const TablePlanner planner(model, pass);

    const auto report =
        planner.plan(plannerSpec(), p99Slo(1000), fleetOnlySpace(8));
    ASSERT_TRUE(report.feasible);
    EXPECT_EQ(report.chosen.fleetSize, 5u);
    EXPECT_TRUE(report.chosen.meetsSlo);
    EXPECT_TRUE(report.monotoneFleetAxis);
    // Gallop 1,2,4,8 + bisect 6,5 + one spot probe (3): strictly
    // fewer than the 8-point axis, and every probe simulated once.
    EXPECT_LT(report.probesSpent, report.exhaustiveProbes);
    EXPECT_EQ(report.probesSpent, planner.probedSizes.size());
    for (const auto &p : report.probes)
        EXPECT_FALSE(p.fleetSize < report.chosen.fleetSize && p.meetsSlo);
}

TEST(CapacityPlanner, NonMonotoneFleetAxisFallsBackToLinearScan)
{
    const FixedServiceModel model(1000);
    // Pass at 3, fail at 4 and 5, pass from 6 up: bisection alone
    // would land on 6; the spot verification must catch 3.
    std::vector<bool> pass(9, false);
    pass[3] = true;
    for (std::size_t n = 6; n <= 8; ++n)
        pass[n] = true;
    const TablePlanner planner(model, pass);

    const auto report =
        planner.plan(plannerSpec(), p99Slo(1000), fleetOnlySpace(8));
    ASSERT_TRUE(report.feasible);
    EXPECT_EQ(report.chosen.fleetSize, 3u);
    EXPECT_FALSE(report.monotoneFleetAxis);
    EXPECT_LE(report.probesSpent, report.exhaustiveProbes);
    for (const auto &p : report.probes)
        EXPECT_FALSE(p.fleetSize < report.chosen.fleetSize && p.meetsSlo);

    // The exhaustive oracle agrees on the pick and detects the same
    // violation from the full grid.
    const auto grid = planner.planExhaustive(plannerSpec(), p99Slo(1000),
                                             fleetOnlySpace(8));
    EXPECT_EQ(grid.chosen.fleetSize, 3u);
    EXPECT_FALSE(grid.monotoneFleetAxis);
    EXPECT_EQ(grid.probesSpent, grid.exhaustiveProbes);
}

TEST(CapacityPlanner, InfeasibleSpaceIsReportedNotInvented)
{
    const FixedServiceModel model(1000);
    const TablePlanner planner(model, std::vector<bool>(9, false));
    const auto report =
        planner.plan(plannerSpec(), p99Slo(1000), fleetOnlySpace(8));
    EXPECT_FALSE(report.feasible);
    EXPECT_EQ(report.chosen.fleetSize, 0u);
    EXPECT_EQ(report.p99MarginCycles, 0.0);
    EXPECT_TRUE(report.monotoneFleetAxis);
    // Gallop (1, 2, 4, 8) plus the infeasibility spot check over the
    // sizes it skipped (3, 5, 6, 7 at this planner's spot budget).
    EXPECT_EQ(report.probesSpent, 8u);
    EXPECT_LE(report.probesSpent, report.exhaustiveProbes);
}

TEST(CapacityPlanner, PassOnlyAtASizeTheGallopSkippedIsStillFound)
{
    const FixedServiceModel model(1000);
    // The SLO passes only at fleet 3 — a size galloping (1, 2, 4, 8)
    // never touches. The infeasibility conclusion must be verified
    // like a candidate: the spot check finds 3, flags the axis
    // non-monotone and the linear fallback returns the true optimum
    // instead of inventing "infeasible".
    std::vector<bool> pass(9, false);
    pass[3] = true;
    const TablePlanner planner(model, pass);

    const auto report =
        planner.plan(plannerSpec(), p99Slo(1000), fleetOnlySpace(8));
    ASSERT_TRUE(report.feasible);
    EXPECT_EQ(report.chosen.fleetSize, 3u);
    EXPECT_FALSE(report.monotoneFleetAxis);
    EXPECT_LE(report.probesSpent, report.exhaustiveProbes);

    const auto grid = planner.planExhaustive(plannerSpec(), p99Slo(1000),
                                             fleetOnlySpace(8));
    EXPECT_EQ(grid.chosen.fleetSize, report.chosen.fleetSize);
    EXPECT_FALSE(grid.monotoneFleetAxis);
}

TEST(CapacityPlanner, CategoricalAxesTieBreakToEarlierCombos)
{
    const FixedServiceModel model(1000);
    // Every size from 2 passes for every combo: the fleet tie must
    // resolve to the first combo in axis order (FIFO before EDF,
    // cache off before on).
    std::vector<bool> pass(5, true);
    pass[1] = false;
    const TablePlanner planner(model, pass);

    PlanSearchSpace space = fleetOnlySpace(4);
    space.policies = {QueuePolicy::Fifo, QueuePolicy::Edf};
    space.mapCacheOptions = {false, true};
    const auto report =
        planner.plan(plannerSpec(), p99Slo(1000), space);
    ASSERT_TRUE(report.feasible);
    EXPECT_EQ(report.chosen.fleetSize, 2u);
    EXPECT_EQ(report.chosen.policy, QueuePolicy::Fifo);
    EXPECT_FALSE(report.chosen.mapCacheOn);

    const auto grid = planner.planExhaustive(plannerSpec(),
                                             p99Slo(1000), space);
    EXPECT_EQ(grid.chosen.fleetSize, report.chosen.fleetSize);
    EXPECT_EQ(grid.chosen.policy, report.chosen.policy);
    EXPECT_EQ(grid.chosen.mapCacheOn, report.chosen.mapCacheOn);
}

TEST(CapacityPlanner, RespectsAFleetRangeFloorAboveOne)
{
    const FixedServiceModel model(1000);
    // Range [3, 20], smallest passing size 8: the gallop must start
    // at the floor (3, 6, 12, 20...), never probe below it, and the
    // bisection must still land exactly.
    std::vector<bool> pass(21, true);
    for (std::size_t n = 0; n <= 7; ++n)
        pass[n] = false;
    const TablePlanner planner(model, pass);

    PlanSearchSpace space;
    space.minFleetSize = 3;
    space.maxFleetSize = 20;
    const auto report =
        planner.plan(plannerSpec(), p99Slo(1000), space);
    ASSERT_TRUE(report.feasible);
    EXPECT_EQ(report.chosen.fleetSize, 8u);
    EXPECT_TRUE(report.monotoneFleetAxis);
    for (const auto &p : report.probes) {
        EXPECT_GE(p.fleetSize, 3u);
        EXPECT_LE(p.fleetSize, 20u);
    }
    EXPECT_LT(report.probesSpent, report.exhaustiveProbes);
}

TEST(CapacityPlanner, RealProbeMeetsItsOwnReSimulation)
{
    // End to end on the real probe path: plan over a fixed-cost
    // model, then re-run the chosen configuration through a fresh
    // FleetScheduler and check the planner's recorded numbers.
    const FixedServiceModel model(40'000, 5'000);
    CapacityPlanner planner(pointAccConfig(), model, {1.0, 2.0});

    WorkloadSpec spec;
    spec.seed = 17;
    spec.requestsPerMCycle = 40.0;
    spec.horizonCycles = 2'000'000;
    spec.mix = {{0, 0, 2.0, 0}, {1, 1, 1.0, 0}};

    PlanSearchSpace space = fleetOnlySpace(6);
    const SloSpec slo = p99Slo(300'000);
    const auto report = planner.plan(spec, slo, space);
    ASSERT_TRUE(report.feasible);

    const auto rerun =
        planner.probe(report.chosen.fleetSize,
                      schedulerConfigFor(space, report.chosen),
                      WorkloadGenerator(spec).generate());
    EXPECT_TRUE(meetsSlo(rerun, slo));
    EXPECT_EQ(rerun.p99Cycles(), report.chosen.p99Cycles);
    EXPECT_EQ(rerun.throughputRps(), report.chosen.throughputRps);
}

// ---------------------------------------------------------------- //
//                 Simulator-backed service model                    //
// ---------------------------------------------------------------- //

TEST(SimServiceModel, ProfilesAndBatchesAgainstRealSimulator)
{
    ServingCatalog catalog;
    catalog.networks = {pointNet()};
    catalog.bucketScales = {0.05};
    const SimServiceModel model(catalog);

    const auto cfg = pointAccConfig();
    const auto p = model.profile(cfg, 0, 0);
    EXPECT_GT(p.totalCycles, 0u);
    EXPECT_LE(p.weightLoadCycles, p.totalCycles);

    // Memoized: a second lookup returns the identical profile.
    const auto p2 = model.profile(cfg, 0, 0);
    EXPECT_EQ(p.totalCycles, p2.totalCycles);

    Batch batch;
    for (std::uint64_t i = 0; i < 3; ++i)
        batch.requests.push_back(makeRequest(i, 0));
    const auto cycles = model.batchServiceCycles(cfg, batch);
    EXPECT_GE(cycles, p.totalCycles);
    EXPECT_LE(cycles, 3 * p.totalCycles);
}

TEST(SimServiceModel, EndToEndServingRunIsConsistent)
{
    ServingCatalog catalog;
    catalog.networks = {pointNet()};
    catalog.bucketScales = {0.05};
    const SimServiceModel model(catalog);

    WorkloadSpec spec;
    spec.seed = 3;
    spec.requestsPerMCycle = 5.0;
    spec.horizonCycles = 5'000'000;
    spec.arrivals = ArrivalProcess::Bursty;
    spec.mix = {{0, 0, 1.0, 0}};

    SchedulerConfig scfg;
    scfg.batcher.enabled = true;
    FleetScheduler sched({pointAccConfig(), pointAccEdgeConfig()}, model,
                         catalog.bucketScales, scfg);
    const auto report = sched.run(WorkloadGenerator(spec).generate());

    EXPECT_GT(report.completed, 0u);
    EXPECT_EQ(report.generated, report.admitted + report.dropped);
    EXPECT_EQ(report.admitted, report.completed + report.leftoverQueued);
    for (const auto &acc : report.accelerators)
        EXPECT_LE(acc.utilization(report.horizonCycles), 1.0);
    EXPECT_GT(report.throughputRps(), 0.0);
}

// ---------------------------------------------------------------- //
//                  Traffic programs & autoscaler                    //
// ---------------------------------------------------------------- //

TEST(Workload, ValidationRejectsBadSpecs)
{
    // The seed accepted these silently (negative rates generated an
    // empty or nonsense trace); both entry points now refuse at
    // construction with std::invalid_argument.
    EXPECT_NO_THROW(WorkloadGenerator{basicSpec()});

    auto bad = basicSpec();
    bad.mix.clear();
    EXPECT_THROW(WorkloadGenerator{bad}, std::invalid_argument);

    bad = basicSpec();
    bad.requestsPerMCycle = -3.0;
    EXPECT_THROW(WorkloadGenerator{bad}, std::invalid_argument);

    bad = basicSpec();
    bad.requestsPerMCycle = 0.0;
    EXPECT_THROW(WorkloadGenerator{bad}, std::invalid_argument);

    bad = basicSpec(ArrivalProcess::Bursty);
    bad.meanBurstSize = 0;
    EXPECT_THROW(WorkloadGenerator{bad}, std::invalid_argument);

    bad = basicSpec();
    bad.mix[0].mapReuseProb = 1.5;
    EXPECT_THROW(WorkloadGenerator{bad}, std::invalid_argument);

    bad = basicSpec();
    bad.mix[0].weight = -1.0;
    EXPECT_THROW(WorkloadGenerator{bad}, std::invalid_argument);

    // The streaming entry point validates too, including the
    // degenerate all-zero-weight mix (an infinite-loop class pick in
    // the seed).
    bad = basicSpec();
    for (auto &cls : bad.mix)
        cls.weight = 0.0;
    EXPECT_THROW(WorkloadStream{bad}, std::invalid_argument);
}

TEST(Traffic, ValidationRejectsBadPrograms)
{
    TrafficProgram program;
    program.base = basicSpec();
    EXPECT_NO_THROW(validateTrafficProgram(program));

    program.phases = {{1'000, 60.0}, {1'000, 80.0}}; // equal starts
    EXPECT_THROW(validateTrafficProgram(program), std::invalid_argument);

    program.phases = {{5'000, 60.0}, {1'000, 80.0}}; // decreasing
    EXPECT_THROW(validateTrafficProgram(program), std::invalid_argument);

    program.phases = {{1'000, 0.0}}; // rate must be positive
    EXPECT_THROW(validateTrafficProgram(program), std::invalid_argument);

    program.phases = {{1'000, -5.0}};
    EXPECT_THROW(validateTrafficProgram(program), std::invalid_argument);

    program.phases.clear();
    program.base.requestsPerMCycle = -1.0; // bad base propagates
    EXPECT_THROW(validateTrafficProgram(program), std::invalid_argument);
    EXPECT_THROW(TrafficStream{program}, std::invalid_argument);
}

TEST(Traffic, PresetShapesAndPeakRates)
{
    const auto base = basicSpec();

    const auto flash = flashCrowdProgram(base, 6.0, 0.3, 0.2);
    EXPECT_NO_THROW(validateTrafficProgram(flash));
    EXPECT_DOUBLE_EQ(flash.peakRequestsPerMCycle(),
                     6.0 * base.requestsPerMCycle);
    // Spike up at ~30% of the horizon, back to base at ~50%.
    ASSERT_EQ(flash.phases.size(), 2u);
    EXPECT_NEAR(static_cast<double>(flash.phases[0].startCycle),
                0.3 * static_cast<double>(base.horizonCycles), 1.0);
    EXPECT_DOUBLE_EQ(flash.phases[0].requestsPerMCycle,
                     6.0 * base.requestsPerMCycle);
    EXPECT_DOUBLE_EQ(flash.phases[1].requestsPerMCycle,
                     base.requestsPerMCycle);
    EXPECT_THROW(flashCrowdProgram(base, 0.0, 0.3, 0.2),
                 std::invalid_argument);
    EXPECT_THROW(flashCrowdProgram(base, 2.0, 1.5, 0.2),
                 std::invalid_argument);
    EXPECT_THROW(flashCrowdProgram(base, 2.0, 0.9, 0.5),
                 std::invalid_argument);

    // Eight steps per period sample the raised cosine at mid-period
    // exactly, so the peak rate is exactly peak_factor * base.
    const auto diurnal = diurnalProgram(base, 2'000'000, 3.0, 8);
    EXPECT_NO_THROW(validateTrafficProgram(diurnal));
    EXPECT_DOUBLE_EQ(diurnal.peakRequestsPerMCycle(),
                     3.0 * base.requestsPerMCycle);
    EXPECT_THROW(diurnalProgram(base, 0, 3.0, 8), std::invalid_argument);
    EXPECT_THROW(diurnalProgram(base, 2'000'000, 0.5, 8),
                 std::invalid_argument);
    EXPECT_THROW(diurnalProgram(base, 2'000'000, 3.0, 1),
                 std::invalid_argument);
}

TEST(Autoscaler, ConfigValidationAndDefaults)
{
    AutoscalerConfig cfg;
    cfg.enabled = true;
    const auto resolved = resolveAutoscalerConfig(cfg, 4);
    EXPECT_EQ(resolved.maxInstances, 4u);     // 0 = whole fleet
    EXPECT_EQ(resolved.initialInstances, 1u); // 0 = the floor

    auto bad = cfg;
    bad.minInstances = 0;
    EXPECT_THROW(resolveAutoscalerConfig(bad, 4), std::invalid_argument);

    bad = cfg;
    bad.maxInstances = 5; // larger than the fleet
    EXPECT_THROW(resolveAutoscalerConfig(bad, 4), std::invalid_argument);

    bad = cfg;
    bad.minInstances = 3;
    bad.maxInstances = 2;
    EXPECT_THROW(resolveAutoscalerConfig(bad, 4), std::invalid_argument);

    bad = cfg;
    bad.maxInstances = 2;
    bad.initialInstances = 4; // outside [min, max]
    EXPECT_THROW(resolveAutoscalerConfig(bad, 4), std::invalid_argument);

    bad = cfg;
    bad.evalIntervalCycles = 0;
    EXPECT_THROW(resolveAutoscalerConfig(bad, 4), std::invalid_argument);

    bad = cfg;
    bad.queueLowDepth = bad.queueHighDepth;
    EXPECT_THROW(resolveAutoscalerConfig(bad, 4), std::invalid_argument);
}

TEST(Autoscaler, PolicyDecidesFromWindowedSignals)
{
    AutoscalerConfig cfg;
    cfg.enabled = true;
    cfg.minInstances = 1;
    cfg.maxInstances = 4;
    cfg.queueHighDepth = 8;
    cfg.queueLowDepth = 2;
    cfg.p99HighCycles = 1'000'000;
    cfg.cooldownCycles = 100'000;
    AutoscalerPolicy policy(resolveAutoscalerConfig(cfg, 4));

    // Queue pressure scales up.
    EXPECT_EQ(policy.decide(0, 8, 0, 2), 1);
    // Cooldown holds even under heavy pressure...
    EXPECT_EQ(policy.decide(50'000, 20, 0, 3), 0);
    // ...and releases once it elapses.
    EXPECT_EQ(policy.decide(100'000, 20, 0, 3), 1);
    // Tail pressure alone (empty queue) also scales up.
    EXPECT_EQ(policy.decide(300'000, 0, 2'000'000, 3), 1);
    // At the ceiling, pressure holds rather than overshooting.
    EXPECT_EQ(policy.decide(500'000, 20, 0, 4), 0);
    // Quiet and drained scales down...
    EXPECT_EQ(policy.decide(700'000, 1, 0, 2), -1);
    // ...but never through the floor.
    EXPECT_EQ(policy.decide(900'000, 0, 0, 1), 0);
    // Below the floor (a crash powered it off) it scales up on a
    // quiet queue...
    EXPECT_EQ(policy.decide(950'000, 0, 0, 0), 1);
    // ...and again inside the cooldown: the floor outranks the damper.
    EXPECT_EQ(policy.decide(960'000, 0, 0, 0), 1);
}

TEST(Autoscaler, SpinUpDelayAndGracefulDrainOracle)
{
    // Hand-checkable closed loop: four identical 100'000-cycle
    // requests arrive at cycle 0 on a two-instance fleet with one
    // instance powered.
    //
    //   t=0       instance 0 takes r0 (queued: r1 r2 r3)
    //   t=10'000  eval: depth 3 >= 2 -> scale up; 5'000-cycle spin-up
    //   t=15'000  instance 1 powers on and takes r1
    //   t=100'000 instance 0 finishes r0, takes r2
    //   t=115'000 instance 1 finishes r1, takes r3
    //   t=120'000 eval: queue empty -> scale down; instance 1 is busy
    //             so it drains: finishes r3, then powers off
    //   t=200'000 instance 0 finishes r2
    //   t=215'000 instance 1 finishes r3 while draining
    const FixedServiceModel model(100'000);
    SchedulerConfig scfg;
    scfg.occupancy = OccupancyModel::Monolithic;
    scfg.batcher.enabled = false; // singleton dispatches
    scfg.autoscaler.enabled = true;
    scfg.autoscaler.minInstances = 1;
    scfg.autoscaler.initialInstances = 1;
    scfg.autoscaler.evalIntervalCycles = 10'000;
    scfg.autoscaler.queueHighDepth = 2;
    scfg.autoscaler.queueLowDepth = 0;
    scfg.autoscaler.spinUpCycles = 5'000;
    FleetScheduler sched({pointAccConfig(), pointAccConfig()}, model,
                         {1.0}, scfg);

    std::vector<Request> trace;
    for (std::uint64_t i = 0; i < 4; ++i)
        trace.push_back(makeRequest(i, 0));
    const auto report = sched.run(trace);

    EXPECT_EQ(report.completed, 4u);
    EXPECT_EQ(report.dropped, 0u);
    const std::vector<std::uint64_t> expected = {100'000, 115'000,
                                                 200'000, 215'000};
    EXPECT_EQ(report.completionCycles, expected);
    EXPECT_EQ(report.horizonCycles, 215'000u);

    const auto &as = report.autoscaler;
    ASSERT_TRUE(as.enabled);
    EXPECT_EQ(as.scaleUps, 1u);
    EXPECT_EQ(as.scaleDowns, 1u);
    EXPECT_EQ(as.drainedBatches, 1u); // r3 finished while draining
    EXPECT_EQ(as.peakProvisioned, 2u);
    EXPECT_EQ(as.finalProvisioned, 1u);
    // Power integral: one instance for [0, 10'000), two from the
    // scale-up decision (spin-up burns power) until the drain
    // completes at 215'000.
    EXPECT_EQ(as.instanceCycles, 10'000u + 2u * 205'000u);
    // The saving the traffic gate reports: static 2-instance cost
    // would be 430'000 instance-cycles.
    EXPECT_LT(as.instanceCycles, 2 * report.horizonCycles);
}

TEST(Autoscaler, WaitForKBatcherSurvivesScaling)
{
    // Structural companion to the oracle above: slow arrivals under a
    // wait-for-K batcher while the autoscaler retires idle capacity.
    // Holds, timers, drains and scaling events interleave; nothing may
    // leak or double-complete.
    const FixedServiceModel model(20'000, 2'000);
    SchedulerConfig scfg;
    scfg.queueDepth = 256;
    scfg.batcher.enabled = true;
    scfg.batcher.targetK = 4;
    scfg.batcher.maxBatchSize = 8;
    scfg.batcher.maxWaitCycles = 30'000;
    scfg.autoscaler.enabled = true;
    scfg.autoscaler.minInstances = 1;
    scfg.autoscaler.initialInstances = 3;
    scfg.autoscaler.evalIntervalCycles = 40'000;
    scfg.autoscaler.queueHighDepth = 50;
    scfg.autoscaler.queueLowDepth = 6;
    scfg.autoscaler.spinUpCycles = 10'000;
    FleetScheduler sched(
        {pointAccConfig(), pointAccConfig(), pointAccConfig()}, model,
        {1.0}, scfg);

    const auto report = sched.run(denseTrace(40, 20'000));
    EXPECT_EQ(report.generated, 40u);
    EXPECT_EQ(report.dropped, 0u);
    EXPECT_EQ(report.completed, 40u);
    EXPECT_EQ(report.leftoverQueued, 0u);
    EXPECT_GT(report.batchHolds, 0u); // wait-for-K actually held

    const auto &as = report.autoscaler;
    ASSERT_TRUE(as.enabled);
    EXPECT_GE(as.scaleDowns, 1u); // idle capacity was retired
    EXPECT_GE(as.finalProvisioned, 1u);
    EXPECT_EQ(as.evals, as.timeline.samples.size());
    EXPECT_LE(as.instanceCycles, 3 * report.horizonCycles);
}

// ---------------------------------------------------------------- //
//                         Report output                             //
// ---------------------------------------------------------------- //

TEST(SimServiceModel, ConcurrentProfilingIsRaceFreeAndMemoizedOnce)
{
    // ThreadSanitizer repro for the pre-executor data race: profile()
    // mutates the memo caches and the profiled-runs meter, and the
    // moment two probes share one model those writes collide. Hammer
    // the same triples from several threads; under TSan the unfixed
    // model reports the race, and with any synchronization scheme the
    // meter must still count each distinct triple exactly once and
    // every thread must read identical profiles.
    ServingCatalog catalog;
    catalog.networks = {pointNet(), pointNetPPClass()};
    catalog.bucketScales = {0.02, 0.04};
    SimServiceModel model(catalog);
    const auto cfg = pointAccConfig();

    constexpr std::size_t kThreads = 4;
    constexpr int kRounds = 16;
    std::vector<std::vector<ServiceProfile>> seen(kThreads);
    {
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < kThreads; ++t)
            threads.emplace_back([&model, &cfg, &seen, t] {
                for (int round = 0; round < kRounds; ++round)
                    for (std::uint32_t n = 0; n < 2; ++n)
                        for (std::uint32_t b = 0; b < 2; ++b)
                            seen[t].push_back(model.profile(cfg, n, b));
            });
        for (auto &th : threads)
            th.join();
    }

    // One real simulator run per distinct (class, network, bucket)
    // triple, however many threads raced to be first.
    EXPECT_EQ(model.profiledRuns(), 4u);

    // Every thread observed the same memoized values.
    for (std::size_t t = 0; t < kThreads; ++t) {
        ASSERT_EQ(seen[t].size(), seen[0].size());
        for (std::size_t i = 0; i < seen[t].size(); ++i) {
            EXPECT_EQ(seen[t][i].totalCycles, seen[0][i].totalCycles);
            EXPECT_EQ(seen[t][i].mappingCycles,
                      seen[0][i].mappingCycles);
            EXPECT_EQ(seen[t][i].weightLoadCycles,
                      seen[0][i].weightLoadCycles);
        }
    }
}

TEST(ServingStats, JsonAndTextOutputs)
{
    ServingReport report;
    report.generated = 10;
    report.admitted = 9;
    report.dropped = 1;
    report.completed = 9;
    report.horizonCycles = 1'000'000;
    report.latencyCycles.record(1000.0);
    report.latencyCycles.record(2000.0);
    AcceleratorUsage usage;
    usage.name = "PointAcc#0";
    usage.busyCycles = 500'000;
    report.accelerators.push_back(usage);

    const auto text = servingSummaryText(report);
    EXPECT_NE(text.find("9 completed"), std::string::npos);

    std::ostringstream os;
    writeServingJson(os, report);
    const auto json = os.str();
    EXPECT_NE(json.find("\"generated\":10"), std::string::npos);
    EXPECT_NE(json.find("\"utilization\":0.5"), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(ServingStats, MergedCompletionStreamIsTheSortedUnion)
{
    // mergeShardReports joins the shards' non-decreasing completion
    // streams: the result must be their sorted concatenation, in a
    // vector of exactly that size, whatever the shard count, with
    // empty shards, ties across shards and values at the top of the
    // uint64 range. The statistics fold in shard order; integer
    // samples keep every sum exact, so they must equal one Moments or
    // Summary fed every sample one by one.
    constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        std::vector<ServingReport> shards(1 + rng.range(20));
        std::vector<std::uint64_t> expected;
        Summary latency;
        Moments wait, batch;
        for (ServingReport &shard : shards) {
            const std::size_t n = rng.range(4) == 0 ? 0 : rng.range(60);
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint64_t off = rng.range(40);
                shard.completionCycles.push_back(
                    rng.range(2) == 0 ? off : kTop - off);
                const double v = static_cast<double>(rng.range(1000));
                shard.latencyCycles.record(v);
                latency.record(v);
                shard.queueWaitCycles.record(v / 2.0);
                wait.record(v / 2.0);
                shard.batchSize.record(static_cast<double>(1 + i % 8));
                batch.record(static_cast<double>(1 + i % 8));
            }
            std::sort(shard.completionCycles.begin(),
                      shard.completionCycles.end());
            shard.completed = n;
            expected.insert(expected.end(), shard.completionCycles.begin(),
                            shard.completionCycles.end());
        }
        std::sort(expected.begin(), expected.end());

        const ServingReport merged = mergeShardReports(shards);
        EXPECT_EQ(merged.completionCycles, expected);
        EXPECT_EQ(merged.completionCycles.capacity(),
                  merged.completionCycles.size());
        EXPECT_EQ(merged.completed, expected.size());
        const auto moments = [](const Moments &m) {
            return std::vector<double>{static_cast<double>(m.count()),
                                       m.sum(), m.min(), m.max(), m.mean()};
        };
        EXPECT_EQ(moments(merged.latencyCycles.moments()),
                  moments(latency.moments()));
        EXPECT_EQ(moments(merged.queueWaitCycles), moments(wait));
        EXPECT_EQ(moments(merged.batchSize), moments(batch));
        EXPECT_EQ(merged.latencyCycles.data(), latency.data());
    }
}

TEST(RunResultJson, DumpContainsTotalsAndLayers)
{
    RunResult result;
    result.network = "PointNet";
    result.accelerator = "PointAcc";
    result.totalCycles = 1234;
    LayerStats ls;
    ls.name = "conv\"1"; // exercise string escaping
    ls.totalCycles = 1234;
    result.layers.push_back(ls);

    std::ostringstream os;
    writeJson(os, result);
    const auto json = os.str();
    EXPECT_NE(json.find("\"network\":\"PointNet\""), std::string::npos);
    EXPECT_NE(json.find("\"total_cycles\":1234"), std::string::npos);
    EXPECT_NE(json.find("conv\\\"1"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

} // namespace
} // namespace pointacc
