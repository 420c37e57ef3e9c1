/**
 * @file
 * Property/fuzz tests for the serving runtime: seeded random workload
 * and scheduler-configuration sweeps asserting invariants that must
 * hold for *every* scenario, not just the hand-picked unit-test ones:
 *
 *  - conservation: every generated request is admitted or dropped,
 *    and every admitted request completes (the simulation drains, so
 *    nothing is in flight or queued at the end);
 *  - per-stage utilization <= 1: neither the mapping front-end, the
 *    matrix/memory back-end, nor the whole-instance busy union can
 *    exceed the simulated span;
 *  - completion timestamps are non-decreasing (the event loop never
 *    travels back in time) and account exactly for every completion;
 *  - determinism: identical seeds produce byte-identical serving
 *    stats JSON, for both the immediate and wait-for-K batchers, with
 *    the kernel-map cache on and off;
 *  - map-cache invariants: hits + misses account exactly for every
 *    completion, evictions never exceed insertions, and enabling the
 *    cache never slows any request down (a hit is clamped to be no
 *    slower than the miss it replaces).
 *
 * The service model is a seeded random phase table, so the fuzz space
 * covers map-bound, backend-bound and degenerate (zero-phase) costs
 * alongside every queue policy, occupancy model, batcher config and
 * map-cache config (including read costs above the map phase, tiny
 * capacities that force evictions, and both eviction policies).
 *
 * Since the O(log n) rebuild of the discrete-event core, this suite is
 * also the equivalence harness: the production engine must match the
 * preserved seed engine (runtime/reference) byte for byte —
 * report-for-report over fuzzed scenarios, pop-for-pop between the
 * indexed admission queue and the seed's linear queue (ties included),
 * and draw-for-draw between the streaming workload generator and a
 * replica of the seed's materializing one. The capacity planner's
 * probe path is a further consumer of the production engine and is
 * held to the same bar (probe-vs-reference byte identity), plus four
 * planner-level invariants over ~60 seeded workloads: the chosen
 * config meets the SLO when re-simulated, no cheaper fleet size in
 * the probe log met it, plan output is byte-identical across runs,
 * and probes spent never exceed the exhaustive grid size.
 *
 * Since the wall-clock migration, the production engine prices events
 * in nanoseconds (each instance converts its cycle costs through its
 * freqGHz at dispatch) while the preserved seed engine still prices
 * raw cycles — so the byte-identity gates double as the time-domain
 * differential harness: every fleet the equivalence sweeps build runs
 * at the default 1 GHz, where cycles-to-ns is the identity, and any
 * conversion leak (a rounding, a double round-trip, a missed clamp)
 * shows up as a byte diff. Mixed-frequency fleets (0.5 / 1 / 2 GHz),
 * which have no cycle-domain reference, are pinned by the
 * conservation sweep plus byte-identical repeatability; the
 * heterogeneous composition lattice by its own planner invariants:
 * the chosen composition re-simulates to meet the SLO, no
 * cheaper-cost passing composition exists in the probe log, probes
 * price their compositions exactly as the objective rule says, plans
 * are byte-identical across runs and across threads=4 vs serial, and
 * lattice probe spend never exceeds the exhaustive composition grid.
 *
 * The traffic/autoscaling layer (runtime/traffic, runtime/autoscaler)
 * is held to the same bar: per-segment arrival counts match the
 * analytic MMPP expectation, a phase-free churn-free program is
 * draw-for-draw the stationary stream, schedule files round-trip
 * exactly (and serve byte-identically, with malformed input rejected),
 * and autoscaled runs keep every serving invariant while remaining
 * byte-identical across repeats and across the streaming/materialized
 * entry points.
 *
 * A scale tier (10^5-request traces, plus a 10^6-request generator
 * memory check) runs only when the binary is invoked with `--scale`
 * (scripts/ci.sh does), so the quick ctest pass stays fast.
 *
 * `--threads N` shards the big seeded loops across a one-queue
 * ProbeExecutor (each seed is an independent scenario; gtest assertion
 * recording is thread-safe on pthread platforms). The default is 1 —
 * plain ctest runs stay serial — and results are seed-for-seed the
 * same either way. The parallel planner itself is pinned by
 * PlannerProperties.ParallelPlanIsByteIdenticalToSerial: >= 20 seeded
 * configs where a threads=3 plan must serialize byte-identically to
 * the serial plan and simulate exactly the probes it logs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/rng.hpp"
#include "nn/zoo.hpp"
#include "runtime/executor.hpp"
#include "runtime/faults.hpp"
#include "runtime/planner.hpp"
#include "runtime/reference.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serving_stats.hpp"
#include "runtime/traffic.hpp"
#include "runtime/workload.hpp"
#include "sim/accel_config.hpp"

namespace pointacc {
namespace {

/** Set by main() when the binary runs with --scale. */
bool scaleTierEnabled = false;

/** Set by main() from --threads N; 1 (the default) keeps every seed
 *  loop on the caller thread, so plain ctest runs are serial. */
std::size_t propertyThreads = 1;

constexpr std::uint32_t kNetworks = 3;
constexpr std::uint32_t kBuckets = 2;

/** Seeded random (map, backend, weight) cost table; accelerator-class
 *  independent so fleets of mixed classes stress only the scheduler. */
class RandomPhasedServiceModel : public ServiceModel
{
  public:
    explicit RandomPhasedServiceModel(std::uint64_t seed)
    {
        Rng rng(seed);
        for (std::uint32_t n = 0; n < kNetworks; ++n) {
            for (std::uint32_t b = 0; b < kBuckets; ++b) {
                ServiceProfile p;
                // ~1/8 of profiles are map-less, ~1/8 backend-less:
                // the pipeline's degenerate phases must not wedge.
                const std::uint64_t shape = rng.range(8);
                p.mappingCycles =
                    shape == 0 ? 0 : 1 + rng.range(50'000);
                const std::uint64_t backend =
                    shape == 1 ? 0 : 1 + rng.range(100'000);
                p.totalCycles = p.mappingCycles + backend;
                if (p.totalCycles == 0)
                    p.totalCycles = 1; // never free
                p.computeCycles = backend;
                p.weightLoadCycles = rng.range(p.totalCycles + 1);
                table[n * kBuckets + b] = p;
            }
        }
    }

    ServiceProfile
    profile(const AcceleratorConfig &, std::uint32_t network_id,
            std::uint32_t bucket) const override
    {
        return table.at(network_id * kBuckets + bucket);
    }

  private:
    std::array<ServiceProfile, kNetworks * kBuckets> table;
};

WorkloadSpec
randomSpec(Rng &rng, std::uint64_t seed)
{
    WorkloadSpec spec;
    spec.seed = seed;
    spec.requestsPerMCycle = rng.uniform(5.0, 80.0);
    spec.horizonCycles = 500'000 + rng.range(3'500'000);
    spec.arrivals = rng.range(2) == 0 ? ArrivalProcess::Poisson
                                      : ArrivalProcess::Bursty;
    spec.meanBurstSize = 2 + static_cast<std::uint32_t>(rng.range(6));
    const std::size_t classes = 1 + rng.range(3);
    for (std::size_t i = 0; i < classes; ++i) {
        RequestClass cls;
        cls.networkId = static_cast<std::uint32_t>(rng.range(kNetworks));
        cls.sizeBucket = static_cast<std::uint32_t>(rng.range(kBuckets));
        cls.weight = rng.uniform(0.5, 4.0);
        cls.deadlineCycles = rng.range(3) == 0 ? 50'000 + rng.range(500'000)
                                               : 0;
        // Half the classes are repeated-frame streams (one stream per
        // class), so the map cache sees real reuse in the fuzz space.
        cls.streamId = static_cast<std::uint32_t>(i);
        cls.mapReuseProb =
            rng.range(2) == 0 ? rng.uniform(0.1, 1.0) : 0.0;
        spec.mix.push_back(cls);
    }
    return spec;
}

SchedulerConfig
randomConfig(Rng &rng)
{
    SchedulerConfig scfg;
    const std::uint64_t pol = rng.range(3);
    scfg.policy = pol == 0   ? QueuePolicy::Fifo
                  : pol == 1 ? QueuePolicy::Sjf
                             : QueuePolicy::Edf;
    scfg.occupancy = rng.range(2) == 0 ? OccupancyModel::Monolithic
                                       : OccupancyModel::Pipelined;
    scfg.queueDepth = 4 + rng.range(125);
    scfg.batcher.enabled = rng.range(4) != 0;
    scfg.batcher.maxBatchSize =
        1 + static_cast<std::uint32_t>(rng.range(8));
    scfg.batcher.maxPointsRatio = rng.uniform(1.0, 4.0);
    scfg.batcher.targetK = 1 + static_cast<std::uint32_t>(rng.range(4));
    scfg.batcher.maxWaitCycles = rng.range(300'000);
    // Map cache on half the scenarios: tiny capacities force
    // evictions, and read costs above most map phases exercise the
    // hit-never-slower clamp.
    scfg.mapCache.enabled = rng.range(2) == 0;
    scfg.mapCache.capacityEntries = 1 + rng.range(64);
    scfg.mapCache.eviction = rng.range(2) == 0 ? MapCacheEviction::Lru
                                               : MapCacheEviction::Lfu;
    scfg.mapCache.hitReadCycles = rng.range(60'000);
    return scfg;
}

std::vector<AcceleratorConfig>
randomFleet(Rng &rng)
{
    std::vector<AcceleratorConfig> fleet;
    const std::size_t size = 1 + rng.range(3);
    for (std::size_t i = 0; i < size; ++i)
        fleet.push_back(rng.range(2) == 0 ? pointAccConfig()
                                          : pointAccEdgeConfig());
    return fleet;
}

/** randomFleet with a clock per member: server or edge class at 0.5,
 *  1 or 2 GHz. */
std::vector<AcceleratorConfig>
randomMixedClockFleet(Rng &rng)
{
    std::vector<AcceleratorConfig> fleet;
    const std::size_t size = 1 + rng.range(3);
    for (std::size_t i = 0; i < size; ++i) {
        AcceleratorConfig cfg = rng.range(2) == 0 ? pointAccConfig()
                                                  : pointAccEdgeConfig();
        // A clock rate is part of the serving class: same-name fleet
        // members must share a config, so the name carries the
        // frequency.
        const char *const tags[3] = {"@0.5GHz", "@1GHz", "@2GHz"};
        const double freqs[3] = {0.5, 1.0, 2.0};
        const std::uint64_t pick = rng.range(3);
        cfg.freqGHz = freqs[pick];
        cfg.name += tags[pick];
        fleet.push_back(cfg);
    }
    return fleet;
}

void
checkInvariants(const ServingReport &report, std::uint64_t seed)
{
    SCOPED_TRACE("seed " + std::to_string(seed));

    // Conservation: offered = admitted + dropped, and the simulation
    // drains — nothing queued or in flight survives the run.
    EXPECT_EQ(report.generated, report.admitted + report.dropped);
    EXPECT_EQ(report.admitted,
              report.completed + report.leftoverQueued);
    EXPECT_EQ(report.leftoverQueued, 0u);

    // Every completion is accounted once, in event order.
    ASSERT_EQ(report.completionCycles.size(), report.completed);
    EXPECT_EQ(report.latencyCycles.count(), report.completed);
    EXPECT_EQ(report.queueWaitCycles.count(), report.completed);
    for (std::size_t i = 1; i < report.completionCycles.size(); ++i)
        ASSERT_GE(report.completionCycles[i],
                  report.completionCycles[i - 1])
            << "completion order regressed at index " << i;
    if (!report.completionCycles.empty())
        EXPECT_LE(report.completionCycles.back(), report.horizonCycles);

    // Dispatch accounting: batch members sum to completions.
    EXPECT_EQ(static_cast<std::uint64_t>(report.batchSize.sum()),
              report.completed);

    // Utilization <= 1 per pipeline stage and for the busy union.
    std::uint64_t served = 0;
    for (const auto &acc : report.accelerators) {
        EXPECT_LE(acc.busyCycles, report.horizonCycles) << acc.name;
        EXPECT_LE(acc.mapBusyCycles, report.horizonCycles) << acc.name;
        EXPECT_LE(acc.backendBusyCycles, report.horizonCycles)
            << acc.name;
        // The busy union covers each stage individually.
        EXPECT_GE(acc.busyCycles, acc.mapBusyCycles) << acc.name;
        EXPECT_GE(acc.busyCycles, acc.backendBusyCycles) << acc.name;
        served += acc.requests;
    }
    EXPECT_EQ(served, report.completed);
}

/**
 * Run fn(seed) for every seed in [first, last), sharded across a
 * one-queue pool when the binary runs with --threads N (serial
 * otherwise: resolveThreads(1) is inline execution). Each seed is an
 * independent scenario — its own Rng, model and scheduler — and gtest
 * assertion recording is thread-safe on pthread platforms, so the
 * outcome is seed-for-seed identical to the serial loop. An ASSERT
 * failure aborts only its own seed's task (gtest returns from the
 * enclosing body, here the per-seed closure), never a neighbour's.
 */
void
forEachSeed(std::uint64_t first, std::uint64_t last,
            const std::function<void(std::uint64_t)> &fn)
{
    ProbeExecutor pool(ProbeExecutor::resolveThreads(propertyThreads));
    std::vector<ProbeExecutor::Future<void>> inflight;
    inflight.reserve(static_cast<std::size_t>(last - first));
    for (std::uint64_t seed = first; seed < last; ++seed)
        inflight.push_back(pool.submit([&fn, seed] { fn(seed); }));
    for (auto &f : inflight)
        f.get();
}

TEST(RuntimeProperties, RandomSweepsHoldInvariants)
{
    // >= 100 seeded scenarios across the whole config space.
    forEachSeed(1, 121, [](std::uint64_t seed) {
        Rng rng(seed * 0x9e3779b9ULL);
        const RandomPhasedServiceModel model(seed);
        const auto spec = randomSpec(rng, seed);
        const auto scfg = randomConfig(rng);
        const auto fleet = randomFleet(rng);

        // Bucket scales only feed the batcher's size-ratio rule here.
        FleetScheduler sched(fleet, model, {1.0, 2.0}, scfg);
        const auto trace = WorkloadGenerator(spec).generate();
        const auto report = sched.run(trace);
        EXPECT_EQ(report.generated, trace.size());
        checkInvariants(report, seed);

        // Map-cache conservation: every completed request was priced
        // against the cache exactly once (when it was enabled), and
        // evictions only ever follow insertions.
        if (scfg.mapCache.enabled) {
            EXPECT_EQ(report.mapCache.hits + report.mapCache.misses,
                      report.completed)
                << "seed " << seed;
            EXPECT_LE(report.mapCache.insertions, report.mapCache.misses)
                << "seed " << seed;
            EXPECT_LE(report.mapCache.evictions, report.mapCache.insertions)
                << "seed " << seed;
        } else {
            EXPECT_EQ(report.mapCache.hits + report.mapCache.misses, 0u)
                << "seed " << seed;
        }
    });
}

TEST(RuntimeProperties, MixedFrequencyFleetsHoldInvariants)
{
    // The wall-clock axis must keep every conservation and
    // utilization invariant when instances tick at different rates:
    // each instance converts its cycle costs to event-axis ns at
    // dispatch (0.5 / 1 / 2 GHz here), so there is no cycle-domain
    // reference to diff against — the invariants plus byte-identical
    // repeatability are the contract.
    forEachSeed(1100, 1130, [](std::uint64_t seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x9e3779b9ULL);
        const RandomPhasedServiceModel model(seed);
        const auto spec = randomSpec(rng, seed);
        const auto scfg = randomConfig(rng);
        const auto fleet = randomMixedClockFleet(rng);

        const auto trace = WorkloadGenerator(spec).generate();
        std::string dumps[2];
        ServingReport report;
        for (auto &dump : dumps) {
            FleetScheduler sched(fleet, model, {1.0, 2.0}, scfg);
            report = sched.run(trace);
            std::ostringstream os;
            writeServingJson(os, report);
            dump = os.str();
        }
        EXPECT_EQ(dumps[0], dumps[1])
            << "mixed-frequency run is not repeatable";
        EXPECT_EQ(report.generated, trace.size());
        checkInvariants(report, seed);

        // The report echoes each instance's clock rate.
        ASSERT_EQ(report.accelerators.size(), fleet.size());
        for (std::size_t i = 0; i < fleet.size(); ++i)
            EXPECT_EQ(report.accelerators[i].freqGHz, fleet[i].freqGHz);
    });
}

TEST(RuntimeProperties, PipelinedNeverCompletesLessThanMonolithic)
{
    // At equal fleet and workload, pipelining only adds capacity:
    // with an unbounded queue (no drops) the pipelined makespan must
    // not exceed the monolithic one on a FIFO single instance.
    forEachSeed(200, 230, [](std::uint64_t seed) {
        Rng rng(seed);
        const RandomPhasedServiceModel model(seed);
        auto spec = randomSpec(rng, seed);

        SchedulerConfig scfg;
        scfg.batcher.enabled = false;
        scfg.queueDepth = 1 << 20;
        scfg.occupancy = OccupancyModel::Pipelined;
        FleetScheduler pipe({pointAccConfig()}, model, {1.0, 2.0}, scfg);
        scfg.occupancy = OccupancyModel::Monolithic;
        FleetScheduler mono({pointAccConfig()}, model, {1.0, 2.0}, scfg);

        const auto trace = WorkloadGenerator(spec).generate();
        const auto pipeReport = pipe.run(trace);
        const auto monoReport = mono.run(trace);
        SCOPED_TRACE("seed " + std::to_string(seed));
        EXPECT_EQ(pipeReport.completed, monoReport.completed);
        EXPECT_LE(pipeReport.horizonCycles, monoReport.horizonCycles);
    });
}

TEST(RuntimeProperties, ServingStatsAreByteIdenticalAcrossRuns)
{
    // Determinism regression: identical workload seeds must give
    // byte-identical serving stats, for the immediate batcher and the
    // wait-for-K batcher alike, with the map cache off and on (the
    // JSON includes the cache counters, so a nondeterministic victim
    // choice or hit classification would show up here).
    for (const bool cacheOn : {false, true}) {
        for (const std::uint32_t targetK : {1u, 4u}) {
            for (const std::uint64_t seed : {7ULL, 21ULL, 1021ULL}) {
                Rng rng(seed);
                const RandomPhasedServiceModel model(seed);
                const auto spec = randomSpec(rng, seed);

                SchedulerConfig scfg;
                scfg.batcher.enabled = true;
                scfg.batcher.targetK = targetK;
                scfg.batcher.maxWaitCycles = targetK > 1 ? 100'000 : 0;
                scfg.occupancy = OccupancyModel::Pipelined;
                scfg.mapCache.enabled = cacheOn;
                scfg.mapCache.capacityEntries = 32; // small: evict often
                scfg.mapCache.hitReadCycles = 5'000;
                scfg.mapCache.eviction = targetK > 1
                                             ? MapCacheEviction::Lfu
                                             : MapCacheEviction::Lru;

                std::string dumps[2];
                for (auto &dump : dumps) {
                    FleetScheduler sched(
                        {pointAccConfig(), pointAccEdgeConfig()}, model,
                        {1.0, 2.0}, scfg);
                    const auto report =
                        sched.run(WorkloadGenerator(spec).generate());
                    std::ostringstream os;
                    writeServingJson(os, report);
                    dump = os.str();
                }
                EXPECT_EQ(dumps[0], dumps[1])
                    << "seed " << seed << " targetK " << targetK
                    << " cache " << cacheOn;
            }
        }
    }
}

/** Random fault program against `horizon` ns and `fleet_size`
 *  instances: a stochastic MTBF/MTTR process on half the scenarios,
 *  up to two scheduled crash windows, and at most one straggler
 *  window per instance (the validator rejects overlap). */
FaultProgram
randomFaultProgram(Rng &rng, std::uint64_t horizon,
                   std::size_t fleet_size)
{
    FaultProgram program;
    program.enabled = true;
    program.horizonNs = horizon;
    program.seed = rng.range(1 << 20) + 1;
    if (rng.range(2) == 0) {
        program.mtbfNs = horizon / (2 + rng.range(6)) + 1;
        program.mttrNs = program.mtbfNs / (2 + rng.range(8)) + 1;
    }
    const std::size_t crashes = rng.range(3);
    for (std::size_t i = 0; i < crashes; ++i) {
        CrashWindow w;
        w.instance = static_cast<std::uint32_t>(rng.range(fleet_size));
        w.atNs = rng.range(horizon);
        w.downForNs = rng.range(2) == 0 ? 0 : horizon / 8 + 1;
        program.crashes.push_back(w);
    }
    for (std::size_t i = 0; i < fleet_size; ++i) {
        if (rng.range(3) != 0)
            continue;
        StragglerWindow w;
        w.instance = static_cast<std::uint32_t>(i);
        w.atNs = rng.range(horizon / 2);
        w.durationNs = 1 + rng.range(horizon / 4);
        w.slowdown = rng.uniform(1.5, 4.0);
        program.stragglers.push_back(w);
    }
    return program;
}

RetryPolicy
randomRetryPolicy(Rng &rng)
{
    RetryPolicy retry;
    retry.enabled = rng.range(4) != 0;
    retry.maxRetries = 1 + static_cast<std::uint32_t>(rng.range(4));
    retry.backoffBaseNs = 1 + rng.range(50'000);
    retry.backoffMult = rng.uniform(1.0, 3.0);
    retry.maxBackoffNs =
        rng.range(2) == 0 ? 0 : retry.backoffBaseNs * 4;
    retry.hedgeDelayNs =
        rng.range(3) == 0 ? 100'000 + rng.range(400'000) : 0;
    retry.timeoutNs =
        rng.range(4) == 0 ? 1'000'000 + rng.range(4'000'000) : 0;
    return retry;
}

/** The fault-mode analogue of checkInvariants: conservation extends
 *  to the three-way admitted split, leftovers may be nonzero (a fleet
 *  crashed for good strands its backlog), and dispatch counters hold
 *  "dispatched" semantics (retries and hedges re-dispatch, so sums
 *  bound completions from above instead of equalling them). */
void
checkFaultInvariants(const ServingReport &report, std::uint64_t seed)
{
    SCOPED_TRACE("fault seed " + std::to_string(seed));

    EXPECT_EQ(report.generated, report.admitted + report.dropped);
    EXPECT_EQ(report.admitted, report.completed + report.failed +
                                   report.leftoverQueued);

    ASSERT_EQ(report.completionCycles.size(), report.completed);
    EXPECT_EQ(report.latencyCycles.count(), report.completed);
    for (std::size_t i = 1; i < report.completionCycles.size(); ++i)
        ASSERT_GE(report.completionCycles[i],
                  report.completionCycles[i - 1])
            << "completion order regressed at index " << i;
    if (!report.completionCycles.empty())
        EXPECT_LE(report.completionCycles.back(), report.horizonCycles);

    // Goodput can never exceed throughput: deadline misses are a
    // subset of completions.
    EXPECT_LE(report.goodputRps(), report.throughputRps());

    // Every terminal failure traces back to a crash victim, and each
    // victim is counted per crash incident, so failures are bounded
    // by incidents.
    EXPECT_LE(report.failed, report.faults.inflightFailed);
    EXPECT_EQ(report.faults.hedgesWon + report.faults.hedgesLost <=
                  report.faults.hedges,
              true);

    std::uint64_t served = 0;
    for (const auto &acc : report.accelerators) {
        EXPECT_LE(acc.busyCycles, report.horizonCycles) << acc.name;
        EXPECT_LE(acc.mapBusyCycles, report.horizonCycles) << acc.name;
        EXPECT_LE(acc.backendBusyCycles, report.horizonCycles)
            << acc.name;
        EXPECT_GE(acc.busyCycles, acc.mapBusyCycles) << acc.name;
        EXPECT_GE(acc.busyCycles, acc.backendBusyCycles) << acc.name;
        served += acc.requests;
    }
    // Dispatched >= completed: crash victims and hedge duplicates
    // consumed capacity without (each) producing a completion.
    EXPECT_GE(served, report.completed);
    EXPECT_GE(static_cast<std::uint64_t>(report.batchSize.sum()),
              report.completed);
}

TEST(RuntimeProperties, FaultSweepsHoldExtendedInvariants)
{
    // 24 seeded fault scenarios across the whole config space:
    // stochastic and scheduled crashes, stragglers, retries with
    // backoff, hedging and timeouts, over random fleets and policies.
    // Each scenario must keep the extended conservation identity and
    // be byte-identical across reruns.
    forEachSeed(3000, 3024, [](std::uint64_t seed) {
        Rng rng(seed * 0x9e3779b9ULL);
        const RandomPhasedServiceModel model(seed);
        const auto spec = randomSpec(rng, seed);
        const auto fleet = randomFleet(rng);
        auto scfg = randomConfig(rng);
        scfg.faults =
            randomFaultProgram(rng, spec.horizonCycles, fleet.size());
        scfg.retry = randomRetryPolicy(rng);

        const auto trace = WorkloadGenerator(spec).generate();
        std::string dumps[2];
        ServingReport report;
        for (auto &dump : dumps) {
            FleetScheduler sched(fleet, model, {1.0, 2.0}, scfg);
            report = sched.run(trace);
            std::ostringstream os;
            writeServingJson(os, report);
            dump = os.str();
        }
        EXPECT_EQ(dumps[0], dumps[1])
            << "faulted run is not repeatable, seed " << seed;
        EXPECT_EQ(report.generated, trace.size());
        EXPECT_TRUE(report.faults.enabled);
        checkFaultInvariants(report, seed);
    });
}

TEST(RuntimeProperties, EmptyFaultProgramIsByteIdenticalToFaultFree)
{
    // The off switch is absolute: an enabled program that materializes
    // no events (and no retry policy) must leave the serialized report
    // byte-identical to a run with no fault config at all.
    forEachSeed(3100, 3112, [](std::uint64_t seed) {
        Rng rng(seed * 0x9e3779b9ULL);
        const RandomPhasedServiceModel model(seed);
        const auto spec = randomSpec(rng, seed);
        const auto scfg = randomConfig(rng);
        const auto fleet = randomFleet(rng);
        const auto trace = WorkloadGenerator(spec).generate();

        SchedulerConfig withEmpty = scfg;
        withEmpty.faults.enabled = true; // enabled, nothing to inject

        std::string dumps[2];
        {
            FleetScheduler sched(fleet, model, {1.0, 2.0}, scfg);
            std::ostringstream os;
            writeServingJson(os, sched.run(trace));
            dumps[0] = os.str();
        }
        {
            FleetScheduler sched(fleet, model, {1.0, 2.0}, withEmpty);
            std::ostringstream os;
            writeServingJson(os, sched.run(trace));
            dumps[1] = os.str();
        }
        EXPECT_EQ(dumps[0], dumps[1])
            << "empty fault program perturbed the run, seed " << seed;
    });
}

TEST(RuntimeProperties, RetryPolicyWithoutFaultsChangesOnlyTheBlock)
{
    // Retries (without hedging) never fire when nothing crashes: the
    // run's behaviour is untouched, only the fault_*/retry_* block
    // appears — with every counter zero.
    forEachSeed(3200, 3208, [](std::uint64_t seed) {
        Rng rng(seed * 0x9e3779b9ULL);
        const RandomPhasedServiceModel model(seed);
        const auto spec = randomSpec(rng, seed);
        const auto scfg = randomConfig(rng);
        const auto fleet = randomFleet(rng);
        const auto trace = WorkloadGenerator(spec).generate();

        SchedulerConfig withRetry = scfg;
        withRetry.retry.enabled = true;
        withRetry.retry.backoffBaseNs = 1'000;

        FleetScheduler plain(fleet, model, {1.0, 2.0}, scfg);
        FleetScheduler retried(fleet, model, {1.0, 2.0}, withRetry);
        const auto a = plain.run(trace);
        const auto b = retried.run(trace);

        SCOPED_TRACE("seed " + std::to_string(seed));
        EXPECT_EQ(a.completed, b.completed);
        EXPECT_EQ(a.dropped, b.dropped);
        EXPECT_EQ(a.horizonCycles, b.horizonCycles);
        EXPECT_EQ(b.failed, 0u);
        EXPECT_TRUE(b.faults.enabled);
        EXPECT_EQ(b.faults.crashes, 0u);
        EXPECT_EQ(b.faults.retryAttempts, 0u);
        EXPECT_EQ(b.faults.hedges, 0u);
    });
}

TEST(RuntimeProperties, MapCacheNeverSlowsASingleInstance)
{
    // On a FIFO single instance without batching, dispatch order is
    // arrival order in both runs, and a hit's phase profile is clamped
    // to never exceed the miss it replaces — so enabling the cache
    // must leave every completion timestamp no later, request by
    // request, under both occupancy models.
    for (const auto occupancy :
         {OccupancyModel::Pipelined, OccupancyModel::Monolithic}) {
        forEachSeed(300, 330, [occupancy](std::uint64_t seed) {
            Rng rng(seed);
            const RandomPhasedServiceModel model(seed);
            auto spec = randomSpec(rng, seed);
            for (auto &cls : spec.mix)
                cls.mapReuseProb = 0.8; // reuse-heavy: hits matter

            SchedulerConfig scfg;
            scfg.batcher.enabled = false;
            scfg.queueDepth = 1 << 20; // no drops
            scfg.occupancy = occupancy;
            scfg.mapCache.enabled = false;
            FleetScheduler off({pointAccConfig()}, model, {1.0, 2.0},
                               scfg);
            scfg.mapCache.enabled = true;
            scfg.mapCache.capacityEntries = 256;
            scfg.mapCache.hitReadCycles = rng.range(80'000);
            FleetScheduler on({pointAccConfig()}, model, {1.0, 2.0},
                              scfg);

            const auto trace = WorkloadGenerator(spec).generate();
            const auto offReport = off.run(trace);
            const auto onReport = on.run(trace);
            SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                         toString(occupancy));
            ASSERT_EQ(onReport.completed, offReport.completed);
            ASSERT_EQ(onReport.completionCycles.size(),
                      offReport.completionCycles.size());
            for (std::size_t i = 0; i < onReport.completionCycles.size();
                 ++i)
                ASSERT_LE(onReport.completionCycles[i],
                          offReport.completionCycles[i])
                    << "request index " << i;
            EXPECT_LE(onReport.horizonCycles, offReport.horizonCycles);
        });
    }
}

// ---------------------------------------------------------------- //
//         Equivalence against the preserved seed engine             //
// ---------------------------------------------------------------- //

std::string
servingJsonOf(const ServingReport &report)
{
    std::ostringstream os;
    writeServingJson(os, report);
    return os.str();
}

TEST(RuntimeEquivalence, ProductionEngineMatchesSeedEngineByteForByte)
{
    // The O(log n) core's contract is behavioral identity with the
    // seed loop — not "close", identical. Since the wall-clock
    // migration this is also the time-domain differential gate: the
    // production engine prices in ns, the seed engine in raw cycles,
    // and every fleet here ticks at the default 1 GHz — where the
    // conversion is the identity, so any ns leak is a byte diff.
    // Run both engines over 60 fuzzed scenarios and compare the
    // serialized reports byte for byte (policies, occupancy models,
    // batching, wait-for-K and the map cache all flow through the
    // JSON).
    forEachSeed(1, 61, [](std::uint64_t seed) {
        Rng rng(seed * 0x9e3779b9ULL);
        const RandomPhasedServiceModel model(seed);
        const auto spec = randomSpec(rng, seed);
        const auto scfg = randomConfig(rng);
        const auto fleet = randomFleet(rng);

        const auto trace = WorkloadGenerator(spec).generate();
        FleetScheduler sched(fleet, model, {1.0, 2.0}, scfg);
        const auto production = sched.run(trace);
        const auto reference = runServingReference(fleet, model,
                                                   {1.0, 2.0}, scfg,
                                                   trace);
        ASSERT_EQ(servingJsonOf(production), servingJsonOf(reference))
            << "engines diverged at seed " << seed;
    });
}

TEST(RuntimeEquivalence, InertRunAheadDefaultsMatchSeedEngine)
{
    // The run-ahead buffer and the cost-aware hold are strict
    // supersets of the frozen behaviour: with runAheadDepth pinned to
    // 1 and costAware off, every new code path (staged promotion,
    // arrival-cadence tracking, class-price memos) must be completely
    // inert, leaving the production engine byte-identical to the seed
    // loop across the fuzz space.
    forEachSeed(4000, 4030, [](std::uint64_t seed) {
        Rng rng(seed * 0x9e3779b9ULL);
        const RandomPhasedServiceModel model(seed);
        const auto spec = randomSpec(rng, seed);
        auto scfg = randomConfig(rng);
        scfg.runAheadDepth = 1;
        scfg.batcher.costAware = false;
        const auto fleet = randomFleet(rng);

        const auto trace = WorkloadGenerator(spec).generate();
        FleetScheduler sched(fleet, model, {1.0, 2.0}, scfg);
        const auto production = sched.run(trace);
        const auto reference = runServingReference(fleet, model,
                                                   {1.0, 2.0}, scfg,
                                                   trace);
        ASSERT_EQ(servingJsonOf(production), servingJsonOf(reference))
            << "inert run-ahead defaults diverged at seed " << seed;
    });
}

TEST(RuntimeProperties, RunAheadDepthsHoldInvariants)
{
    // Depths 2..4 across the fuzz space: conservation, utilization
    // and drain invariants must survive the staged handoff buffer,
    // repeat runs must stay byte-identical, and the observed peak
    // staged occupancy can never exceed the buffer's capacity of
    // depth - 1 slots.
    forEachSeed(4100, 4130, [](std::uint64_t seed) {
        Rng rng(seed * 0x9e3779b9ULL);
        const RandomPhasedServiceModel model(seed);
        const auto spec = randomSpec(rng, seed);
        auto scfg = randomConfig(rng);
        scfg.occupancy = OccupancyModel::Pipelined;
        scfg.runAheadDepth =
            2 + static_cast<std::uint32_t>(rng.range(3));
        const auto fleet = randomFleet(rng);

        const auto trace = WorkloadGenerator(spec).generate();
        std::string dumps[2];
        ServingReport report;
        for (auto &dump : dumps) {
            FleetScheduler sched(fleet, model, {1.0, 2.0}, scfg);
            report = sched.run(trace);
            dump = servingJsonOf(report);
        }
        SCOPED_TRACE("depth " + std::to_string(scfg.runAheadDepth));
        EXPECT_EQ(dumps[0], dumps[1]) << "run-ahead is not repeatable";
        EXPECT_EQ(report.generated, trace.size());
        checkInvariants(report, seed);
        EXPECT_EQ(report.runAheadDepth, scfg.runAheadDepth);
        EXPECT_LE(report.runAheadPeakStaged,
                  static_cast<std::uint64_t>(scfg.runAheadDepth) - 1);
        if (report.runAheadStaged == 0)
            EXPECT_EQ(report.runAheadPeakStaged, 0u);
    });
}

TEST(RuntimeProperties, RunAheadNeverDelaysAFifoSingleInstance)
{
    // On a FIFO single instance without batching, deepening the
    // handoff buffer only lets the mapper start earlier: each map
    // finishes no later, so each backend start — max(previous backend
    // done, map done) under either depth — and with it every
    // completion timestamp is monotonically no later than at depth 1,
    // request by request.
    forEachSeed(4200, 4230, [](std::uint64_t seed) {
        Rng rng(seed);
        const RandomPhasedServiceModel model(seed);
        const auto spec = randomSpec(rng, seed);

        SchedulerConfig scfg;
        scfg.batcher.enabled = false;
        scfg.queueDepth = 1 << 20; // no drops
        scfg.occupancy = OccupancyModel::Pipelined;
        scfg.runAheadDepth = 1;
        FleetScheduler shallow({pointAccConfig()}, model, {1.0, 2.0},
                               scfg);
        scfg.runAheadDepth = 4;
        FleetScheduler deep({pointAccConfig()}, model, {1.0, 2.0},
                            scfg);

        const auto trace = WorkloadGenerator(spec).generate();
        const auto shallowReport = shallow.run(trace);
        const auto deepReport = deep.run(trace);
        SCOPED_TRACE("seed " + std::to_string(seed));
        ASSERT_EQ(deepReport.completed, shallowReport.completed);
        ASSERT_EQ(deepReport.completionCycles.size(),
                  shallowReport.completionCycles.size());
        for (std::size_t i = 0; i < deepReport.completionCycles.size();
             ++i)
            ASSERT_LE(deepReport.completionCycles[i],
                      shallowReport.completionCycles[i])
                << "request index " << i;
        EXPECT_LE(deepReport.horizonCycles,
                  shallowReport.horizonCycles);
    });
}

TEST(RuntimeProperties, CostAwareDispatchHoldsInvariants)
{
    // The cost-aware hold is a scheduling heuristic, not a semantics
    // change: whatever it decides, conservation and drain must hold
    // (the bounded hold deadline guarantees the queue always makes
    // progress), repeat runs must stay byte-identical, and the
    // hold-episode ledger stays within the queue bound.
    forEachSeed(4300, 4330, [](std::uint64_t seed) {
        Rng rng(seed * 0x9e3779b9ULL);
        const RandomPhasedServiceModel model(seed);
        const auto spec = randomSpec(rng, seed);
        auto scfg = randomConfig(rng);
        scfg.batcher.enabled = true;
        scfg.batcher.costAware = true;
        scfg.batcher.targetK =
            2 + static_cast<std::uint32_t>(rng.range(3));
        scfg.runAheadDepth =
            1 + static_cast<std::uint32_t>(rng.range(3));
        const auto fleet = randomFleet(rng);

        const auto trace = WorkloadGenerator(spec).generate();
        std::string dumps[2];
        ServingReport report;
        for (auto &dump : dumps) {
            FleetScheduler sched(fleet, model, {1.0, 2.0}, scfg);
            report = sched.run(trace);
            dump = servingJsonOf(report);
        }
        EXPECT_EQ(dumps[0], dumps[1])
            << "cost-aware run is not repeatable";
        EXPECT_EQ(report.generated, trace.size());
        checkInvariants(report, seed);
        EXPECT_TRUE(report.costAware);
        EXPECT_LE(report.holdTrackingPeak,
                  static_cast<std::uint64_t>(scfg.queueDepth));
    });
}

/** Replica of the seed's materializing generator (pre-streaming),
 *  kept in the test as the draw-order oracle for WorkloadStream. */
std::vector<Request>
seedReferenceTrace(const WorkloadSpec &spec)
{
    Rng rng(spec.seed);
    double totalWeight = 0.0;
    for (const auto &cls : spec.mix)
        totalWeight += cls.weight;
    const auto exponential = [](Rng &r, double mean) {
        double u = r.uniform();
        if (u > 1.0 - 1e-12)
            u = 1.0 - 1e-12;
        return -std::log(1.0 - u) * mean;
    };
    const auto pickClass = [&](Rng &r) {
        double x = r.uniform() * totalWeight;
        for (std::size_t i = 0; i < spec.mix.size(); ++i) {
            x -= spec.mix[i].weight;
            if (x <= 0.0)
                return i;
        }
        return spec.mix.size() - 1;
    };
    const bool bursty = spec.arrivals == ArrivalProcess::Bursty;
    const double perEvent =
        bursty ? static_cast<double>(spec.meanBurstSize) : 1.0;
    const double eventRatePerCycle =
        spec.requestsPerMCycle / 1e6 / perEvent;
    const double meanGap = 1.0 / eventRatePerCycle;

    std::vector<Request> out;
    double clock = 0.0;
    std::uint64_t id = 0;
    std::map<std::uint32_t, std::uint64_t> lastFrame;
    std::uint64_t nextCloudId = 1;
    while (true) {
        clock += exponential(rng, meanGap);
        const auto cycle = static_cast<std::uint64_t>(clock);
        if (cycle >= spec.horizonCycles)
            break;
        std::uint64_t count = 1;
        if (bursty && spec.meanBurstSize > 1)
            count = 1 + rng.range(2 * spec.meanBurstSize - 1);
        const auto &cls = spec.mix[pickClass(rng)];
        for (std::uint64_t i = 0; i < count; ++i) {
            Request r;
            r.id = id++;
            r.networkId = cls.networkId;
            r.sizeBucket = cls.sizeBucket;
            const auto last = lastFrame.find(cls.streamId);
            const bool repeat = cls.mapReuseProb > 0.0 &&
                                last != lastFrame.end() &&
                                rng.uniform() < cls.mapReuseProb;
            r.cloudId = repeat ? last->second : nextCloudId++;
            lastFrame[cls.streamId] = r.cloudId;
            r.arrivalCycle = cycle + i;
            if (cls.deadlineCycles > 0)
                r.deadlineCycle = r.arrivalCycle + cls.deadlineCycles;
            out.push_back(r);
        }
    }
    std::stable_sort(out.begin(), out.end(), arrivalOrderBefore);
    return out;
}

bool
sameRequest(const Request &a, const Request &b)
{
    return a.id == b.id && a.networkId == b.networkId &&
           a.sizeBucket == b.sizeBucket && a.cloudId == b.cloudId &&
           a.arrivalCycle == b.arrivalCycle &&
           a.deadlineCycle == b.deadlineCycle &&
           a.estimatedCycles == b.estimatedCycles;
}

TEST(RuntimeEquivalence, StreamingGeneratorMatchesSeedDrawForDraw)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed * 0x51ed2701ULL);
        const auto spec = randomSpec(rng, seed);
        const auto reference = seedReferenceTrace(spec);
        const auto streamed = WorkloadGenerator(spec).generate();
        SCOPED_TRACE("seed " + std::to_string(seed));
        ASSERT_EQ(streamed.size(), reference.size());
        for (std::size_t i = 0; i < streamed.size(); ++i)
            ASSERT_TRUE(sameRequest(streamed[i], reference[i]))
                << "trace diverged at index " << i;
    }
}

/** splitmix64's finalizer: a bijection on 64-bit values. */
std::uint64_t
mixId(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** One input shape for the queue differential below. */
struct QueueFuzzInput
{
    std::size_t depth = 48;
    int ops = 400;
    /** Arrivals drawn from [0, 4) in any order (heavy ties and sorted
     *  ring inserts) instead of a nondecreasing clock (the scheduler's
     *  in-order append path). */
    bool shuffledArrivals = true;
    /** Operations (out of 10) that push a new request; of the rest,
     *  one re-pushes, one pops, one peeks and the others form batches. */
    std::uint64_t pushWeight = 5;
    /** Every other run of this many operations (0 = never), network
     *  0's cloud-0 requests are held: they sit at the front of their
     *  class rings while followers behind them leave, which is what
     *  piles up interior tombstones. Head pops then go through the
     *  held-aware batch path. */
    int holdPhaseOps = 0;
    /** A quarter of the new requests also queue a hedge-style copy
     *  beside them: the original's id with bit 63 set, the way the
     *  scheduler duplicates a hedged request. */
    bool hedgeCopies = false;
    /** New ids are spread over the low 63 bits (a mix of a counter;
     *  bit 63 stays free for hedge copies) instead of dense from 0,
     *  so the queue's id table sees colliding probe starts. */
    bool sparseIds = false;
};

/**
 * Drive an indexed queue and the seed's linear queue under one policy
 * through a random mix of pushes, crash-retry re-pushes (an old id
 * with its original arrival), head pops, excluded head peeks and
 * batch formations, asserting pop-for-pop agreement. Batch formation
 * goes through the scheduler's sequence: peekEligible under a held
 * set, then popLedByBuckets with that set as `excluded`, against the
 * linear queue's popLedBy under the equivalent pairwise rule (same
 * network, allowed bucket, extra rule).
 */
void
fuzzQueuePair(QueuePolicy policy, std::uint64_t seed,
              const QueueFuzzInput &in)
{
    Rng rng(seed * 0x2545f491ULL + static_cast<std::uint64_t>(policy));
    AdmissionQueue indexed(in.depth, policy);
    LinearRequestQueue linear(in.depth);
    std::uint64_t nextId = 0;
    std::uint64_t clock = 0;
    std::vector<Request> left; // popped requests a retry may re-push

    const auto push = [&](const Request &r) {
        ASSERT_EQ(indexed.push(r), linear.push(r));
    };
    // A varying held set (members stay excluded for one operation
    // only, so nothing is starved) plus, during hold phases, a sticky
    // group that is excluded for the whole phase.
    bool holding = false;
    const auto heldSet = [&]() {
        const std::uint64_t salt = rng.range(3);
        return [salt, sticky = holding](const Request &r) {
            return (r.id + salt) % 3 == 0 ||
                   (sticky && r.networkId == 0 && r.cloudId == 0);
        };
    };

    for (int op = 0; op < in.ops; ++op) {
        SCOPED_TRACE(::testing::Message()
                     << toString(policy) << " seed " << seed << " op "
                     << op);
        holding = in.holdPhaseOps > 0 && (op / in.holdPhaseOps) % 2 == 1;
        const std::uint64_t kind = rng.range(10);
        if (kind < in.pushWeight || linear.empty()) {
            Request r;
            r.id = in.sparseIds ? mixId(nextId++) >> 1 : nextId++;
            clock += rng.range(2);
            r.arrivalCycle = in.shuffledArrivals ? rng.range(4) : clock;
            r.estimatedCycles = 100 * rng.range(3);
            r.deadlineCycle = rng.range(3) == 0 ? 0 : rng.range(3);
            r.networkId = static_cast<std::uint32_t>(rng.range(2));
            r.sizeBucket = static_cast<std::uint32_t>(rng.range(3));
            r.cloudId = rng.range(4);
            push(r);
            if (in.hedgeCopies && rng.range(4) == 0) {
                r.id |= 1ULL << 63;
                r.hedge = true;
                push(r);
            }
        } else if (kind == in.pushWeight && !left.empty()) {
            const std::size_t i = rng.range(left.size());
            push(left[i]);
            left.erase(left.begin() + static_cast<std::ptrdiff_t>(i));
        } else if (kind == in.pushWeight + 1 && !holding) {
            const Request *head = indexed.peekEligible(nullptr);
            ASSERT_NE(head, nullptr);
            const Request a =
                indexed.popLedByBuckets(*head, {}, nullptr, 1, nullptr)
                    .front();
            const Request b = linear.pop(policy);
            ASSERT_TRUE(sameRequest(a, b)) << "pop diverged";
            left.push_back(a);
        } else if (kind == in.pushWeight + 2) {
            const auto held = heldSet();
            const Request *a = indexed.peekEligible(held);
            const Request *b = linear.peekEligible(policy, held);
            ASSERT_EQ(a == nullptr, b == nullptr);
            if (a != nullptr)
                ASSERT_TRUE(sameRequest(*a, *b)) << "peek diverged";
        } else {
            const auto held = heldSet();
            const Request *a = indexed.peekEligible(held);
            const Request *b = linear.peekEligible(policy, held);
            ASSERT_EQ(a == nullptr, b == nullptr);
            if (a == nullptr)
                continue;
            ASSERT_TRUE(sameRequest(*a, *b)) << "batch head diverged";
            const Request head = *a;
            std::vector<std::uint32_t> buckets = {head.sizeBucket};
            for (std::uint32_t k = 0; k < 3; ++k)
                if (k != head.sizeBucket && rng.range(2) == 0)
                    buckets.push_back(k);
            const auto extra = [](const Request &x, const Request &y) {
                return x.cloudId == y.cloudId;
            };
            const auto compatible = [&](const Request &x,
                                        const Request &y) {
                return x.networkId == y.networkId &&
                       std::find(buckets.begin(), buckets.end(),
                                 y.sizeBucket) != buckets.end() &&
                       extra(x, y);
            };
            const std::size_t maxCount = 1 + rng.range(8);
            const auto got = indexed.popLedByBuckets(head, buckets, extra,
                                                     maxCount, held);
            const auto want =
                linear.popLedBy(head, policy, compatible, maxCount, held);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i)
                ASSERT_TRUE(sameRequest(got[i], want[i]))
                    << "batch diverged at index " << i;
            left.insert(left.end(), got.begin(), got.end());
        }
        ASSERT_EQ(indexed.size(), linear.size());
        ASSERT_EQ(indexed.admitted(), linear.admitted());
        ASSERT_EQ(indexed.dropped(), linear.dropped());
    }
}

TEST(RuntimeEquivalence, IndexedQueueMatchesLinearQueuePopForPop)
{
    // Shallow input: tiny arrival/estimate/deadline ranges tie on
    // every primary key and arrive out of order. Deep input: in-order
    // arrivals into a queue held near its 512 limit, long enough that
    // the FIFO class rings pass their compaction threshold (2 x live
    // + 64) with interior tombstones left by excluded followers, and
    // hedge-style ids (bit 63 set) queued beside their originals.
    // Sparse input: a shorter deep run whose ids spread over 63 bits,
    // so probe runs in the id table collide and shift back.
    QueueFuzzInput shallow;
    QueueFuzzInput deep;
    deep.depth = 512;
    deep.ops = 12000;
    deep.shuffledArrivals = false;
    deep.pushWeight = 6;
    deep.holdPhaseOps = 2000;
    deep.hedgeCopies = true;
    QueueFuzzInput sparse = deep;
    sparse.depth = 256;
    sparse.ops = 4000;
    sparse.sparseIds = true;
    for (const QueuePolicy policy :
         {QueuePolicy::Fifo, QueuePolicy::Sjf, QueuePolicy::Edf}) {
        for (std::uint64_t seed = 1; seed <= 40; ++seed)
            fuzzQueuePair(policy, seed, shallow);
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            fuzzQueuePair(policy, seed, deep);
            fuzzQueuePair(policy, seed, sparse);
        }
    }
}

/**
 * The map cache as it was before the victim-order index: a std::map
 * scanned end to end on every eviction, LFU ties broken by recency
 * and then insertion order. The frozen reference engine shares the
 * production MapCache, so the reference differential cannot see a
 * change of victim; this copy is the oracle for that.
 */
class ScanMapCache
{
  public:
    explicit ScanMapCache(MapCacheConfig config) : cfg(config) {}

    const MapCacheStats &stats() const { return counters; }

    bool contains(const MapCacheKey &key) const
    {
        return entries.count(key) > 0;
    }

    void
    recordHit(const MapCacheKey &key)
    {
        Node &n = entries.at(key);
        n.lastUse = ++tick;
        n.uses += 1;
        counters.hits += 1;
        counters.bytesSaved += n.entry.mapBytes;
    }

    void recordMiss() { counters.misses += 1; }

    void
    insert(const MapCacheKey &key, const MapCacheEntry &entry)
    {
        const auto it = entries.find(key);
        if (it != entries.end()) {
            it->second.entry = entry;
            it->second.lastUse = ++tick;
            return;
        }
        if (entries.size() >= cfg.capacityEntries)
            evictOne();
        Node node;
        node.entry = entry;
        node.lastUse = node.insertedAt = ++tick;
        entries.emplace(key, node);
        counters.insertions += 1;
    }

  private:
    struct Node
    {
        MapCacheEntry entry;
        std::uint64_t lastUse = 0;
        std::uint64_t uses = 0;
        std::uint64_t insertedAt = 0;
    };
    struct KeyLess
    {
        bool
        operator()(const MapCacheKey &a, const MapCacheKey &b) const
        {
            return std::tie(a.cloudId, a.networkId, a.layerHash) <
                   std::tie(b.cloudId, b.networkId, b.layerHash);
        }
    };

    void
    evictOne()
    {
        auto victim = entries.begin();
        for (auto it = std::next(entries.begin()); it != entries.end();
             ++it) {
            const Node &a = it->second;
            const Node &b = victim->second;
            const bool worse =
                cfg.eviction == MapCacheEviction::Lru
                    ? a.lastUse < b.lastUse
                    : a.uses != b.uses ? a.uses < b.uses
                      : a.lastUse != b.lastUse
                          ? a.lastUse < b.lastUse
                          : a.insertedAt < b.insertedAt;
            if (worse)
                victim = it;
        }
        entries.erase(victim);
        counters.evictions += 1;
    }

    MapCacheConfig cfg;
    std::map<MapCacheKey, Node, KeyLess> entries;
    MapCacheStats counters;
    std::uint64_t tick = 0;
};

bool
sameStats(const MapCacheStats &a, const MapCacheStats &b)
{
    return a.hits == b.hits && a.misses == b.misses &&
           a.insertions == b.insertions && a.evictions == b.evictions &&
           a.bytesSaved == b.bytesSaved && a.cyclesSaved == b.cyclesSaved;
}

TEST(RuntimeEquivalence, MapCacheEvictsLikeTheScanCache)
{
    // Random op sequences over a key universe about 1.5x the capacity
    // (two networks per cloud), so inserts evict often and LFU use
    // counts tie often. After every op both caches must hold the same
    // keys and the same counters.
    for (const MapCacheEviction policy :
         {MapCacheEviction::Lru, MapCacheEviction::Lfu}) {
        for (std::size_t capacity = 1; capacity <= 64; ++capacity) {
            SCOPED_TRACE(::testing::Message()
                         << toString(policy) << " capacity " << capacity);
            MapCacheConfig mcfg;
            mcfg.enabled = true;
            mcfg.capacityEntries = capacity;
            mcfg.eviction = policy;
            MapCache indexed(mcfg);
            ScanMapCache scan(mcfg);
            Rng rng(capacity * 0x9e3779b9ULL +
                    static_cast<std::uint64_t>(policy));

            std::vector<MapCacheKey> universe;
            for (std::uint64_t cloud = 1; cloud <= capacity / 2 + 2;
                 ++cloud)
                for (std::uint32_t net = 0; net < 2; ++net)
                    universe.push_back(
                        MapCacheKey{cloud, net, 0xabcULL + net});
            for (std::size_t i = 0; i < capacity / 2; ++i)
                universe.push_back(MapCacheKey{100 + i, 0, 0xabcULL});
            // A random key that is (or is not) resident, if any is.
            const auto pick = [&](bool resident) -> const MapCacheKey * {
                const std::size_t start = rng.range(universe.size());
                for (std::size_t i = 0; i < universe.size(); ++i) {
                    const MapCacheKey &k =
                        universe[(start + i) % universe.size()];
                    if (scan.contains(k) == resident)
                        return &k;
                }
                return nullptr;
            };

            for (int op = 0; op < 600; ++op) {
                const std::uint64_t kind = rng.range(8);
                const MapCacheEntry entry{rng.range(1000), rng.range(512)};
                if (kind < 3) { // insert a new key
                    if (const MapCacheKey *k = pick(false)) {
                        indexed.insert(*k, entry);
                        scan.insert(*k, entry);
                    }
                } else if (kind == 3) { // refresh a resident key
                    if (const MapCacheKey *k = pick(true)) {
                        indexed.insert(*k, entry);
                        scan.insert(*k, entry);
                    }
                } else if (kind < 6) {
                    if (const MapCacheKey *k = pick(true)) {
                        indexed.recordHit(*k);
                        scan.recordHit(*k);
                    }
                } else if (kind == 6) {
                    indexed.recordMiss();
                    scan.recordMiss();
                } else {
                    const MapCacheKey &k =
                        universe[rng.range(universe.size())];
                    ASSERT_EQ(indexed.contains(k), scan.contains(k));
                }
                for (const MapCacheKey &k : universe)
                    ASSERT_EQ(indexed.contains(k), scan.contains(k))
                        << "op " << op << " cloud " << k.cloudId
                        << " network " << k.networkId;
                ASSERT_TRUE(sameStats(indexed.stats(), scan.stats()))
                    << "op " << op;
                ASSERT_LE(indexed.size(), capacity);
            }
        }
    }
}

TEST(RuntimeEquivalence, StreamedRunMatchesVectorRun)
{
    // The scheduler's streaming entry point must serve the exact
    // report the materialized entry point serves.
    for (std::uint64_t seed = 70; seed < 90; ++seed) {
        Rng rng(seed);
        const RandomPhasedServiceModel model(seed);
        const auto spec = randomSpec(rng, seed);
        const auto scfg = randomConfig(rng);
        const auto fleet = randomFleet(rng);

        FleetScheduler sched(fleet, model, {1.0, 2.0}, scfg);
        const auto fromVector =
            sched.run(WorkloadGenerator(spec).generate());
        WorkloadStream stream = WorkloadGenerator(spec).stream();
        const auto fromStream = sched.run(stream);
        ASSERT_EQ(servingJsonOf(fromVector), servingJsonOf(fromStream))
            << "seed " << seed;
    }
}

TEST(RuntimeProperties, StreamBuffersOnlyInFlightRequests)
{
    // The streaming generator's footprint is the reorder heap; its
    // high-water mark depends on burst overlap, never on trace length.
    WorkloadSpec spec;
    spec.seed = 99;
    spec.requestsPerMCycle = 2'000.0;
    spec.horizonCycles = 50'000'000; // ~100k requests
    spec.arrivals = ArrivalProcess::Bursty;
    spec.meanBurstSize = 8;
    spec.mix = {{0, 0, 1.0, 0}, {1, 1, 1.0, 0}, {2, 0, 1.0, 0}};

    WorkloadStream stream = WorkloadGenerator(spec).stream();
    while (stream.peek() != nullptr)
        stream.take();
    EXPECT_GT(stream.emitted(), 50'000u);
    EXPECT_LT(stream.peakBuffered(), 4'096u);
    EXPECT_LT(stream.peakBuffered(), stream.emitted() / 20);
}

// ---------------------------------------------------------------- //
//                        Capacity planner                           //
// ---------------------------------------------------------------- //

/** Rebuild the SchedulerConfig a PlanProbe describes (the mirror of
 *  the planner's combo-to-config mapping, kept here so a drift between
 *  the two would fail the re-simulation invariant loudly). */
SchedulerConfig
configOfProbe(const PlanSearchSpace &space, const PlanProbe &probe)
{
    SchedulerConfig scfg = space.base;
    scfg.policy = probe.policy;
    scfg.batcher.enabled = probe.batching;
    scfg.batcher.targetK = probe.targetK;
    scfg.batcher.maxWaitCycles = probe.maxWaitCycles;
    scfg.mapCache.enabled = probe.mapCacheOn;
    return scfg;
}

TEST(PlannerProperties, SeededWorkloadsHoldAllFourInvariants)
{
    // ~60 seeded (workload, search space, SLO) scenarios. The SLO is
    // calibrated off the best fleet's p99 and randomly tightened or
    // loosened, so the sweep mixes comfortably-feasible, tight and
    // infeasible plans.
    forEachSeed(500, 560, [](std::uint64_t seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x9e3779b97f4a7c15ULL);
        const RandomPhasedServiceModel model(seed);
        const auto spec = randomSpec(rng, seed);

        PlanSearchSpace space;
        space.minFleetSize = 1;
        space.maxFleetSize = 4 + rng.range(5); // 4..8
        space.policies = {QueuePolicy::Fifo};
        if (rng.range(2) == 0)
            space.policies.push_back(QueuePolicy::Sjf);
        space.batchers = {BatcherAxisPoint{}};
        if (rng.range(2) == 0)
            space.batchers.push_back(
                BatcherAxisPoint{true, 1 + static_cast<std::uint32_t>(
                                           rng.range(3)),
                                 rng.range(200'000)});
        space.mapCacheOptions = {false};
        if (rng.range(2) == 0)
            space.mapCacheOptions.push_back(true);
        space.base.queueDepth = 64 + rng.range(200);
        space.base.mapCache.capacityEntries = 1 + rng.range(64);
        space.base.mapCache.hitReadCycles = rng.range(40'000);

        const CapacityPlanner planner(pointAccConfig(), model,
                                      {1.0, 2.0});
        const auto trace = WorkloadGenerator(spec).generate();
        const auto atMax =
            planner.probe(space.maxFleetSize, space.base, trace);
        SloSpec slo;
        slo.maxP99Cycles = 1 + static_cast<std::uint64_t>(
                                   atMax.p99Cycles() *
                                   rng.uniform(0.8, 3.0));
        if (rng.range(3) == 0)
            slo.minThroughputRps =
                atMax.throughputRps() * rng.uniform(0.5, 1.1);

        const auto report = planner.plan(spec, slo, space);

        // (d) probe accounting: never more than the exhaustive grid,
        // and the log is the spend.
        EXPECT_LE(report.probesSpent, report.exhaustiveProbes);
        EXPECT_EQ(report.probesSpent, report.probes.size());
        EXPECT_EQ(report.exhaustiveProbes, space.gridSize());

        // (c) determinism: a second plan is byte-identical.
        const auto again = planner.plan(spec, slo, space);
        std::ostringstream first, second;
        writePlanJson(first, report);
        writePlanJson(second, again);
        ASSERT_EQ(first.str(), second.str());

        if (!report.feasible) {
            EXPECT_EQ(report.chosen.fleetSize, 0u);
            return;
        }

        // (a) the chosen config actually meets the SLO when re-built
        // from the report and re-simulated from scratch.
        const auto rerun =
            planner.probe(report.chosen.fleetSize,
                          configOfProbe(space, report.chosen), trace);
        EXPECT_TRUE(meetsSlo(rerun, slo));
        EXPECT_EQ(rerun.p99Cycles(), report.chosen.p99Cycles);
        EXPECT_EQ(rerun.throughputRps(), report.chosen.throughputRps);

        // (b) no cheaper fleet size anywhere in the probe log met the
        // SLO — the pick is minimal over everything actually measured.
        for (const auto &p : report.probes)
            EXPECT_FALSE(p.fleetSize < report.chosen.fleetSize &&
                         p.meetsSlo)
                << "cheaper passing probe at fleet " << p.fleetSize;
    });
}

/** A planner that counts the simulations it runs, so the parallel
 *  pins can check that a plan simulates exactly the probes it logs.
 *  The count is atomic: concurrent (combo, ray) searches call both
 *  hooks from worker threads. */
class CountingPlanner : public CapacityPlanner
{
  public:
    using CapacityPlanner::CapacityPlanner;

    ServingReport
    probe(std::size_t fleet_size, const SchedulerConfig &scfg,
          const std::vector<Request> &trace) const override
    {
        ++simulations;
        return CapacityPlanner::probe(fleet_size, scfg, trace);
    }

    ServingReport
    probeComposition(const PlanSearchSpace &space,
                     const std::vector<std::size_t> &composition,
                     const SchedulerConfig &scfg,
                     const std::vector<Request> &trace) const override
    {
        ++simulations;
        return CapacityPlanner::probeComposition(space, composition, scfg,
                                                 trace);
    }

    mutable std::atomic<std::uint64_t> simulations{0};
};

TEST(PlannerProperties, ParallelPlanIsByteIdenticalToSerial)
{
    // A parallel plan runs each (combo, ray) search as one task, and
    // each search logs its own probes; the logs are joined in
    // (combo, ray) order. So a threads=3 plan must serialize
    // byte-identically to the threads=1 reference — probe log, spend,
    // pick, feasibility, everything writePlanJson emits — and must
    // simulate exactly the probesSpent probes it logs, across >= 20
    // seeded (workload, search space, SLO) scenarios. Deliberately a
    // plain serial seed loop: each iteration already runs a 3-worker
    // pool inside.
    for (std::uint64_t seed = 800; seed < 824; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x9e3779b97f4a7c15ULL);
        const RandomPhasedServiceModel model(seed);
        const auto spec = randomSpec(rng, seed);

        PlanSearchSpace space;
        space.minFleetSize = 1;
        space.maxFleetSize = 4 + rng.range(5); // 4..8
        space.policies = {QueuePolicy::Fifo};
        if (rng.range(2) == 0)
            space.policies.push_back(QueuePolicy::Sjf);
        space.batchers = {BatcherAxisPoint{}};
        if (rng.range(2) == 0)
            space.batchers.push_back(
                BatcherAxisPoint{true, 1 + static_cast<std::uint32_t>(
                                           rng.range(3)),
                                 rng.range(200'000)});
        space.mapCacheOptions = {false};
        if (rng.range(2) == 0)
            space.mapCacheOptions.push_back(true);
        space.base.queueDepth = 64 + rng.range(200);
        space.base.mapCache.capacityEntries = 1 + rng.range(64);
        space.base.mapCache.hitReadCycles = rng.range(40'000);

        PlannerConfig parallelCfg;
        parallelCfg.threads = 3;
        const CapacityPlanner serial(pointAccConfig(), model,
                                     {1.0, 2.0});
        const CountingPlanner parallel(pointAccConfig(), model,
                                       {1.0, 2.0}, parallelCfg);

        const auto trace = WorkloadGenerator(spec).generate();
        const auto atMax =
            serial.probe(space.maxFleetSize, space.base, trace);
        SloSpec slo;
        slo.maxP99Cycles = 1 + static_cast<std::uint64_t>(
                                   atMax.p99Cycles() *
                                   rng.uniform(0.8, 3.0));
        if (rng.range(3) == 0)
            slo.minThroughputRps =
                atMax.throughputRps() * rng.uniform(0.5, 1.1);

        std::ostringstream serialJson, parallelJson;
        writePlanJson(serialJson, serial.plan(spec, slo, space));
        parallel.simulations = 0;
        const PlanReport parallelPlan = parallel.plan(spec, slo, space);
        EXPECT_EQ(parallel.simulations.load(), parallelPlan.probesSpent)
            << "parallel plan ran probes it did not log";
        writePlanJson(parallelJson, parallelPlan);
        EXPECT_EQ(serialJson.str(), parallelJson.str())
            << "parallel plan diverged from serial";

        // The exhaustive grid is the widest fan-out the planner has;
        // check it on a quarter of the seeds to keep the suite fast.
        if (seed % 4 == 0) {
            std::ostringstream serialEx, parallelEx;
            writePlanJson(serialEx,
                          serial.planExhaustive(spec, slo, space));
            parallel.simulations = 0;
            const PlanReport parallelGrid =
                parallel.planExhaustive(spec, slo, space);
            EXPECT_EQ(parallel.simulations.load(), parallelGrid.probesSpent)
                << "parallel exhaustive plan ran probes it did not log";
            writePlanJson(parallelEx, parallelGrid);
            EXPECT_EQ(serialEx.str(), parallelEx.str())
                << "parallel exhaustive plan diverged from serial";
        }
    }
}

TEST(RuntimeEquivalence, PlannerProbeMatchesSeedEngineByteForByte)
{
    // The planner prices configurations through probe() — a new call
    // path into the production engine. Extend the PR-4 equivalence
    // harness to it: on small configs spanning the policy, batching
    // and cache axes, the probe's serving JSON must match the
    // preserved seed engine byte for byte.
    const RandomPhasedServiceModel model(11);
    const CapacityPlanner planner(pointAccConfig(), model, {1.0, 2.0});
    Rng rng(0xfeedULL);
    const auto spec = randomSpec(rng, 11);
    const auto trace = WorkloadGenerator(spec).generate();

    struct Case
    {
        std::size_t fleetSize;
        SchedulerConfig scfg;
    };
    std::vector<Case> cases(3);
    cases[0].fleetSize = 1;
    cases[1].fleetSize = 2;
    cases[1].scfg.policy = QueuePolicy::Sjf;
    cases[1].scfg.batcher.enabled = true;
    cases[2].fleetSize = 3;
    cases[2].scfg.policy = QueuePolicy::Edf;
    cases[2].scfg.mapCache.enabled = true;
    cases[2].scfg.mapCache.capacityEntries = 32;
    cases[2].scfg.mapCache.hitReadCycles = 4'000;

    for (const auto &c : cases) {
        SCOPED_TRACE("fleet " + std::to_string(c.fleetSize));
        const auto viaPlanner = planner.probe(c.fleetSize, c.scfg, trace);
        const std::vector<AcceleratorConfig> fleet(c.fleetSize,
                                                   pointAccConfig());
        const auto reference = runServingReference(
            fleet, model, {1.0, 2.0}, c.scfg, trace);
        ASSERT_EQ(servingJsonOf(viaPlanner), servingJsonOf(reference));
    }
}

// ---------------------------------------------------------------- //
//              Heterogeneous composition lattice                    //
// ---------------------------------------------------------------- //

/** Unit objective cost of one instance of space.kinds[k] — the test's
 *  independent mirror of the planner's pricing rule, so a drift
 *  between the two fails the cost cross-check loudly. */
double
kindUnitCost(const PlanSearchSpace &space, std::size_t k)
{
    const InstanceKindSpec &kind = space.kinds[k];
    switch (space.objective) {
    case PlanObjective::Instances:
        return 1.0;
    case PlanObjective::Watts:
        return kind.watts > 0.0 ? kind.watts : nominalWatts(kind.config);
    case PlanObjective::Price:
        return kind.price;
    }
    return 1.0;
}

double
compositionCost(const PlanSearchSpace &space,
                const std::vector<std::size_t> &composition)
{
    double cost = 0.0;
    for (std::size_t k = 0; k < composition.size(); ++k)
        cost +=
            static_cast<double>(composition[k]) * kindUnitCost(space, k);
    return cost;
}

/** Seeded two-kind lattice: a (sometimes overclocked) server kind
 *  plus the Table 3 edge kind, a random objective, and a watt/price
 *  budget on roughly half the seeds. */
PlanSearchSpace
randomLatticeSpace(Rng &rng)
{
    PlanSearchSpace space;
    InstanceKindSpec server;
    server.config = pointAccConfig();
    if (rng.range(2) == 0) {
        // Distinct name: profile memos key on the class name, and a
        // 2 GHz server is a different serving class than a 1 GHz one.
        server.config.name = "PointAcc@2GHz";
        server.config.freqGHz = 2.0;
    }
    server.maxCount = 2 + rng.range(4); // 2..5
    InstanceKindSpec edge;
    edge.config = pointAccEdgeConfig();
    edge.minCount = rng.range(3) == 0 ? 1 : 0;
    edge.maxCount = 1 + rng.range(3); // 1..3
    space.kinds = {server, edge};

    const std::uint64_t obj = rng.range(3);
    space.objective = obj == 0   ? PlanObjective::Instances
                      : obj == 1 ? PlanObjective::Watts
                                 : PlanObjective::Price;
    if (space.objective == PlanObjective::Price) {
        space.kinds[0].price = rng.uniform(4.0, 12.0);
        space.kinds[1].price = rng.uniform(0.5, 3.0);
    }
    if (rng.range(2) == 0) {
        // A budget between "one server plus the mandatory edges" and
        // the full lattice keeps at least one composition affordable
        // while usually pruning the expensive corner.
        const double full = compositionCost(
            space,
            {space.kinds[0].maxCount, space.kinds[1].maxCount});
        const double floor =
            kindUnitCost(space, 0) +
            static_cast<double>(space.kinds[1].minCount) *
                kindUnitCost(space, 1);
        space.maxCostBudget =
            std::max(floor, full * rng.uniform(0.4, 1.0));
    }

    space.policies = {QueuePolicy::Fifo};
    if (rng.range(2) == 0)
        space.policies.push_back(QueuePolicy::Sjf);
    space.batchers = {BatcherAxisPoint{}};
    space.mapCacheOptions = {false};
    if (rng.range(2) == 0)
        space.mapCacheOptions.push_back(true);
    space.base.queueDepth = 64 + rng.range(200);
    space.base.mapCache.capacityEntries = 1 + rng.range(64);
    space.base.mapCache.hitReadCycles = rng.range(40'000);
    return space;
}

TEST(PlannerProperties, HeteroLatticeSeedsHoldInvariants)
{
    // >= 24 seeded (workload, two-kind lattice, objective, budget,
    // SLO) scenarios over the composition lattice — the hetero
    // analogue of SeededWorkloadsHoldAllFourInvariants, plus the
    // lattice-only contracts: compositions stay inside their kind
    // ranges and the budget, and every probe's cost matches the
    // test's own mirror of the objective pricing rule.
    forEachSeed(1200, 1228, [](std::uint64_t seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x9e3779b97f4a7c15ULL);
        const RandomPhasedServiceModel model(seed);
        const auto spec = randomSpec(rng, seed);
        const auto space = randomLatticeSpace(rng);

        const CapacityPlanner planner(pointAccConfig(), model,
                                      {1.0, 2.0});
        const auto trace = WorkloadGenerator(spec).generate();
        const auto atMax = planner.probeComposition(
            space,
            {space.kinds[0].maxCount, space.kinds[1].maxCount},
            space.base, trace);
        SloSpec slo;
        slo.maxP99Cycles = 1 + static_cast<std::uint64_t>(
                                   atMax.p99Cycles() *
                                   rng.uniform(0.8, 3.0));
        if (rng.range(3) == 0)
            slo.minThroughputRps =
                atMax.throughputRps() * rng.uniform(0.5, 1.1);

        const auto report = planner.plan(spec, slo, space);

        // Probe accounting: the ray gallop never spends more than
        // the exhaustive composition grid, and the log is the spend.
        EXPECT_LE(report.probesSpent, report.exhaustiveProbes);
        EXPECT_EQ(report.probesSpent, report.probes.size());
        EXPECT_EQ(report.exhaustiveProbes, space.gridSize());
        EXPECT_EQ(report.objective, space.objective);
        EXPECT_EQ(report.costBudget, space.maxCostBudget);

        // Lattice contracts, probe by probe.
        for (const auto &p : report.probes) {
            ASSERT_EQ(p.composition.size(), space.kinds.size());
            std::size_t total = 0;
            for (std::size_t k = 0; k < p.composition.size(); ++k) {
                EXPECT_GE(p.composition[k], space.kinds[k].minCount);
                EXPECT_LE(p.composition[k], space.kinds[k].maxCount);
                total += p.composition[k];
            }
            EXPECT_GE(total, 1u);
            EXPECT_EQ(p.fleetSize, total);
            EXPECT_DOUBLE_EQ(p.cost,
                             compositionCost(space, p.composition));
            if (space.maxCostBudget > 0.0)
                EXPECT_LE(p.cost, space.maxCostBudget + 1e-9);
        }

        // Determinism: a second plan is byte-identical.
        const auto again = planner.plan(spec, slo, space);
        std::ostringstream first, second;
        writePlanJson(first, report);
        writePlanJson(second, again);
        ASSERT_EQ(first.str(), second.str());

        if (!report.feasible) {
            EXPECT_EQ(report.chosen.fleetSize, 0u);
            return;
        }

        // The chosen composition actually meets the SLO when re-built
        // from the report and re-simulated from scratch.
        const auto rerun = planner.probeComposition(
            space, report.chosen.composition,
            configOfProbe(space, report.chosen), trace);
        EXPECT_TRUE(meetsSlo(rerun, slo));
        EXPECT_EQ(rerun.p99Cycles(), report.chosen.p99Cycles);
        EXPECT_EQ(rerun.throughputRps(), report.chosen.throughputRps);

        // No cheaper-cost passing composition anywhere in the probe
        // log — and at equal cost, none fielding fewer instances.
        for (const auto &p : report.probes) {
            EXPECT_FALSE(p.meetsSlo && p.cost < report.chosen.cost)
                << "cheaper passing composition at cost " << p.cost;
            EXPECT_FALSE(p.meetsSlo && p.cost == report.chosen.cost &&
                         p.fleetSize < report.chosen.fleetSize)
                << "equal-cost smaller passing fleet " << p.fleetSize;
        }
    });
}

TEST(PlannerProperties, HeteroParallelPlanIsByteIdenticalToSerial)
{
    // Same per-(combo, ray) search argument as the homogeneous pin,
    // on the composition lattice: a threads=4 plan over a two-kind
    // space must serialize byte-identically to the serial plan and
    // simulate exactly the probes it logs, across >= 24 seeded
    // scenarios. Deliberately a plain serial seed loop: each
    // iteration runs a 4-worker pool inside.
    for (std::uint64_t seed = 1300; seed < 1324; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x9e3779b97f4a7c15ULL);
        const RandomPhasedServiceModel model(seed);
        const auto spec = randomSpec(rng, seed);
        const auto space = randomLatticeSpace(rng);

        PlannerConfig parallelCfg;
        parallelCfg.threads = 4;
        const CapacityPlanner serial(pointAccConfig(), model,
                                     {1.0, 2.0});
        const CountingPlanner parallel(pointAccConfig(), model,
                                       {1.0, 2.0}, parallelCfg);

        const auto trace = WorkloadGenerator(spec).generate();
        const auto atMax = serial.probeComposition(
            space,
            {space.kinds[0].maxCount, space.kinds[1].maxCount},
            space.base, trace);
        SloSpec slo;
        slo.maxP99Cycles = 1 + static_cast<std::uint64_t>(
                                   atMax.p99Cycles() *
                                   rng.uniform(0.8, 3.0));
        if (rng.range(3) == 0)
            slo.minThroughputRps =
                atMax.throughputRps() * rng.uniform(0.5, 1.1);

        std::ostringstream serialJson, parallelJson;
        writePlanJson(serialJson, serial.plan(spec, slo, space));
        parallel.simulations = 0;
        const PlanReport parallelPlan = parallel.plan(spec, slo, space);
        EXPECT_EQ(parallel.simulations.load(), parallelPlan.probesSpent)
            << "parallel plan ran probes it did not log";
        writePlanJson(parallelJson, parallelPlan);
        EXPECT_EQ(serialJson.str(), parallelJson.str())
            << "parallel lattice plan diverged from serial";

        // Exhaustive lattice fan-out, checked on a quarter of the
        // seeds to keep the suite fast.
        if (seed % 4 == 0) {
            std::ostringstream serialEx, parallelEx;
            writePlanJson(serialEx,
                          serial.planExhaustive(spec, slo, space));
            parallel.simulations = 0;
            const PlanReport parallelGrid =
                parallel.planExhaustive(spec, slo, space);
            EXPECT_EQ(parallel.simulations.load(), parallelGrid.probesSpent)
                << "parallel exhaustive plan ran probes it did not log";
            writePlanJson(parallelEx, parallelGrid);
            EXPECT_EQ(serialEx.str(), parallelEx.str())
                << "parallel exhaustive lattice plan diverged";
        }
    }
}

// ---------------------------------------------------------------- //
//                 Traffic programs & autoscaling                    //
// ---------------------------------------------------------------- //

TEST(TrafficProperties, SegmentArrivalCountsMatchAnalyticRates)
{
    // MMPP conservation: over 60 seeds, the arrivals landing inside
    // each piecewise-rate segment match rate * length / 1e6 within
    // sampling tolerance. Segment counts of a piecewise-constant-rate
    // Poisson process are exactly Poisson(rate * length), so a
    // 6-sigma band keeps ~180 checks deterministic-in-practice while
    // catching a rate applied to the wrong segment (a >= 2x error
    // under these programs).
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x7f4a7c15ULL);
        TrafficProgram program;
        program.base.seed = seed;
        program.base.horizonCycles = 6'000'000;
        program.base.requestsPerMCycle = rng.uniform(20.0, 60.0);
        program.base.mix = {{0, 0, 1.0, 0}};
        const double mid =
            rng.uniform(2.5, 4.0) * program.base.requestsPerMCycle;
        const double late =
            rng.uniform(0.2, 0.6) * program.base.requestsPerMCycle;
        program.phases = {{2'000'000, mid}, {4'000'000, late}};

        const auto trace = materialize(program);
        std::array<double, 3> counts{};
        for (const auto &r : trace)
            counts[r.arrivalCycle < 2'000'000   ? 0
                   : r.arrivalCycle < 4'000'000 ? 1
                                                : 2] += 1.0;
        const std::array<double, 3> rates = {
            program.base.requestsPerMCycle, mid, late};
        for (std::size_t s = 0; s < 3; ++s) {
            const double expected = rates[s] * 2'000'000 / 1e6;
            EXPECT_NEAR(counts[s], expected,
                        6.0 * std::sqrt(expected) + 6.0)
                << "segment " << s;
        }
    }
}

TEST(TrafficProperties, StationaryProgramMatchesWorkloadStream)
{
    // The anchor property: a program with no phases and no churn is
    // the stationary stream — draw for draw, across the fuzzed spec
    // space (both arrival processes, deadlines, reuse streams).
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed * 0x51ed2701ULL);
        const auto spec = randomSpec(rng, seed);
        TrafficProgram program;
        program.base = spec;
        const auto viaTraffic = materialize(program);
        const auto viaWorkload = WorkloadGenerator(spec).generate();
        SCOPED_TRACE("seed " + std::to_string(seed));
        ASSERT_EQ(viaTraffic.size(), viaWorkload.size());
        for (std::size_t i = 0; i < viaTraffic.size(); ++i)
            ASSERT_TRUE(sameRequest(viaTraffic[i], viaWorkload[i]))
                << "trace diverged at index " << i;
    }
}

TEST(TrafficProperties, ChurnRetiresStreamFrameHistory)
{
    // mapReuseProb = 1 on a single stream: without churn one cloudId
    // repeats across the whole trace; with churn every crossed epoch
    // boundary forces the next frame fresh.
    TrafficProgram program;
    program.base.seed = 5;
    program.base.requestsPerMCycle = 40.0;
    program.base.horizonCycles = 4'000'000;
    program.base.mix = {{0, 0, 1.0, 0, 0, 1.0}};

    TrafficTelemetry plain;
    const auto noChurn = materialize(program, &plain);
    ASSERT_FALSE(noChurn.empty());
    std::set<std::uint64_t> plainIds;
    for (const auto &r : noChurn)
        plainIds.insert(r.cloudId);
    EXPECT_EQ(plainIds.size(), 1u);
    EXPECT_TRUE(plain.present);
    EXPECT_EQ(plain.segments, 1u);
    EXPECT_DOUBLE_EQ(plain.basePerMCycle, plain.peakPerMCycle);
    EXPECT_EQ(plain.churnEvents, 0u);

    program.churn.intervalCycles = 1'000'000;
    TrafficTelemetry churned;
    const auto withChurn = materialize(program, &churned);
    EXPECT_EQ(churned.churnIntervalCycles, 1'000'000u);
    EXPECT_GT(churned.churnEvents, 0u);
    std::set<std::uint64_t> churnedIds;
    for (const auto &r : withChurn)
        churnedIds.insert(r.cloudId);
    // One fresh frame per crossed boundary at most (an empty epoch
    // crosses a boundary without minting a cloudId), and at least one
    // beyond the original single frame.
    EXPECT_GE(churnedIds.size(), 2u);
    EXPECT_LE(churnedIds.size(), churned.churnEvents + 1);
}

TEST(TrafficProperties, ScheduleRoundTripIsExactAndServesIdentically)
{
    // writeSchedule -> readSchedule must reproduce the request vector
    // field for field, and the replayed schedule must serve to a
    // byte-identical report.
    for (std::uint64_t seed = 40; seed < 52; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x9e3779b9ULL);
        TrafficProgram program;
        program.base = randomSpec(rng, seed);
        program.phases = {
            {program.base.horizonCycles / 3,
             rng.uniform(1.5, 4.0) * program.base.requestsPerMCycle},
            {2 * program.base.horizonCycles / 3,
             program.base.requestsPerMCycle}};
        if (rng.range(2) == 0)
            program.churn.intervalCycles =
                100'000 + rng.range(program.base.horizonCycles / 3);

        const auto trace = materialize(program);
        std::stringstream file;
        writeSchedule(file, trace);
        const auto replayed = readSchedule(file);
        ASSERT_EQ(replayed.size(), trace.size());
        for (std::size_t i = 0; i < trace.size(); ++i)
            ASSERT_TRUE(sameRequest(trace[i], replayed[i]))
                << "round trip diverged at index " << i;

        const RandomPhasedServiceModel model(seed);
        const auto scfg = randomConfig(rng);
        FleetScheduler sched({pointAccConfig(), pointAccEdgeConfig()},
                             model, {1.0, 2.0}, scfg);
        ASSERT_EQ(servingJsonOf(sched.run(trace)),
                  servingJsonOf(sched.run(replayed)));
    }
}

TEST(TrafficProperties, MalformedSchedulesThrow)
{
    const auto parse = [](const std::string &text) {
        std::istringstream is(text);
        return readSchedule(is);
    };
    EXPECT_THROW(parse(""), std::invalid_argument);
    EXPECT_THROW(parse("wrong-magic v1 1\n"), std::invalid_argument);
    EXPECT_THROW(parse("pointacc-schedule v9 0\n"),
                 std::invalid_argument);
    EXPECT_THROW(parse("pointacc-schedule v1 2\n"
                       "0 0 0 1 100 0\n"),
                 std::invalid_argument); // truncated
    EXPECT_THROW(parse("pointacc-schedule v1 1\n"
                       "0 0 0 1 abc 0\n"),
                 std::invalid_argument); // garbage field
    EXPECT_THROW(parse("pointacc-schedule v1 2\n"
                       "0 0 0 1 500 0\n"
                       "1 0 0 2 100 0\n"),
                 std::invalid_argument); // out of arrival order

    const auto ok = parse("pointacc-schedule v1 1\n"
                          "7 1 0 9 100 600\n");
    ASSERT_EQ(ok.size(), 1u);
    EXPECT_EQ(ok[0].id, 7u);
    EXPECT_EQ(ok[0].networkId, 1u);
    EXPECT_EQ(ok[0].sizeBucket, 0u);
    EXPECT_EQ(ok[0].cloudId, 9u);
    EXPECT_EQ(ok[0].arrivalCycle, 100u);
    EXPECT_EQ(ok[0].deadlineCycle, 600u);
}

TEST(AutoscalerProperties, ScaledRunsConserveAndAreByteIdentical)
{
    // Fuzz the closed loop: random traffic programs (flash phase +
    // optional churn) over random fleets and scheduler configs with
    // the autoscaler enabled. Every run must keep the serving
    // invariants, the autoscaler's own accounting must balance, and
    // repeats — streaming or materialized — must be byte-identical.
    for (std::uint64_t seed = 600; seed < 625; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x9e3779b9ULL);
        const RandomPhasedServiceModel model(seed);
        TrafficProgram program;
        program.base = randomSpec(rng, seed);
        program.phases = {
            {program.base.horizonCycles / 4,
             rng.uniform(2.0, 5.0) * program.base.requestsPerMCycle},
            {program.base.horizonCycles / 2,
             program.base.requestsPerMCycle}};
        if (rng.range(2) == 0)
            program.churn.intervalCycles =
                50'000 + rng.range(program.base.horizonCycles / 4);

        auto scfg = randomConfig(rng);
        const auto fleet = randomFleet(rng);
        scfg.autoscaler.enabled = true;
        scfg.autoscaler.minInstances = 1;
        scfg.autoscaler.initialInstances =
            1 + static_cast<std::uint32_t>(rng.range(fleet.size()));
        scfg.autoscaler.evalIntervalCycles = 20'000 + rng.range(150'000);
        scfg.autoscaler.queueHighDepth = 4 + rng.range(28);
        scfg.autoscaler.queueLowDepth = rng.range(4);
        scfg.autoscaler.p99HighCycles =
            rng.range(2) == 0 ? 100'000 + rng.range(400'000) : 0;
        scfg.autoscaler.spinUpCycles = rng.range(80'000);
        scfg.autoscaler.cooldownCycles = rng.range(150'000);

        FleetScheduler sched(fleet, model, {1.0, 2.0}, scfg);
        TrafficStream stream(program);
        const auto report = sched.run(stream);
        checkInvariants(report, seed);

        const auto &as = report.autoscaler;
        ASSERT_TRUE(as.enabled);
        EXPECT_EQ(as.evals, as.timeline.samples.size());
        std::uint64_t ups = 0, downs = 0;
        for (const auto &s : as.timeline.samples) {
            EXPECT_GE(s.provisioned, as.minInstances);
            EXPECT_LE(s.provisioned, as.maxInstances);
            ups += s.action > 0 ? 1 : 0;
            downs += s.action < 0 ? 1 : 0;
        }
        EXPECT_EQ(ups, as.scaleUps);
        EXPECT_EQ(downs, as.scaleDowns);
        EXPECT_LE(as.peakProvisioned,
                  static_cast<std::uint32_t>(fleet.size()));
        EXPECT_GE(as.finalProvisioned, as.minInstances);
        EXPECT_LE(as.instanceCycles,
                  fleet.size() * report.horizonCycles);

        // Byte-identical on a repeat, and streaming == materialized.
        TrafficStream again(program);
        ASSERT_EQ(servingJsonOf(report),
                  servingJsonOf(sched.run(again)));
        ASSERT_EQ(servingJsonOf(report),
                  servingJsonOf(sched.run(materialize(program))));

        if (HasFatalFailure())
            return;
    }
}

// ---------------------------------------------------------------- //
//                      Cross-feature product                        //
// ---------------------------------------------------------------- //

/** One feature-product scenario: a workload, a config with every
 *  feature drawn at once and a mixed-clock fleet. */
struct FeatureProduct
{
    WorkloadSpec spec;
    SchedulerConfig scfg;
    std::vector<AcceleratorConfig> fleet;
};

/** Draw a feature-product scenario: randomConfig plus run-ahead depths
 *  1-4 and cost-aware dispatch, and on half the seeds each a fault
 *  program with a retry policy and the autoscaler. The draw order is
 *  pinned by FeatureProductHoldsInvariantsAndDigest. */
FeatureProduct
drawFeatureProduct(Rng &rng, std::uint64_t seed)
{
    FeatureProduct fp;
    fp.spec = randomSpec(rng, seed);
    fp.scfg = randomConfig(rng);
    fp.fleet = randomMixedClockFleet(rng);
    SchedulerConfig &scfg = fp.scfg;
    const std::uint32_t size = static_cast<std::uint32_t>(fp.fleet.size());
    scfg.runAheadDepth = 1 + static_cast<std::uint32_t>(rng.range(4));
    scfg.batcher.costAware = rng.range(2) == 0;
    if (rng.range(2) == 0) {
        scfg.faults =
            randomFaultProgram(rng, fp.spec.horizonCycles, fp.fleet.size());
        scfg.retry = randomRetryPolicy(rng);
    }
    if (rng.range(2) == 0) {
        AutoscalerConfig &as = scfg.autoscaler;
        as.enabled = true;
        as.minInstances = 1 + static_cast<std::uint32_t>(rng.range(size));
        as.maxInstances =
            as.minInstances + static_cast<std::uint32_t>(rng.range(
                                  size - as.minInstances + 1));
        as.initialInstances =
            as.minInstances +
            static_cast<std::uint32_t>(
                rng.range(as.maxInstances - as.minInstances + 1));
        as.evalIntervalCycles = 20'000 + rng.range(150'000);
        as.queueHighDepth = 4 + rng.range(28);
        as.queueLowDepth = rng.range(4);
        as.p99HighCycles =
            rng.range(2) == 0 ? 100'000 + rng.range(400'000) : 0;
        as.spinUpCycles = rng.range(80'000);
        as.cooldownCycles = rng.range(150'000);
    }
    return fp;
}

TEST(CrossFeatureProperties, FeatureProductHoldsInvariantsAndDigest)
{
    // Every feature drawn at once, which no single-feature sweep does:
    // faults with retry/hedge, the autoscaler, run-ahead depths 1-4,
    // cost-aware dispatch, the map cache, FIFO/SJF/EDF and mixed
    // class/clock fleets. The frozen reference engine reaches none of
    // these, so each run is held to the extended conservation
    // identity, the staging bound and repeatability — and the serving
    // JSON of all seeds is pinned by one FNV-1a digest, so a change
    // to the event core that moves any byte shows up here. Re-pin it
    // only for a deliberate output change.
    constexpr std::uint64_t kFirstSeed = 5000;
    constexpr std::uint64_t kSeeds = 256;
    std::vector<std::string> dumps(kSeeds);
    forEachSeed(kFirstSeed, kFirstSeed + kSeeds, [&](std::uint64_t seed) {
        Rng rng(seed * 0x9e3779b9ULL);
        const RandomPhasedServiceModel model(seed);
        const FeatureProduct fp = drawFeatureProduct(rng, seed);
        const auto &spec = fp.spec;
        const auto &scfg = fp.scfg;
        const auto &fleet = fp.fleet;

        const auto trace = WorkloadGenerator(spec).generate();
        std::string runs[2];
        ServingReport report;
        for (auto &dump : runs) {
            FleetScheduler sched(fleet, model, {1.0, 2.0}, scfg);
            report = sched.run(trace);
            dump = servingJsonOf(report);
        }
        EXPECT_EQ(runs[0], runs[1])
            << "feature-product run is not repeatable, seed " << seed;
        EXPECT_EQ(report.generated, trace.size());
        checkFaultInvariants(report, seed);
        EXPECT_LE(report.runAheadPeakStaged,
                  static_cast<std::uint64_t>(scfg.runAheadDepth) - 1)
            << "seed " << seed;
        // Only a crash can strand requests: without one, every run
        // drains, scaled or not.
        if (report.faults.crashes == 0)
            EXPECT_EQ(report.leftoverQueued, 0u) << "seed " << seed;
        dumps[seed - kFirstSeed] = std::move(runs[0]);
    });

    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (const auto &dump : dumps) {
        for (const char c : dump) {
            digest ^= static_cast<std::uint8_t>(c);
            digest *= 0x100000001b3ULL;
        }
    }
    EXPECT_EQ(digest, 0x5fe6e32f379c0398ULL)
        << std::hex << "digest 0x" << digest;
}

TEST(CrossFeatureProperties, CrashedAtZeroInstanceIsAbsent)
{
    // An instance that crashes at t = 0 and never recovers takes no
    // dispatch, so the run must equal the run of the fleet without it,
    // sample for sample and counter for counter, whatever the config.
    // It sits at index k >= 1: instance 0 prices admission estimates.
    forEachSeed(7000, 7256, [&](std::uint64_t seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x9e3779b9ULL);
        const RandomPhasedServiceModel model(seed);
        const auto spec = randomSpec(rng, seed);
        const auto scfg = [&] {
            auto c = randomConfig(rng);
            c.runAheadDepth = 1 + static_cast<std::uint32_t>(rng.range(4));
            c.batcher.costAware = rng.range(2) == 0;
            return c;
        }();
        const auto fleet = randomMixedClockFleet(rng);
        const std::size_t k = 1 + rng.range(fleet.size());
        auto withDead = fleet;
        withDead.insert(withDead.begin() + static_cast<std::ptrdiff_t>(k),
                        randomMixedClockFleet(rng).front());
        auto deadCfg = scfg;
        deadCfg.faults.enabled = true;
        deadCfg.faults.crashes.push_back(
            CrashWindow{static_cast<std::uint32_t>(k), 0, 0});

        const auto trace = WorkloadGenerator(spec).generate();
        const auto base =
            FleetScheduler(fleet, model, {1.0, 2.0}, scfg).run(trace);
        const auto dead =
            FleetScheduler(withDead, model, {1.0, 2.0}, deadCfg).run(trace);

        // An empty trace leaves no work, so the t = 0 crash is dead.
        EXPECT_EQ(dead.faults.crashes, trace.empty() ? 0u : 1u);
        EXPECT_EQ(dead.faults.inflightFailed, 0u);
        EXPECT_EQ(dead.horizonCycles, base.horizonCycles);
        EXPECT_EQ(dead.completionCycles, base.completionCycles);
        EXPECT_EQ(dead.latencyCycles.data(), base.latencyCycles.data());
        // Queue wait and batch size keep only their moments. Both are
        // whole numbers, so their sums are exact and any one changed
        // value still shows.
        const auto moments = [](const Moments &m) {
            return std::vector<double>{static_cast<double>(m.count()),
                                       m.sum(), m.min(), m.max()};
        };
        EXPECT_EQ(moments(dead.queueWaitCycles),
                  moments(base.queueWaitCycles));
        EXPECT_EQ(moments(dead.batchSize), moments(base.batchSize));
        const auto counters = [](const ServingReport &r) {
            return std::vector<std::uint64_t>{
                r.generated, r.admitted, r.dropped, r.completed, r.failed,
                r.leftoverQueued, r.deadlineMisses, r.batchHolds,
                r.holdTrackingPeak, r.costHolds, r.costDispatches,
                r.runAheadStaged, r.runAheadPeakStaged, r.mapCache.hits,
                r.mapCache.misses, r.mapCache.insertions,
                r.mapCache.evictions, r.mapCache.bytesSaved,
                r.mapCache.cyclesSaved};
        };
        EXPECT_EQ(counters(dead), counters(base));
        const auto busy = [](const AcceleratorUsage &u) {
            return std::vector<std::uint64_t>{u.busyCycles, u.mapBusyCycles,
                                              u.backendBusyCycles, u.batches,
                                              u.requests};
        };
        ASSERT_EQ(dead.accelerators.size(), base.accelerators.size() + 1);
        for (std::size_t i = 0; i < base.accelerators.size(); ++i)
            EXPECT_EQ(busy(dead.accelerators[i < k ? i : i + 1]),
                      busy(base.accelerators[i]))
                << "instance " << i;
        EXPECT_EQ(busy(dead.accelerators[k]),
                  std::vector<std::uint64_t>(5, 0));
    });
}

TEST(CrossFeatureProperties, PinnedAutoscalerIsInert)
{
    // An autoscaler pinned at the whole fleet (floor = ceiling =
    // initial = fleet size) can never act, so apart from its own block
    // the report must be byte-identical to the unscaled run. Cost-aware
    // dispatch stays off: it counts cost_aware_holds once per dispatch
    // pass, and ScaleEval instants add passes.
    forEachSeed(8000, 8256, [&](std::uint64_t seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x9e3779b9ULL);
        const RandomPhasedServiceModel model(seed);
        const auto spec = randomSpec(rng, seed);
        auto scfg = randomConfig(rng);
        scfg.runAheadDepth = 1 + static_cast<std::uint32_t>(rng.range(4));
        const auto fleet = randomMixedClockFleet(rng);
        auto pinned = scfg;
        AutoscalerConfig &as = pinned.autoscaler;
        as.enabled = true;
        as.minInstances = as.maxInstances = as.initialInstances =
            static_cast<std::uint32_t>(fleet.size());
        as.evalIntervalCycles = 1 + rng.range(200'000);
        as.spinUpCycles = rng.range(80'000);

        const auto trace = WorkloadGenerator(spec).generate();
        const auto base =
            FleetScheduler(fleet, model, {1.0, 2.0}, scfg).run(trace);
        auto scaled =
            FleetScheduler(fleet, model, {1.0, 2.0}, pinned).run(trace);

        const AutoscalerStats stats = scaled.autoscaler;
        EXPECT_EQ(stats.scaleUps, 0u);
        EXPECT_EQ(stats.scaleDowns, 0u);
        for (const auto &s : stats.timeline.samples)
            EXPECT_EQ(s.action, 0);
        EXPECT_EQ(stats.instanceCycles, fleet.size() * base.horizonCycles);
        scaled.autoscaler = AutoscalerStats{};
        EXPECT_EQ(servingJsonOf(scaled), servingJsonOf(base));
    });
}

TEST(CrossFeatureProperties, UnreachableHoldIsInert)
{
    // Wait-for-K with neither a deadline (maxWaitCycles 0) nor a price
    // (cost-aware off) can never hold a head, so any targetK must serve
    // byte-identically to targetK 1, whatever else is on.
    forEachSeed(9000, 9256, [&](std::uint64_t seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x9e3779b9ULL);
        const RandomPhasedServiceModel model(seed);
        FeatureProduct fp = drawFeatureProduct(rng, seed);
        fp.scfg.batcher.costAware = false;
        fp.scfg.batcher.maxWaitCycles = 0;
        auto eager = fp.scfg;
        eager.batcher.targetK = 1;
        auto unreachable = fp.scfg;
        unreachable.batcher.targetK =
            2 + static_cast<std::uint32_t>(rng.range(7));

        const auto trace = WorkloadGenerator(fp.spec).generate();
        const auto base =
            FleetScheduler(fp.fleet, model, {1.0, 2.0}, eager).run(trace);
        const auto held =
            FleetScheduler(fp.fleet, model, {1.0, 2.0}, unreachable)
                .run(trace);
        EXPECT_EQ(held.batchHolds, 0u);
        EXPECT_EQ(servingJsonOf(held), servingJsonOf(base));
    });
}

TEST(CrossFeatureProperties, IdentitylessCacheIsInert)
{
    // With every cloudId 0 no request has a content identity: each
    // dispatched request is a miss that publishes nothing, so no hit
    // ever happens and, apart from its counters, a cache-on run must
    // be byte-identical to the cache-off run.
    forEachSeed(10000, 10256, [&](std::uint64_t seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x9e3779b9ULL);
        const RandomPhasedServiceModel model(seed);
        const FeatureProduct fp = drawFeatureProduct(rng, seed);
        auto off = fp.scfg;
        off.mapCache.enabled = false;
        auto on = fp.scfg;
        on.mapCache.enabled = true;

        auto trace = WorkloadGenerator(fp.spec).generate();
        for (auto &r : trace)
            r.cloudId = 0;
        const auto base =
            FleetScheduler(fp.fleet, model, {1.0, 2.0}, off).run(trace);
        auto cached =
            FleetScheduler(fp.fleet, model, {1.0, 2.0}, on).run(trace);

        std::uint64_t dispatched = 0;
        for (const auto &u : cached.accelerators)
            dispatched += u.requests;
        EXPECT_EQ(cached.mapCache.misses, dispatched);
        EXPECT_EQ(cached.mapCache.hits, 0u);
        EXPECT_EQ(cached.mapCache.insertions, 0u);
        cached.mapCache = MapCacheStats{};
        EXPECT_EQ(servingJsonOf(cached), servingJsonOf(base));
    });
}

// ---------------------------------------------------------------- //
//                   Bench row-order independence                    //
// ---------------------------------------------------------------- //

TEST(RuntimeProperties, BenchRowJsonIsIndependentOfRowOrder)
{
    // bench_serving runs many sweep rows in one process, sharing only
    // the SimServiceModel (whose memoized profiles are pure values);
    // workload generators, schedulers and reports are rebuilt per
    // row. Pin that contract: serving three scenario rows forward,
    // reversed, and against per-row fresh models must produce the
    // same per-scenario JSON — any state leaking between rows (stats
    // not reset, an RNG not reseeded, a poisoned profile cache) shows
    // up as an order-dependent row.
    ServingCatalog catalog;
    catalog.networks = {pointNet()};
    catalog.bucketScales = {0.03, 0.06};

    struct Scenario
    {
        WorkloadSpec spec;
        SchedulerConfig scfg;
        std::size_t fleetSize;
    };
    std::vector<Scenario> scenarios(3);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        auto &s = scenarios[i];
        s.spec.seed = 900 + i;
        s.spec.requestsPerMCycle = 20.0 + 10.0 * static_cast<double>(i);
        s.spec.horizonCycles = 1'500'000;
        s.spec.mix = {{0, 0, 2.0, 0, 0, 0.5}, {0, 1, 1.0, 0, 1, 0.0}};
        s.fleetSize = 1 + i % 2;
    }
    scenarios[0].scfg.policy = QueuePolicy::Fifo;
    scenarios[1].scfg.policy = QueuePolicy::Sjf;
    scenarios[1].scfg.batcher.enabled = true;
    scenarios[2].scfg.policy = QueuePolicy::Fifo;
    scenarios[2].scfg.mapCache.enabled = true;
    scenarios[2].scfg.mapCache.capacityEntries = 64;
    scenarios[2].scfg.mapCache.hitReadCycles = 2'000;

    const auto runRow = [&](const SimServiceModel &model,
                            const Scenario &s) {
        const std::vector<AcceleratorConfig> fleet(s.fleetSize,
                                                   pointAccConfig());
        FleetScheduler sched(fleet, model, catalog.bucketScales, s.scfg);
        return servingJsonOf(
            sched.run(WorkloadGenerator(s.spec).generate()));
    };

    std::vector<std::string> forward(3), reversed(3), isolated(3);
    {
        const SimServiceModel model(catalog);
        for (std::size_t i = 0; i < scenarios.size(); ++i)
            forward[i] = runRow(model, scenarios[i]);
    }
    {
        const SimServiceModel model(catalog);
        for (std::size_t i = scenarios.size(); i-- > 0;)
            reversed[i] = runRow(model, scenarios[i]);
    }
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const SimServiceModel model(catalog);
        isolated[i] = runRow(model, scenarios[i]);
    }
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        SCOPED_TRACE("scenario " + std::to_string(i));
        EXPECT_EQ(forward[i], reversed[i]);
        EXPECT_EQ(forward[i], isolated[i]);
    }
}

// ---------------------------------------------------------------- //
//                 Scale tier (run with --scale)                     //
// ---------------------------------------------------------------- //

#define POINTACC_REQUIRE_SCALE()                                        \
    do {                                                                \
        if (!scaleTierEnabled)                                          \
            GTEST_SKIP()                                                \
                << "scale tier disabled (run with --scale)";            \
    } while (0)

WorkloadSpec
scaleSpec(std::uint64_t target_requests)
{
    WorkloadSpec spec;
    spec.seed = 20260730;
    spec.requestsPerMCycle = 120.0;
    spec.horizonCycles = static_cast<std::uint64_t>(
        static_cast<double>(target_requests) * 1e6 /
        spec.requestsPerMCycle);
    spec.arrivals = ArrivalProcess::Bursty;
    spec.meanBurstSize = 4;
    spec.mix = {
        {0, 0, 4.0, 0},
        {1, 1, 2.0, 200'000},
        {2, 1, 1.0, 0},
    };
    return spec;
}

TEST(RuntimePropertiesScale, HundredThousandRequestsHoldInvariants)
{
    POINTACC_REQUIRE_SCALE();
    // 10^5 requests through each policy: conservation, stage
    // utilization <= 1, byte-identical determinism across runs, and
    // byte-identical equivalence with the seed engine (which subsumes
    // heap-vs-seed pop-order equivalence under ties at scale — FIFO,
    // SJF and EDF all rank-tie constantly inside bursts).
    const RandomPhasedServiceModel model(7);
    const auto spec = scaleSpec(100'000);
    const auto trace = WorkloadGenerator(spec).generate();

    for (const QueuePolicy policy :
         {QueuePolicy::Fifo, QueuePolicy::Sjf, QueuePolicy::Edf}) {
        SchedulerConfig scfg;
        scfg.policy = policy;
        scfg.batcher.enabled = true;
        scfg.batcher.maxBatchSize = 8;
        scfg.queueDepth = 512;
        const std::vector<AcceleratorConfig> fleet(4, pointAccConfig());

        FleetScheduler sched(fleet, model, {1.0, 2.0}, scfg);
        const auto report = sched.run(trace);
        SCOPED_TRACE(toString(policy));
        EXPECT_EQ(report.generated, trace.size());
        checkInvariants(report, 7);

        const auto again = sched.run(trace);
        ASSERT_EQ(servingJsonOf(report), servingJsonOf(again))
            << "nondeterministic at scale";

        const auto reference = runServingReference(
            fleet, model, {1.0, 2.0}, scfg, trace);
        ASSERT_EQ(servingJsonOf(report), servingJsonOf(reference))
            << "engines diverged at scale";
    }
}

TEST(RuntimePropertiesScale, WaitForKHoldTrackingStaysBounded)
{
    POINTACC_REQUIRE_SCALE();
    // Guard for the hold-episode ledger: 10^5 requests through a
    // wait-for-K batcher must keep the dedup set's peak within the
    // queue bound — dispatch erases what the hold path inserted, so
    // the set tracks live leaders, not trace length.
    const RandomPhasedServiceModel model(7);
    const auto spec = scaleSpec(100'000);
    const auto trace = WorkloadGenerator(spec).generate();

    SchedulerConfig scfg;
    scfg.batcher.enabled = true;
    scfg.batcher.maxBatchSize = 8;
    scfg.batcher.targetK = 4;
    scfg.batcher.maxWaitCycles = 50'000;
    scfg.queueDepth = 512;
    const std::vector<AcceleratorConfig> fleet(4, pointAccConfig());

    FleetScheduler sched(fleet, model, {1.0, 2.0}, scfg);
    const auto report = sched.run(trace);
    checkInvariants(report, 7);
    EXPECT_GT(report.batchHolds, 0u);
    EXPECT_GT(report.holdTrackingPeak, 0u);
    EXPECT_LE(report.holdTrackingPeak,
              static_cast<std::uint64_t>(scfg.queueDepth));
}

TEST(RuntimePropertiesScale, MillionRequestStreamStaysBounded)
{
    POINTACC_REQUIRE_SCALE();
    // The acceptance criterion behind the streaming generator: peak
    // resident state is O(in-flight + classes) however long the trace
    // — here 10^6 emitted requests against a four-digit buffer bound.
    const auto spec = scaleSpec(1'000'000);
    WorkloadStream stream = WorkloadGenerator(spec).stream();
    while (stream.peek() != nullptr)
        stream.take();
    EXPECT_GT(stream.emitted(), 900'000u);
    EXPECT_LT(stream.peakBuffered(), 4'096u);
}

} // namespace
} // namespace pointacc

/**
 * Custom main: gtest_main's is not linked once this one exists. Two
 * additions over the stock runner: the --scale flag gating the scale
 * tier above (CI's Release and sanitized stages pass it; plain ctest
 * stays fast), and --threads N sharding the big seed loops across a
 * one-queue pool (CI's TSan stage passes 4; the default of 1
 * keeps plain runs serial and results are identical either way).
 */
int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--scale") == 0)
            pointacc::scaleTierEnabled = true;
        else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
            pointacc::propertyThreads = static_cast<std::size_t>(
                std::strtoul(argv[++i], nullptr, 10));
    }
    return RUN_ALL_TESTS();
}
