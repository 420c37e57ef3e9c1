/**
 * @file
 * Serving-runtime benchmark: throughput and tail latency of PointAcc
 * fleets under open-loop load.
 *
 * Not a paper figure — this drives the runtime/ subsystem that grows
 * the reproduction toward a serving system. The bench is one table of
 * sweeps (kSweeps, just above main). Each entry's function runs its
 * scenarios, prints and records its rows, checks its own acceptance
 * gates where it computed them and, if the sweep has one, attaches its
 * object to the JSON envelope. One line per entry; `all` marks the
 * sweeps `--sweep all` (the default) runs, `smoke` those with a
 * `--smoke` form for the sanitized CI passes:
 *
 *   fleet       all    p99 must not rise over 1 / 2 / 4 instances
 *   policy      all    FIFO vs SJF at rising load on one instance
 *   batching    all    batching off vs on under bursty traffic
 *   pipeline    all    Mapping Unit / back-end pipeline beats monolithic
 *   wait-for-k  all    hold the queue head for K same-network requests
 *   cache       all    kernel-map cache wins p99 or thru at reuse >= 0.5
 *   plan        smoke  planner pick == exhaustive, fewer probes, budget
 *   hetero      smoke  watt-budgeted server + edge lattice; 1 GHz == ref
 *   traffic     smoke  static plan rides a flash crowd; autoscaler saves
 *   faults      smoke  crash/straggler/MTBF/hedge; spare outlives a crash
 *   runahead    smoke  cost-aware beats eager and hold; k ladder monotone
 *
 * The opt-in sweeps run their own planner searches or oracle grids
 * (dozens of extra serving runs), so `all` leaves them out. Three of
 * them also pin a refactor-proof identity: the production scheduler
 * on a configuration the frozen cycle-domain reference engine can
 * reach must emit its exact serving JSON.
 *
 * Results print as a table and are dumped to BENCH_serving.json
 * (`--json PATH`, `--no-json`): a `rows` array plus the envelope object
 * of the sweep that ran, if it has one (`plan`, `hetero_plan`,
 * `traffic`, `faults`); docs/SERVING_JSON.md documents every key.
 * `--quick` shrinks the horizons. The exit code is 0 when every gate
 * of the sweeps that ran holds, 1 when one is violated, and 2 for a bad
 * command line.
 *
 * `--threads N` (default 1 = serial, 0 = one per hardware thread) runs
 * each sweep's scenarios on a one-queue ProbeExecutor and hands the
 * planners the same budget to run their (combo, ray) searches
 * concurrently. Rows come back in declaration order whatever the
 * interleaving, and every scenario is a
 * pure function of its (spec, config) inputs, so BENCH_serving.json is
 * byte-identical to a serial run (scripts/ci.sh compares the two); for
 * the planners the identity is also gated here — a parallel plan is
 * re-run serially and the two writePlanJson outputs must match.
 *
 * State hygiene: every sweep derives its WorkloadSpec from one const
 * `base` and owns its mutations locally; the only object shared across
 * rows is the SimServiceModel, whose memoized profiles are pure values
 * (gated by the profiling-memoization check). Row JSON is therefore
 * independent of which sweeps ran and in what order —
 * tests/test_runtime_properties.cpp pins that property.
 */

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/json.hpp"
#include "nn/zoo.hpp"
#include "runtime/executor.hpp"
#include "runtime/planner.hpp"
#include "runtime/reference.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serving_stats.hpp"
#include "runtime/traffic.hpp"
#include "runtime/workload.hpp"
#include "sim/accel_config.hpp"

using namespace pointacc;

namespace {

struct Row
{
    std::string sweep;
    std::string process;
    double offeredPerMCycle = 0.0;
    std::size_t fleetSize = 0;
    std::string policy;
    bool batching = false;
    std::string occupancy;
    std::uint32_t targetK = 1;
    std::uint64_t maxWaitCycles = 0;
    bool mapCacheOn = false;
    double mapReuseProb = 0.0;
    ServingReport report;
};

/** The row of one served scenario: its parameters plus its report. */
Row
rowOf(std::string sweep, const WorkloadSpec &wspec, std::size_t fleet_size,
      const SchedulerConfig &scfg, ServingReport report)
{
    Row row;
    row.sweep = std::move(sweep);
    row.process = toString(wspec.arrivals);
    row.offeredPerMCycle = wspec.requestsPerMCycle;
    row.fleetSize = fleet_size;
    row.policy = toString(scfg.policy);
    row.batching = scfg.batcher.enabled;
    row.occupancy = toString(scfg.occupancy);
    row.targetK = scfg.batcher.targetK;
    row.maxWaitCycles = scfg.batcher.maxWaitCycles;
    row.mapCacheOn = scfg.mapCache.enabled;
    for (const auto &cls : wspec.mix)
        row.mapReuseProb = std::max(row.mapReuseProb, cls.mapReuseProb);
    row.report = std::move(report);
    return row;
}

SchedulerConfig
makeConfig(QueuePolicy policy, bool batching,
           OccupancyModel occupancy = OccupancyModel::Pipelined,
           std::uint32_t target_k = 1, std::uint64_t max_wait = 0)
{
    SchedulerConfig scfg;
    scfg.policy = policy;
    scfg.occupancy = occupancy;
    scfg.batcher.enabled = batching;
    scfg.batcher.targetK = target_k;
    scfg.batcher.maxWaitCycles = max_wait;
    scfg.queueDepth = 256;
    return scfg;
}

void
printHeader()
{
    std::printf("%-9s %-8s %7s %5s %6s %5s %4s | %9s %8s %8s %8s %6s "
                "%6s %5s %5s\n",
                "sweep", "process", "offered", "fleet", "policy", "batch",
                "occ", "thru r/s", "p50 ms", "p95 ms", "p99 ms", "util",
                "drop%", "B", "hit%");
    bench::rule(122);
}

void
printRow(const Row &r)
{
    double utilSum = 0.0;
    for (const auto &acc : r.report.accelerators)
        utilSum += acc.utilization(r.report.horizonCycles);
    const double util =
        r.report.accelerators.empty()
            ? 0.0
            : utilSum / static_cast<double>(r.report.accelerators.size());
    char batch[8];
    if (!r.batching)
        std::snprintf(batch, sizeof batch, "off");
    else if (r.targetK > 1)
        std::snprintf(batch, sizeof batch, "K=%u", r.targetK);
    else
        std::snprintf(batch, sizeof batch, "on");
    char hit[8];
    if (r.mapCacheOn)
        std::snprintf(hit, sizeof hit, "%5.1f",
                      100.0 * r.report.mapCache.hitRate());
    else
        std::snprintf(hit, sizeof hit, "    -");
    std::printf(
        "%-9s %-8s %7.2f %5zu %6s %5s %4s | %9.0f %8.3f %8.3f %8.3f "
        "%6.2f %6.2f %5.1f %5s\n",
        r.sweep.c_str(), r.process.c_str(), r.offeredPerMCycle, r.fleetSize,
        r.policy.c_str(), batch,
        r.occupancy == "pipelined" ? "pipe" : "mono",
        r.report.throughputRps(), r.report.p50Ms(), r.report.p95Ms(),
        r.report.p99Ms(), util, 100.0 * r.report.dropRate(),
        r.report.batchSize.mean(), hit);
}

void
writeRow(JsonWriter &w, const Row &r)
{
    w.beginObject();
    w.field("sweep", r.sweep);
    w.field("process", r.process);
    w.field("offered_per_mcycle", r.offeredPerMCycle);
    w.field("fleet_size", static_cast<std::uint64_t>(r.fleetSize));
    w.field("policy", r.policy);
    w.field("batching", r.batching);
    w.field("occupancy", r.occupancy);
    w.field("target_k", r.targetK);
    w.field("max_wait_cycles", r.maxWaitCycles);
    w.field("map_cache", r.mapCacheOn);
    w.field("map_reuse_prob", r.mapReuseProb);
    w.field("throughput_rps", r.report.throughputRps());
    w.field("latency_ms_p50", r.report.p50Ms());
    w.field("latency_ms_p95", r.report.p95Ms());
    w.field("latency_ms_p99", r.report.p99Ms());
    w.field("drop_rate", r.report.dropRate());
    w.field("completed", r.report.completed);
    w.field("failed", r.report.failed);
    w.field("goodput_rps", r.report.goodputRps());
    w.field("deadline_misses", r.report.deadlineMisses);
    w.field("batch_size_mean", r.report.batchSize.mean());
    w.field("batch_holds", r.report.batchHolds);
    w.field("map_cache_hits", r.report.mapCache.hits);
    w.field("map_cache_misses", r.report.mapCache.misses);
    w.field("map_cache_evictions", r.report.mapCache.evictions);
    w.field("map_cache_bytes_saved", r.report.mapCache.bytesSaved);
    w.field("map_cache_hit_rate", r.report.mapCache.hitRate());
    if (r.report.runAheadDepth != 1) {
        w.field("run_ahead_depth", r.report.runAheadDepth);
        w.field("run_ahead_staged", r.report.runAheadStaged);
        w.field("run_ahead_peak_staged", r.report.runAheadPeakStaged);
    }
    if (r.report.costAware) {
        w.field("cost_aware_holds", r.report.costHolds);
        w.field("cost_aware_dispatches", r.report.costDispatches);
    }
    if (r.report.faults.enabled) {
        w.field("fault_crashes", r.report.faults.crashes);
        w.field("fault_recoveries", r.report.faults.recoveries);
        w.field("fault_failovers", r.report.faults.failovers);
        w.field("retry_attempts", r.report.faults.retryAttempts);
        w.field("retry_hedges", r.report.faults.hedges);
    }
    w.endObject();
}

/** Both plans feasible and the same configuration, field for field?
 *  (The plan and hetero gates' equality with the exhaustive oracle.) */
bool
samePick(const PlanReport &plan, const PlanReport &oracle)
{
    const PlanProbe &a = plan.chosen;
    const PlanProbe &b = oracle.chosen;
    return plan.feasible && oracle.feasible && a.fleetSize == b.fleetSize &&
           a.composition == b.composition && a.policy == b.policy &&
           a.batching == b.batching && a.targetK == b.targetK &&
           a.maxWaitCycles == b.maxWaitCycles &&
           a.mapCacheOn == b.mapCacheOn;
}

void
printPlanProbe(const PlanProbe &p)
{
    // p99 is on the wall-clock event axis: ns -> ms is frequency-free.
    std::printf("plan      %-8s %7s %5zu %6s %5s %4s | %9.0f %8s %8s "
                "%8.3f %6s %6.2f %5s %5s\n",
                "-", "-", p.fleetSize, toString(p.policy).c_str(),
                p.batching ? "on" : "off", p.mapCacheOn ? "$on" : "$off",
                p.throughputRps, "-", "-", p.p99Cycles / 1e6,
                p.meetsSlo ? "MEET" : "miss", 100.0 * p.dropRate, "-",
                "-");
}

void
printHeteroProbe(const PlanProbe &p)
{
    char comp[16];
    if (p.composition.size() == 2)
        std::snprintf(comp, sizeof comp, "%zu+%zue", p.composition[0],
                      p.composition[1]);
    else
        std::snprintf(comp, sizeof comp, "%zu", p.fleetSize);
    std::printf("hetero    %-8s %7.1fW %5s %6s %5s %4s | %9.0f %8s %8s "
                "%8.3f %6s %6.2f %5s %5s\n",
                "-", p.cost, comp, toString(p.policy).c_str(),
                p.batching ? "on" : "off", p.mapCacheOn ? "$on" : "$off",
                p.throughputRps, "-", "-", p.p99Cycles / 1e6,
                p.meetsSlo ? "MEET" : "miss", 100.0 * p.dropRate, "-",
                "-");
}

/** SLO p99 bound in ms (PointAcc runs at 1 GHz: the axis is ns). */
double
sloMs(const SloSpec &slo)
{
    return static_cast<double>(slo.maxP99Cycles) /
           (pointAccConfig().freqGHz * 1e6);
}

using Scenario = std::function<Row()>;

/** What every sweep reads, and the run's rows, envelope and verdict. */
struct Bench
{
    const SimServiceModel &model;
    ProbeExecutor &pool;
    std::size_t threadsArg;  ///< --threads as given: planner search workers
    std::size_t poolThreads; ///< resolved pool size (0 = serial, inline)
    bool quick;
    bool smoke;
    /** Frozen: every sweep copies it and owns its mutations locally, so
     *  no sweep's spec depends on which sweeps ran before it. */
    const WorkloadSpec base;
    double meanCycles;        ///< mix mean service on one PointAcc
    double capacityPerMCycle; ///< one instance's capacity

    std::vector<Row> rows{};
    /** Writes the running sweep's envelope object, if it has one. */
    std::function<void(JsonWriter &)> envelope{};
    bool ok = true;

    std::uint64_t
    horizon(std::uint64_t smoke_h, std::uint64_t quick_h,
            std::uint64_t full_h) const
    {
        return smoke ? smoke_h : (quick ? quick_h : full_h);
    }

    /** Solo service cycles of one (network, bucket) on one PointAcc. */
    double
    soloCycles(std::uint32_t network, std::uint32_t bucket) const
    {
        return static_cast<double>(
            model.profile(pointAccConfig(), network, bucket).totalCycles);
    }

    /** One row: `spec` served by `fleet_size` PointAccs under `scfg`. */
    Scenario
    scenario(std::string sweep, std::size_t fleet_size, WorkloadSpec spec,
             SchedulerConfig scfg) const
    {
        return [&m = model, sweep, fleet_size, spec, scfg] {
            const std::vector<AcceleratorConfig> fleet(fleet_size,
                                                       pointAccConfig());
            FleetScheduler sched(fleet, m, m.catalog().bucketScales, scfg);
            return rowOf(sweep, spec, fleet_size, scfg,
                         sched.run(WorkloadGenerator(spec).generate()));
        };
    }

    void
    add(Row row)
    {
        printRow(row);
        rows.push_back(std::move(row));
    }

    /** Run scenarios on the pool; print and record them in order. */
    std::vector<Row>
    run(std::vector<Scenario> tasks)
    {
        std::vector<Row> out = pool.map(std::move(tasks));
        for (const Row &row : out)
            add(row);
        return out;
    }

    /** Print one acceptance line, "<what>: OK" or "<what>: VIOLATED";
     *  a violation makes the run exit 1. */
    __attribute__((format(printf, 3, 4))) void
    gate(bool pass, const char *fmt, ...)
    {
        va_list args;
        va_start(args, fmt);
        std::vprintf(fmt, args);
        va_end(args);
        std::printf(": %s\n", pass ? "OK" : "VIOLATED");
        ok = ok && pass;
    }

    CapacityPlanner
    planner(const AcceleratorConfig &instance) const
    {
        PlannerConfig cfg;
        cfg.threads = threadsArg;
        return CapacityPlanner(instance, model,
                               model.catalog().bucketScales, cfg);
    }

    /** Parallel == serial: with a pool, re-plan serially — running the
     *  (combo, ray) searches concurrently must not change the probe
     *  log, the pick or a single serialized byte. */
    void
    gateSerialPlan(const char *what, const AcceleratorConfig &instance,
                   const PlanReport &parallel, const WorkloadSpec &spec,
                   const SloSpec &slo, const PlanSearchSpace &space)
    {
        if (poolThreads == 0)
            return;
        const CapacityPlanner serial(instance, model,
                                     model.catalog().bucketScales);
        std::ostringstream parallelJson, serialJson;
        writePlanJson(parallelJson, parallel);
        writePlanJson(serialJson, serial.plan(spec, slo, space));
        gate(parallelJson.str() == serialJson.str(),
             "parallel %s byte-identical to serial (%zu-thread "
             "ray searches)",
             what, poolThreads);
    }

    /** Reference identity: on one shared trace, the production
     *  scheduler under `prod` and the frozen cycle-domain reference
     *  engine under `ref` emit the exact same serving JSON. */
    bool
    matchesReference(const std::vector<AcceleratorConfig> &fleet,
                     const SchedulerConfig &prod,
                     const SchedulerConfig &ref) const
    {
        WorkloadSpec spec = base;
        spec.horizonCycles = smoke ? 5'000'000 : 20'000'000;
        spec.requestsPerMCycle = 1.5 * capacityPerMCycle;
        const auto trace = WorkloadGenerator(spec).generate();
        const auto &scales = model.catalog().bucketScales;
        std::ostringstream prodJson, refJson;
        const FleetScheduler sched(fleet, model, scales, prod);
        writeServingJson(prodJson, sched.run(trace));
        writeServingJson(refJson, runServingReference(fleet, model, scales,
                                                      ref, trace));
        return prodJson.str() == refJson.str();
    }
};

// p99 must not increase with fleet size, at a load that saturates one
// instance.
void
sweepFleet(Bench &b)
{
    WorkloadSpec spec = b.base;
    spec.requestsPerMCycle = 1.5 * b.capacityPerMCycle;
    std::vector<Scenario> tasks;
    for (const std::size_t fleetSize : {1u, 2u, 4u})
        tasks.push_back(b.scenario("fleet", fleetSize, spec,
                                   makeConfig(QueuePolicy::Fifo, false)));
    const std::vector<Row> rows = b.run(std::move(tasks));
    const double p99_1 = rows[0].report.p99Ms();
    const double p99_2 = rows[1].report.p99Ms();
    const double p99_4 = rows[2].report.p99Ms();
    b.gate(p99_1 >= p99_2 && p99_2 >= p99_4,
           "fleet-scaling p99: 1x %.3f >= 2x %.3f >= 4x %.3f ms", p99_1,
           p99_2, p99_4);
}

// FIFO vs SJF, one instance, rising load.
void
sweepPolicy(Bench &b)
{
    std::vector<Scenario> tasks;
    for (const double frac : {0.6, 0.9, 1.2}) {
        WorkloadSpec spec = b.base;
        spec.requestsPerMCycle = frac * b.capacityPerMCycle;
        for (const QueuePolicy pol : {QueuePolicy::Fifo, QueuePolicy::Sjf})
            tasks.push_back(
                b.scenario("policy", 1, spec, makeConfig(pol, false)));
    }
    b.run(std::move(tasks));
}

/** Bursty single-network traffic for the batching-centric sweeps
 *  (bursts of same-class requests are what batching can coalesce). */
WorkloadSpec
burstSpec(const Bench &b)
{
    WorkloadSpec spec = b.base;
    spec.arrivals = ArrivalProcess::Bursty;
    spec.meanBurstSize = 6;
    spec.mix = {{0, 0, 1.0, 0}}; // all PointNet small
    spec.requestsPerMCycle = 0.9 * 1e6 / b.soloCycles(0, 0);
    return spec;
}

// Batching on/off under bursty single-network traffic.
void
sweepBatching(Bench &b)
{
    const WorkloadSpec spec = burstSpec(b);
    std::vector<Scenario> tasks;
    for (const bool batching : {false, true})
        tasks.push_back(
            b.scenario("batching", 1, spec,
                       makeConfig(QueuePolicy::Fifo, batching)));
    b.run(std::move(tasks));
}

// Monolithic vs pipelined occupancy on the default mix. The two-stage
// pipeline overlaps the mapping phase of dispatch i+1 with the
// back-end of dispatch i, raising effective capacity without adding
// hardware; at equal fleet size it must deliver more throughput or a
// better tail. Offered load scales with fleet size (1.5x capacity per
// instance) so both sizes run saturated, where capacity is what sets
// the tail. Throughput is checked first — it is the robust signal for
// the capacity the overlap adds; the p99 comparison at fleet 2 sits
// within hundredths of a ms of a tie, so it only decides when
// throughput does not.
void
sweepPipeline(Bench &b)
{
    std::vector<Scenario> tasks;
    for (const std::size_t fleetSize : {1u, 2u}) {
        WorkloadSpec spec = b.base;
        spec.requestsPerMCycle =
            1.5 * b.capacityPerMCycle * static_cast<double>(fleetSize);
        for (const OccupancyModel occ :
             {OccupancyModel::Monolithic, OccupancyModel::Pipelined})
            tasks.push_back(
                b.scenario("pipeline", fleetSize, spec,
                           makeConfig(QueuePolicy::Fifo, false, occ)));
    }
    const std::vector<Row> rows = b.run(std::move(tasks));
    for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
        const ServingReport &mono = rows[i].report;
        const ServingReport &pipe = rows[i + 1].report;
        const double pm = mono.p99Ms();
        const double pp = pipe.p99Ms();
        const double tm = mono.throughputRps();
        const double tp = pipe.throughputRps();
        b.gate(tp > tm || pp < pm,
               "pipeline vs monolithic (fleet %zu): thru %.0f vs %.0f "
               "r/s, p99 %.3f vs %.3f ms",
               rows[i].fleetSize, tp, tm, pp, pm);
    }
}

// Wait-for-K batching under bursty single-network load. Holding the
// head briefly (bounded by the timer) accumulates bigger same-network
// batches, amortizing more weight reloads.
void
sweepWaitForK(Bench &b)
{
    const WorkloadSpec spec = burstSpec(b);
    const auto maxWait =
        static_cast<std::uint64_t>(2.0 * b.soloCycles(0, 0));
    std::vector<Scenario> tasks;
    for (const std::uint32_t k : {1u, 4u, 8u})
        tasks.push_back(b.scenario(
            "wait-for-k", 1, spec,
            makeConfig(QueuePolicy::Fifo, true, OccupancyModel::Pipelined,
                       k, k > 1 ? maxWait : 0)));
    b.run(std::move(tasks));
}

// Cross-request kernel-map cache on repeated-frame streams. Each mix
// class becomes its own LiDAR-style stream; mapReuseProb sets how often
// a frame repeats (the achievable hit rate). Batching stays off so the
// comparison isolates the cache (hit/miss batch purity is covered by
// the runtime tests). A hit collapses the Mapping Unit front-end phase
// to a modelled cache read, so at reuse >= 0.5 the cache must strictly
// improve p99 or throughput over the identical cache-off run (same
// trace, same fleet).
void
sweepCache(Bench &b)
{
    WorkloadSpec spec = b.base;
    spec.arrivals = ArrivalProcess::Poisson;
    for (std::size_t i = 0; i < spec.mix.size(); ++i)
        spec.mix[i].streamId = static_cast<std::uint32_t>(i);
    const SchedulerConfig cacheOff = makeConfig(QueuePolicy::Fifo, false);
    SchedulerConfig cacheOn = cacheOff;
    cacheOn.mapCache.enabled = true;
    cacheOn.mapCache.capacityEntries = 4096;
    cacheOn.mapCache.eviction = MapCacheEviction::Lru;
    // Streaming the stored maps back from DRAM is far from free, but
    // far cheaper than re-sorting: model it as a small fixed read per
    // request.
    cacheOn.mapCache.hitReadCycles = 2'000;
    std::vector<Scenario> tasks;
    for (const std::size_t fleetSize : {1u, 2u}) {
        spec.requestsPerMCycle =
            1.5 * b.capacityPerMCycle * static_cast<double>(fleetSize);
        for (const double reuse : {0.0, 0.5, 0.9}) {
            for (auto &cls : spec.mix)
                cls.mapReuseProb = reuse;
            tasks.push_back(
                b.scenario("map-cache", fleetSize, spec, cacheOff));
            tasks.push_back(
                b.scenario("map-cache", fleetSize, spec, cacheOn));
        }
    }
    const std::vector<Row> rows = b.run(std::move(tasks));
    for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
        const Row &on = rows[i + 1];
        if (on.mapReuseProb < 0.5)
            continue;
        const double po = rows[i].report.p99Ms();
        const double pc = on.report.p99Ms();
        const double to = rows[i].report.throughputRps();
        const double tc = on.report.throughputRps();
        b.gate(pc < po || tc > to,
               "map-cache vs off (fleet %zu, reuse %.1f): p99 %.3f vs %.3f "
               "ms, thru %.0f vs %.0f r/s, hit-rate %.0f%%",
               on.fleetSize, on.mapReuseProb, pc, po, tc, to,
               100.0 * on.report.mapCache.hitRate());
    }
}

// SLO-driven capacity planning. The planner searches fleet 1..10 x
// {FIFO, SJF} x {cache off, on} for the cheapest fleet meeting a p99
// SLO calibrated off a mid-grid probe; the exhaustive grid is then run
// as the oracle. The pick must equal the oracle's while spending
// strictly fewer probes, inside a fixed budget of 3/4 of the grid
// (galloping + bisection beat that comfortably; the budget catches a
// silent degradation to near-exhaustive search). `--smoke` instead
// runs a 2-probe exhaustive micro-grid for the sanitized CI pass.
void
sweepPlan(Bench &b)
{
    const CapacityPlanner planner = b.planner(pointAccConfig());
    PlanSearchSpace space;
    space.minFleetSize = 1;
    space.base = makeConfig(QueuePolicy::Fifo, false);
    WorkloadSpec spec = b.base;
    PlanReport report;
    if (b.smoke) {
        spec.horizonCycles = 5'000'000;
        spec.requestsPerMCycle = 1.2 * b.capacityPerMCycle;
        space.maxFleetSize = 2;
        SloSpec slo;
        slo.minThroughputRps = 1.0;
        report = planner.planExhaustive(spec, slo, space);
        // The smoke just has to complete a real plan and keep its
        // accounting straight: a 1-combo, 2-size grid is 2 probes.
        b.gate(report.probesSpent == 2 && report.exhaustiveProbes == 2,
               "plan smoke: %llu probes over a 2-point grid, feasible=%s",
               static_cast<unsigned long long>(report.probesSpent),
               report.feasible ? "yes" : "no");
    } else {
        spec.horizonCycles = b.quick ? 40'000'000 : 120'000'000;
        spec.requestsPerMCycle = 2.5 * b.capacityPerMCycle;
        // Each mix class is a repeated-frame stream so the map-cache
        // axis changes real outcomes.
        for (std::size_t i = 0; i < spec.mix.size(); ++i) {
            spec.mix[i].streamId = static_cast<std::uint32_t>(i);
            spec.mix[i].mapReuseProb = 0.5;
        }
        space.maxFleetSize = 10;
        space.policies = {QueuePolicy::Fifo, QueuePolicy::Sjf};
        space.batchers = {BatcherAxisPoint{}};
        space.mapCacheOptions = {false, true};
        space.base.mapCache.capacityEntries = 4096;
        space.base.mapCache.eviction = MapCacheEviction::Lru;
        space.base.mapCache.hitReadCycles = 2'000;

        // SLO calibrated off a mid-grid probe (FIFO, cache off, fleet
        // 4): feasible inside the range, not trivially at fleet 1,
        // whatever the horizon setting.
        const auto trace = WorkloadGenerator(spec).generate();
        const auto calib = planner.probe(4, space.base, trace);
        SloSpec slo;
        slo.maxP99Cycles =
            static_cast<std::uint64_t>(calib.p99Cycles()) + 1;

        report = planner.plan(spec, slo, space);
        const PlanReport exhaustive =
            planner.planExhaustive(spec, slo, space);
        std::printf("capacity plan: SLO p99 <= %llu cycles over fleet "
                    "%zu..%zu x {fifo,sjf} x {cache off,on} (%llu grid "
                    "points)\n",
                    static_cast<unsigned long long>(slo.maxP99Cycles),
                    space.minFleetSize, space.maxFleetSize,
                    static_cast<unsigned long long>(space.gridSize()));
        for (const auto &p : report.probes)
            printPlanProbe(p);

        const PlanProbe &a = report.chosen;
        const PlanProbe &e = exhaustive.chosen;
        b.gate(samePick(report, exhaustive),
               "plan vs exhaustive: fleet %zu %s batch=%s cache=%s vs "
               "fleet %zu %s batch=%s cache=%s",
               a.fleetSize, toString(a.policy).c_str(),
               a.batching ? "on" : "off", a.mapCacheOn ? "on" : "off",
               e.fleetSize, toString(e.policy).c_str(),
               e.batching ? "on" : "off", e.mapCacheOn ? "on" : "off");
        const std::uint64_t budget = 3 * report.exhaustiveProbes / 4;
        b.gate(report.probesSpent < exhaustive.probesSpent &&
                   report.probesSpent <= budget,
               "plan probe spend: %llu of %llu grid points (budget %llu, "
               "monotone fleet axis: %s)",
               static_cast<unsigned long long>(report.probesSpent),
               static_cast<unsigned long long>(report.exhaustiveProbes),
               static_cast<unsigned long long>(budget),
               report.monotoneFleetAxis ? "yes" : "no");
        b.gateSerialPlan("plan", pointAccConfig(), report, spec, slo,
                         space);
    }
    b.envelope = [report](JsonWriter &w) {
        w.key("plan");
        writePlanObject(w, report);
    };
}

// Heterogeneous cost-aware capacity planning on the wall-clock event
// axis. The lattice mixes a 2 GHz server-class PointAcc (distinct name:
// the service model memoizes per accelerator class) with the 1 GHz
// edge part, under the watts objective and a binding watt budget; the
// planner's ray search must agree with the exhaustive lattice oracle
// while spending strictly fewer probes, and the budget must cut real
// lattice points. `--smoke` shrinks the lattice to 3 compositions of
// structural checks. Either way a uniform-1 GHz mixed server+edge fleet
// — which the homogeneous property suite can never build — served by
// the production scheduler must be byte-identical to the frozen
// cycle-domain reference engine, because ns == cycles at 1 GHz.
void
sweepHetero(Bench &b)
{
    AcceleratorConfig server = pointAccConfig();
    server.name = "PointAcc@2GHz";
    server.freqGHz = 2.0;
    const AcceleratorConfig edge = pointAccEdgeConfig();
    const CapacityPlanner planner = b.planner(server);

    PlanSearchSpace space;
    space.base = makeConfig(QueuePolicy::Fifo, false);
    space.objective = PlanObjective::Watts;
    InstanceKindSpec serverKind;
    serverKind.config = server;
    serverKind.minCount = 0;
    serverKind.maxCount = b.smoke ? 1 : 10;
    InstanceKindSpec edgeKind;
    edgeKind.config = edge;
    edgeKind.minCount = 0;
    edgeKind.maxCount = b.smoke ? 1 : 2;
    space.kinds = {serverKind, edgeKind};

    WorkloadSpec spec = b.base;
    spec.horizonCycles = b.horizon(5'000'000, 40'000'000, 120'000'000);
    spec.requestsPerMCycle = (b.smoke ? 1.2 : 2.5) * b.capacityPerMCycle;
    const auto trace = WorkloadGenerator(spec).generate();

    // SLO calibrated off a mid-lattice composition: feasible, but not
    // trivially so at the lattice floor.
    const std::vector<std::size_t> calibComp =
        b.smoke ? std::vector<std::size_t>{1, 1}
                : std::vector<std::size_t>{4, 1};
    const auto calib =
        planner.probeComposition(space, calibComp, space.base, trace);
    SloSpec slo;
    slo.maxP99Cycles = static_cast<std::uint64_t>(calib.p99Cycles()) + 1;

    PlanReport report;
    if (b.smoke) {
        report = planner.planExhaustive(spec, slo, space);
        // A real exhaustive lattice plan over 3 compositions ({1,0},
        // {0,1}, {1,1} — the empty fleet is excluded by construction),
        // every probe carrying a 2-kind composition and a positive cost.
        bool shaped =
            report.probesSpent == 3 && report.exhaustiveProbes == 3;
        for (const auto &p : report.probes)
            shaped = shaped && p.composition.size() == 2 && p.cost > 0.0 &&
                     p.fleetSize == p.composition[0] + p.composition[1];
        b.gate(shaped,
               "hetero smoke: %llu probes over a 3-composition lattice, "
               "feasible=%s",
               static_cast<unsigned long long>(report.probesSpent),
               report.feasible ? "yes" : "no");
    } else {
        // Watt budget: it must exclude real compositions (binding)
        // while keeping headroom above the calibration point.
        const std::uint64_t unbounded = space.compositionCount();
        space.maxCostBudget =
            7.0 * nominalWatts(server) + 2.0 * nominalWatts(edge);
        const std::uint64_t bounded = space.compositionCount();
        report = planner.plan(spec, slo, space);
        const PlanReport exhaustive =
            planner.planExhaustive(spec, slo, space);
        std::printf("hetero plan: SLO p99 <= %.3f ms over server 0..%zu x "
                    "edge 0..%zu under %.1f W budget (%llu of %llu "
                    "compositions in budget)\n",
                    static_cast<double>(slo.maxP99Cycles) / 1e6,
                    serverKind.maxCount, edgeKind.maxCount,
                    space.maxCostBudget,
                    static_cast<unsigned long long>(bounded),
                    static_cast<unsigned long long>(unbounded));
        for (const auto &p : report.probes)
            printHeteroProbe(p);

        const auto compText = [](const PlanProbe &p) {
            std::string s;
            for (std::size_t k = 0; k < p.composition.size(); ++k)
                s += (k ? "+" : "") + std::to_string(p.composition[k]);
            return s.empty() ? std::string("-") : s;
        };
        b.gate(samePick(report, exhaustive),
               "hetero vs exhaustive: composition %s (%.1f W) vs %s "
               "(%.1f W)",
               compText(report.chosen).c_str(), report.chosen.cost,
               compText(exhaustive.chosen).c_str(), exhaustive.chosen.cost);
        b.gate(report.probesSpent < exhaustive.probesSpent &&
                   bounded < unbounded,
               "hetero probe spend: %llu of %llu lattice points (budget "
               "cut %llu -> %llu compositions, monotone rays: %s)",
               static_cast<unsigned long long>(report.probesSpent),
               static_cast<unsigned long long>(exhaustive.probesSpent),
               static_cast<unsigned long long>(unbounded),
               static_cast<unsigned long long>(bounded),
               report.monotoneFleetAxis ? "yes" : "no");
        b.gateSerialPlan("hetero plan", server, report, spec, slo, space);
    }
    b.envelope = [report](JsonWriter &w) {
        w.key("hetero_plan");
        writePlanObject(w, report);
    };

    const SchedulerConfig plain = makeConfig(QueuePolicy::Fifo, false);
    b.gate(b.matchesReference({pointAccConfig(), pointAccEdgeConfig()},
                              plain, plain),
           "uniform-1GHz mixed fleet vs frozen cycle-domain reference "
           "(byte-identical serving JSON)");
}

// The closed loop. A flash crowd (6x the base rate over 20% of the
// horizon) is sized by the CapacityPlanner, then the same program runs
// against (a) the planner's static fleet and (b) the reactive
// autoscaler starting from one instance — static capacity vs reactive
// cost, on one trace. Full and quick runs demand the real outcome: the
// planner's fleet rides out the crowd inside its SLO, the autoscaler
// reacts (>= 1 scale-up), settles (no scale action in the final 10% of
// the horizon) and undercuts static provisioning on instance-cycles.
// The smoke run keeps the structural half: a real plan, honest
// conservation and scaling accounting, savings never negative.
void
sweepTraffic(Bench &b)
{
    WorkloadSpec tbase = b.base;
    tbase.horizonCycles = b.horizon(6'000'000, 60'000'000, 200'000'000);
    tbase.requestsPerMCycle = 0.6 * b.capacityPerMCycle;
    const std::uint64_t H = tbase.horizonCycles;
    const TrafficProgram program = flashCrowdProgram(tbase, 6.0, 0.3, 0.2);

    const CapacityPlanner planner = b.planner(pointAccConfig());
    PlanSearchSpace space;
    space.minFleetSize = 1;
    space.maxFleetSize = 8;
    space.base = makeConfig(QueuePolicy::Fifo, false);

    // SLO calibrated off the most provisioned point with 25% slack:
    // feasible inside the range, but the crowd makes it unreachable for
    // an undersized fleet.
    TrafficTelemetry telem;
    const auto trace = materialize(program, &telem);
    const auto calib = planner.probe(space.maxFleetSize, space.base, trace);
    SloSpec slo;
    slo.maxP99Cycles =
        static_cast<std::uint64_t>(1.25 * calib.p99Cycles()) + 1;

    const PlanReport sized = planner.plan(program, slo, space);
    const std::size_t staticN =
        sized.feasible ? sized.chosen.fleetSize : space.maxFleetSize;
    std::printf("traffic: %s %.2f -> %.2f req/Mcycle over %llu Mcycles, "
                "SLO p99 <= %.3f ms, planner fleet %zu (%s)\n",
                program.name.c_str(), telem.basePerMCycle,
                telem.peakPerMCycle,
                static_cast<unsigned long long>(H / 1'000'000), sloMs(slo),
                staticN, sized.feasible ? "feasible" : "infeasible");

    // (a) The static fleet the planner sized, over the program's
    // materialized trace.
    const SchedulerConfig staticCfg =
        schedulerConfigFor(space, sized.chosen);
    const std::vector<AcceleratorConfig> fleet(staticN, pointAccConfig());
    const auto &scales = b.model.catalog().bucketScales;
    ServingReport staticRep =
        FleetScheduler(fleet, b.model, scales, staticCfg).run(trace);
    staticRep.traffic = telem;

    // (b) The autoscaler over the same pool, starting from one instance,
    // driven through the *streaming* entry point. The queue-depth
    // thresholds do the steady-state work; the p99 trigger (2x the SLO)
    // catches a crowd the queue bound alone would admit slowly. Spin-up
    // and cooldown are two evaluation periods each — the reactive lag
    // the comparison prices.
    SchedulerConfig autoCfg = staticCfg;
    auto &ac = autoCfg.autoscaler;
    ac.enabled = true;
    ac.minInstances = 1;
    ac.maxInstances = static_cast<std::uint32_t>(staticN);
    ac.initialInstances = 1;
    ac.evalIntervalCycles = H / 100;
    ac.queueHighDepth = b.smoke ? 4 : 16;
    ac.queueLowDepth = 2;
    ac.p99HighCycles = 2 * slo.maxP99Cycles;
    ac.spinUpCycles = 2 * ac.evalIntervalCycles;
    ac.cooldownCycles = 2 * ac.evalIntervalCycles;
    TrafficStream stream(program);
    ServingReport autoRep =
        FleetScheduler(fleet, b.model, scales, autoCfg).run(stream);
    autoRep.traffic = stream.telemetry();

    b.add(rowOf("traffic", tbase, staticN, staticCfg, staticRep));
    b.add(rowOf("traffic", tbase, staticN, staticCfg, autoRep));

    // Headline comparison: instance-cycles the autoscaler left unpowered
    // vs keeping the static fleet up for its whole run.
    const auto &as = autoRep.autoscaler;
    const std::uint64_t staticCost =
        static_cast<std::uint64_t>(staticN) * autoRep.horizonCycles;
    const std::int64_t saved = static_cast<std::int64_t>(staticCost) -
                               static_cast<std::int64_t>(as.instanceCycles);
    const bool staticMeetsSlo = meetsSlo(staticRep, slo);
    bool converged = true;
    for (const auto &s : as.timeline.samples)
        if (s.cycle >= H - H / 10 && s.action != 0)
            converged = false;

    bool conserved = true;
    for (const ServingReport *rep : {&staticRep, &autoRep})
        conserved = conserved &&
                    rep->generated == rep->admitted + rep->dropped &&
                    rep->admitted == rep->completed + rep->leftoverQueued &&
                    rep->leftoverQueued == 0;
    const bool accounted = as.evals == as.timeline.samples.size() &&
                           as.instanceCycles <= staticCost &&
                           as.peakProvisioned <= staticN;
    if (b.smoke) {
        b.gate(conserved && accounted && as.evals > 0 && saved >= 0,
               "traffic smoke: conservation %s, %llu evals, %llu/%llu "
               "instance-cycles",
               conserved ? "holds" : "broken",
               static_cast<unsigned long long>(as.evals),
               static_cast<unsigned long long>(as.instanceCycles),
               static_cast<unsigned long long>(staticCost));
    } else {
        b.gate(staticMeetsSlo,
               "traffic static fleet %zu through the crowd: p99 %.3f ms vs "
               "SLO %.3f ms",
               staticN, staticRep.p99Ms(), sloMs(slo));
        b.gate(as.scaleUps >= 1 && converged && conserved && accounted,
               "traffic autoscaler: %llu up / %llu down, peak %u of %zu, "
               "converged %s, conservation %s",
               static_cast<unsigned long long>(as.scaleUps),
               static_cast<unsigned long long>(as.scaleDowns),
               as.peakProvisioned, staticN, converged ? "yes" : "no",
               conserved ? "holds" : "broken");
        b.gate(saved > 0,
               "traffic instance-cycles: autoscaler %llu vs static %llu "
               "(saved %lld, %.0f%%)",
               static_cast<unsigned long long>(as.instanceCycles),
               static_cast<unsigned long long>(staticCost),
               static_cast<long long>(saved),
               100.0 * static_cast<double>(saved) /
                   static_cast<double>(staticCost));
    }

    b.envelope = [name = program.name, slo, staticN, staticCost,
                  autoCycles = as.instanceCycles, saved,
                  ups = as.scaleUps, downs = as.scaleDowns, staticMeetsSlo,
                  converged](JsonWriter &w) {
        w.key("traffic").beginObject();
        w.field("program", name);
        w.field("slo_p99_cycles", slo.maxP99Cycles);
        w.field("static_fleet_size", static_cast<std::uint64_t>(staticN));
        w.field("static_instance_cycles", staticCost);
        w.field("autoscaler_instance_cycles", autoCycles);
        w.field("instance_cycles_saved", saved);
        w.field("scale_ups", ups);
        w.field("scale_downs", downs);
        w.field("static_meets_slo", staticMeetsSlo);
        w.field("converged", converged);
        w.endObject();
    };
}

// Fault injection and failure-aware serving. Five scenarios on a
// two-instance fleet at 1.25x fleet capacity — the persistent backlog
// keeps both instances busy, so a mid-horizon crash always catches
// work in flight — then the gates: (c) extended conservation and the
// goodput bound on every row, plus observability (the scheduled crash
// caught work in flight and retried it, the stochastic process crashed
// at least once, hedging issued at least one hedge); (a) an enabled
// but empty fault program leaves the engine byte-identical to the
// reference (which predates faults entirely) — the fault machinery is
// pay-for-what-you-use; (b) the availability-mode planner pays for a
// spare, and the spare rides out a crash the nominal fleet fails —
// strict in full/quick runs, structural under --smoke (short horizons
// make the nominal fleet's SLO miss a coin flip).
void
sweepFaults(Bench &b)
{
    WorkloadSpec spec = b.base;
    spec.horizonCycles = b.horizon(5'000'000, 30'000'000, 100'000'000);
    spec.requestsPerMCycle = 2.5 * b.capacityPerMCycle;
    const std::uint64_t H = spec.horizonCycles;

    RetryPolicy retry;
    retry.enabled = true;
    retry.maxRetries = 3;
    retry.backoffBaseNs = 1'000;

    // At a uniform 1 GHz the arrival horizon in cycles is the fault
    // horizon in ns.
    FaultProgram crash;
    crash.enabled = true;
    crash.horizonNs = 2 * H;
    crash.crashes.push_back(CrashWindow{0, H / 2, H / 4});

    FaultProgram straggle;
    straggle.enabled = true;
    straggle.horizonNs = 2 * H;
    straggle.stragglers.push_back(
        StragglerWindow{0, 3 * H / 10, 3 * H / 10, 2.5});

    FaultProgram mtbf;
    mtbf.enabled = true;
    mtbf.horizonNs = H;
    mtbf.mtbfNs = H / 3;
    mtbf.mttrNs = H / 30;
    mtbf.seed = 11;

    RetryPolicy hedged = retry;
    hedged.hedgeDelayNs = static_cast<std::uint64_t>(8.0 * b.meanCycles);

    const auto faulted = [&](const char *name, const FaultProgram &program,
                             const RetryPolicy &rp) {
        SchedulerConfig scfg = makeConfig(QueuePolicy::Fifo, false);
        scfg.faults = program;
        scfg.retry = rp;
        return b.scenario(name, 2, spec, scfg);
    };
    const std::vector<Row> rows =
        b.run({faulted("flt-none", FaultProgram{}, RetryPolicy{}),
               faulted("flt-crash", crash, retry),
               faulted("flt-strag", straggle, RetryPolicy{}),
               faulted("flt-mtbf", mtbf, retry),
               faulted("flt-hedge", crash, hedged)});

    // Gate (b)'s availability-aware plan. At 2.2x single-instance load
    // the smallest un-saturated fleet is 3; the SLO is calibrated off
    // that fleet fault-free with 50% slack, so the nominal plan picks
    // it. Replanning with a mid-horizon crash of one instance in the
    // search space must pay for a spare — and the spare must be what
    // lets the fleet hold the SLO through the crash the nominal fleet
    // fails.
    WorkloadSpec pspec = b.base;
    pspec.horizonCycles = b.horizon(5'000'000, 30'000'000, 80'000'000);
    pspec.requestsPerMCycle = 2.2 * b.capacityPerMCycle;
    const std::uint64_t PH = pspec.horizonCycles;
    FaultProgram outage;
    outage.enabled = true;
    outage.horizonNs = 2 * PH;
    outage.crashes.push_back(CrashWindow{0, 3 * PH / 10, PH / 2});

    const CapacityPlanner planner = b.planner(pointAccConfig());
    PlanSearchSpace space;
    space.minFleetSize = 1;
    space.maxFleetSize = 6;
    space.base = makeConfig(QueuePolicy::Fifo, false);
    const auto trace = WorkloadGenerator(pspec).generate();
    const auto calib = planner.probe(3, space.base, trace);
    SloSpec slo;
    slo.maxP99Cycles =
        static_cast<std::uint64_t>(1.5 * calib.p99Cycles()) + 1;
    const PlanReport nominal = planner.plan(pspec, slo, space);
    PlanSearchSpace availSpace = space;
    availSpace.faults = outage;
    availSpace.retry = retry;
    const PlanReport avail = planner.plan(pspec, slo, availSpace);

    // Re-probe both chosen fleets under the outage, on the same trace:
    // the premium must be what holds the SLO.
    const std::size_t nominalN =
        nominal.feasible ? nominal.chosen.fleetSize : 3;
    const std::size_t availN =
        avail.feasible ? avail.chosen.fleetSize : space.maxFleetSize;
    const SchedulerConfig faultedCfg =
        schedulerConfigFor(availSpace, avail.chosen);
    const auto nominalUnderFault =
        planner.probe(nominalN, faultedCfg, trace);
    const auto availUnderFault = planner.probe(availN, faultedCfg, trace);
    const double nominalP99 = nominalUnderFault.p99Ms();
    const double availP99 = availUnderFault.p99Ms();
    const bool bothFeasible = nominal.feasible && avail.feasible;
    const bool nominalFails = !meetsSlo(nominalUnderFault, slo);
    const bool availHolds = meetsSlo(availUnderFault, slo);
    std::printf("faults plan: SLO p99 <= %.3f ms at %.2f req/Mcycle; "
                "nominal fleet %zu (p99 %.3f ms under crash), "
                "availability fleet %zu (p99 %.3f ms under crash)\n",
                sloMs(slo), pspec.requestsPerMCycle, nominalN, nominalP99,
                availN, availP99);

    bool conserved = true;
    for (const Row &r : rows) {
        const auto &rep = r.report;
        conserved = conserved &&
                    rep.generated == rep.admitted + rep.dropped &&
                    rep.admitted ==
                        rep.completed + rep.failed + rep.leftoverQueued &&
                    rep.goodputRps() <= rep.throughputRps();
    }
    b.gate(conserved,
           "faults conservation (admitted = completed + failed + leftover) "
           "and goodput <= throughput on %zu rows",
           rows.size());

    const auto &crashed = rows[1].report.faults;
    const auto &stragged = rows[2].report.faults;
    const auto &mtbfed = rows[3].report.faults;
    const auto &hedgedRow = rows[4].report.faults;
    b.gate(crashed.crashes >= 1 && crashed.inflightFailed >= 1 &&
               crashed.retryAttempts >= 1 &&
               stragged.stragglerWindows >= 1 && mtbfed.crashes >= 1 &&
               hedgedRow.hedges >= 1,
           "faults observability: crash row %llu crashes / %llu in-flight "
           "kills / %llu retries, straggler row %llu windows, mtbf row "
           "%llu crashes, hedge row %llu hedges",
           static_cast<unsigned long long>(crashed.crashes),
           static_cast<unsigned long long>(crashed.inflightFailed),
           static_cast<unsigned long long>(crashed.retryAttempts),
           static_cast<unsigned long long>(stragged.stragglerWindows),
           static_cast<unsigned long long>(mtbfed.crashes),
           static_cast<unsigned long long>(hedgedRow.hedges));

    const SchedulerConfig plain = makeConfig(QueuePolicy::Fifo, false);
    SchedulerConfig empty = plain;
    empty.faults.enabled = true; // no windows, no rates
    b.gate(b.matchesReference({pointAccConfig(), pointAccConfig()}, empty,
                              plain),
           "faults empty-program byte-identity vs reference engine");

    if (b.smoke)
        b.gate(bothFeasible && availN >= nominalN && availHolds,
               "faults plan smoke: nominal %zu -> availability %zu, "
               "availability holds under crash %s",
               nominalN, availN, availHolds ? "yes" : "no");
    else
        b.gate(bothFeasible && availN > nominalN && nominalFails &&
                   availHolds,
               "faults availability plan: nominal %zu (p99 %.3f ms under "
               "crash, %s) vs availability %zu (p99 %.3f ms, %s) against "
               "SLO %.3f ms",
               nominalN, nominalP99, nominalFails ? "misses" : "meets",
               availN, availP99, availHolds ? "meets" : "misses",
               sloMs(slo));

    b.envelope = [=](JsonWriter &w) {
        w.key("faults").beginObject();
        w.field("slo_p99_cycles", slo.maxP99Cycles);
        w.field("nominal_fleet_size", static_cast<std::uint64_t>(nominalN));
        w.field("availability_fleet_size",
                static_cast<std::uint64_t>(availN));
        w.field("nominal_p99_under_fault_ms", nominalP99);
        w.field("availability_p99_under_fault_ms", availP99);
        w.field("both_feasible", bothFeasible);
        w.field("nominal_fails_under_fault", nominalFails);
        w.field("availability_holds_under_fault", availHolds);
        w.endObject();
    };
}

// Run-ahead depth + cost-aware hold-vs-dispatch. Two grids. The
// dispatch trio — pure-eager (target K 1), pure-hold (wait-for-K with
// the blind timer) and the cost-aware hold-vs-dispatch — must see the
// cost-aware policy win throughput or p99 against BOTH baselines. The
// depth ladder (k = 1/2/4) must be monotone. And depth 1 with pricing
// off must serve byte-identically to the reference engine. --smoke
// keeps the identity and the ladder (the monotonicity argument is
// horizon-independent) and relaxes the trio to structural echoes.
void
sweepRunahead(Bench &b)
{
    const std::uint64_t H = b.horizon(5'000'000, 30'000'000, 100'000'000);

    // Dispatch trio: all-PointNet++-small Poisson arrivals at 1.0x one
    // instance's solo capacity. That network has the fattest
    // weight-reload share of the catalog (~21% of solo service), so a
    // caught batch partner pays best; at the capacity knee the backend
    // alternates between committed backlog (where eager dispatch
    // forfeits amortization a free hold would have caught) and idle
    // spells (where the blind timer queues waits for nothing) — the
    // regime where pricing the decision beats both fixed policies.
    // Bursty traffic would deliver batch partners simultaneously and
    // make the hold decision vacuous, and a mixed-network stream would
    // dilute the weight-reload amortization the hold buys.
    const double ppCycles = b.soloCycles(1, 0);
    WorkloadSpec trioSpec = b.base;
    trioSpec.horizonCycles = H;
    trioSpec.mix = {{1, 0, 1.0, 0}};
    trioSpec.requestsPerMCycle = 1e6 / ppCycles;
    const auto holdWait = static_cast<std::uint64_t>(2.0 * ppCycles);
    const SchedulerConfig holdCfg = makeConfig(
        QueuePolicy::Fifo, true, OccupancyModel::Pipelined, 2, holdWait);
    SchedulerConfig costCfg = holdCfg;
    costCfg.batcher.costAware = true;

    // Depth ladder: the two-batch stall scenario at fleet 1 under the
    // standard mix, batching off, FIFO. queueDepth is raised so no
    // request drops; with an identical admitted set, a deeper
    // mapped-output buffer can only start maps earlier, so throughput
    // must not drop and p99 must not rise.
    WorkloadSpec depthSpec = b.base;
    depthSpec.horizonCycles = H;
    depthSpec.requestsPerMCycle = 1.5 * b.capacityPerMCycle;
    SchedulerConfig depthCfg = makeConfig(QueuePolicy::Fifo, false);
    depthCfg.queueDepth = std::size_t{1} << 20;

    std::vector<Scenario> tasks{
        b.scenario("ra-eager", 1, trioSpec,
                   makeConfig(QueuePolicy::Fifo, true,
                              OccupancyModel::Pipelined, 1, 0)),
        b.scenario("ra-hold", 1, trioSpec, holdCfg),
        b.scenario("ra-cost", 1, trioSpec, costCfg)};
    const std::uint32_t depths[] = {1, 2, 4};
    for (const std::uint32_t depth : depths) {
        depthCfg.runAheadDepth = depth;
        tasks.push_back(b.scenario("ra-k" + std::to_string(depth), 1,
                                   depthSpec, depthCfg));
    }
    const std::vector<Row> rows = b.run(std::move(tasks));

    SchedulerConfig inert = makeConfig(
        QueuePolicy::Fifo, true, OccupancyModel::Pipelined, 4, holdWait);
    inert.runAheadDepth = 1;
    inert.batcher.costAware = false;
    b.gate(b.matchesReference({pointAccConfig(), pointAccConfig()}, inert,
                              inert),
           "runahead depth-1/cost-off byte-identity vs reference engine");

    const ServingReport &eager = rows[0].report;
    const ServingReport &hold = rows[1].report;
    const ServingReport &cost = rows[2].report;
    b.gate(cost.costAware && cost.costHolds + cost.costDispatches > 0,
           "runahead cost model engaged: %llu holds / %llu dispatches "
           "priced",
           static_cast<unsigned long long>(cost.costHolds),
           static_cast<unsigned long long>(cost.costDispatches));
    if (!b.smoke) {
        const bool beatsEager =
            cost.throughputRps() > eager.throughputRps() ||
            cost.p99Ms() < eager.p99Ms();
        const bool beatsHold =
            cost.throughputRps() > hold.throughputRps() ||
            cost.p99Ms() < hold.p99Ms();
        b.gate(beatsEager && beatsHold,
               "runahead hold-vs-dispatch: cost-aware %.0f r/s / p99 %.3f "
               "ms vs eager %.0f / %.3f (%s) and vs hold %.0f / %.3f (%s)",
               cost.throughputRps(), cost.p99Ms(), eager.throughputRps(),
               eager.p99Ms(), beatsEager ? "wins" : "loses",
               hold.throughputRps(), hold.p99Ms(),
               beatsHold ? "wins" : "loses");
    }

    bool ladder = true;
    for (std::size_t i = 0; i < 3; ++i) {
        const ServingReport &deep = rows[3 + i].report;
        ladder = ladder && deep.runAheadDepth == depths[i] &&
                 deep.dropRate() == 0.0;
        if (i > 0) {
            const ServingReport &shallow = rows[2 + i].report;
            ladder = ladder &&
                     deep.throughputRps() >= shallow.throughputRps() &&
                     deep.p99Ms() <= shallow.p99Ms();
        }
    }
    b.gate(ladder,
           "runahead depth ladder k=1/2/4: thru %.0f/%.0f/%.0f r/s "
           "non-decreasing, p99 %.3f/%.3f/%.3f ms non-increasing, no drops",
           rows[3].report.throughputRps(), rows[4].report.throughputRps(),
           rows[5].report.throughputRps(), rows[3].report.p99Ms(),
           rows[4].report.p99Ms(), rows[5].report.p99Ms());
}

struct Sweep
{
    const char *name;
    bool inAll;    ///< run by `--sweep all` (the default)
    bool hasSmoke; ///< accepts `--smoke`
    void (*run)(Bench &);
};

const Sweep kSweeps[] = {
    {"fleet", true, false, sweepFleet},
    {"policy", true, false, sweepPolicy},
    {"batching", true, false, sweepBatching},
    {"pipeline", true, false, sweepPipeline},
    {"wait-for-k", true, false, sweepWaitForK},
    {"cache", true, false, sweepCache},
    {"plan", false, true, sweepPlan},
    {"hetero", false, true, sweepHetero},
    {"traffic", false, true, sweepTraffic},
    {"faults", false, true, sweepFaults},
    {"runahead", false, true, sweepRunahead},
};

/** A whole non-negative decimal number, or false (strtoul alone would
 *  read "x" as 0, which --threads takes as one worker per core). */
bool
parseCount(const char *text, std::size_t &out)
{
    char *end = nullptr;
    const unsigned long v = std::strtoul(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0')
        return false;
    out = static_cast<std::size_t>(v);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string sweepNames = "all";
    std::string smokeNames;
    for (const Sweep &s : kSweeps) {
        sweepNames += std::string("|") + s.name;
        if (s.hasSmoke)
            smokeNames +=
                (smokeNames.empty() ? "" : "|") + std::string(s.name);
    }
    const auto usage = [&](const std::string &problem, const char *what) {
        std::fprintf(stderr,
                     "error: %s '%s'\nusage: bench_serving [--sweep %s] "
                     "[--quick] [--smoke] [--threads <n>] "
                     "[--json <path> | --no-json]\n",
                     problem.c_str(), what, sweepNames.c_str());
        return 2;
    };

    std::string jsonPath = "BENCH_serving.json";
    std::string sweepSel = "all";
    bool quick = false;
    bool smoke = false;
    std::size_t threadsArg = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick")
            quick = true;
        else if (arg == "--smoke")
            smoke = true;
        else if (arg == "--no-json")
            jsonPath.clear();
        else if (arg != "--json" && arg != "--sweep" && arg != "--threads")
            return usage("unknown argument", argv[i]);
        else if (i + 1 == argc)
            return usage("missing value for", argv[i]);
        else if (arg == "--json")
            jsonPath = argv[++i];
        else if (arg == "--sweep")
            sweepSel = argv[++i];
        else if (!parseCount(argv[++i], threadsArg))
            return usage("--threads takes a whole number, not", argv[i]);
    }
    // An unknown sweep would select nothing, skip every gate and exit
    // 0 — reject it so a typoed CI invocation cannot silently pass.
    const Sweep *only = nullptr;
    for (const Sweep &s : kSweeps)
        if (sweepSel == s.name)
            only = &s;
    if (only == nullptr && sweepSel != "all")
        return usage("unknown --sweep", sweepSel.c_str());
    if (smoke && (only == nullptr || !only->hasSmoke))
        return usage("--smoke applies to --sweep " + smokeNames + ", not",
                     sweepSel.c_str());

    bench::banner("Serving runtime: fleets of PointAcc under open load",
                  "runtime/ subsystem (beyond the paper)");

    // Catalog: an object-classification network, a hierarchical
    // PointNet++ and a scene-segmentation MinkowskiUNet, each at two
    // cloud-size buckets. Profiling = 6 simulator runs, memoized.
    ServingCatalog catalog;
    catalog.networks = {pointNet(), pointNetPPClass(),
                        minkowskiUNetIndoor()};
    catalog.bucketScales = {0.05, 0.1};
    SimServiceModel model(catalog);

    // Scenario executor: the model's profiling memo is internally
    // synchronized (first profiler wins, everyone reads one value).
    const std::size_t poolThreads =
        ProbeExecutor::resolveThreads(threadsArg);
    ProbeExecutor pool(poolThreads);
    std::printf("threads: %zu (%s)\n", poolThreads,
                poolThreads == 0 ? "serial, inline" : "one-queue pool");

    // Price the mix against one PointAcc to express offered load in
    // fractions of single-instance capacity.
    WorkloadSpec base;
    base.mix = {
        {0, 0, 4.0, 0}, // PointNet, small clouds, bulk of traffic
        {1, 1, 2.0, 0}, // PointNet++, larger objects
        {2, 1, 1.0, 0}, // MinkowskiUNet scenes, the heavy tail
    };
    double meanCycles = 0.0;
    double mapShare = 0.0;
    double totalWeight = 0.0;
    for (const auto &cls : base.mix) {
        const auto p =
            model.profile(pointAccConfig(), cls.networkId, cls.sizeBucket);
        meanCycles += cls.weight * static_cast<double>(p.totalCycles);
        mapShare += cls.weight * static_cast<double>(p.phases().mapCycles);
        totalWeight += cls.weight;
    }
    meanCycles /= totalWeight;
    mapShare /= totalWeight;
    const double capacityPerMCycle = 1e6 / meanCycles; // one instance
    std::printf("mix mean service: %.0f cycles (%.0f%% mapping phase) "
                "-> 1-instance capacity %.2f req/Mcycle\n\n",
                meanCycles, 100.0 * mapShare / meanCycles,
                capacityPerMCycle);
    printHeader();

    base.seed = 2026;
    base.horizonCycles = quick ? 100'000'000 : 400'000'000;
    base.arrivals = ArrivalProcess::Poisson;
    Bench b{model,       pool,       threadsArg, poolThreads,      quick,
            smoke,       base,       meanCycles, capacityPerMCycle};
    for (const Sweep &s : kSweeps) {
        if (only == nullptr ? s.inAll : &s == only) {
            s.run(b);
            bench::rule(122);
        }
    }

    // Profiling is memoized across sweep rows: each (accelerator class,
    // network, bucket) triple runs the real simulator at most once per
    // process, however many rows consumed it. The hetero sweep adds two
    // classes (the renamed 2 GHz server and the edge part); every other
    // sweep profiles only the stock server class.
    const std::uint64_t maxTriples =
        (sweepSel == "hetero" ? 3 : 1) *
        static_cast<std::uint64_t>(catalog.networks.size() *
                                   catalog.bucketScales.size());
    b.gate(model.profiledRuns() <= maxTriples,
           "profiling memoization: %llu simulator runs for <= %llu "
           "distinct triples across %zu rows",
           static_cast<unsigned long long>(model.profiledRuns()),
           static_cast<unsigned long long>(maxTriples), b.rows.size());

    if (!jsonPath.empty()) {
        std::ofstream jf(jsonPath);
        JsonWriter w(jf);
        w.beginObject();
        w.field("bench", "serving");
        w.key("rows").beginArray();
        for (const Row &r : b.rows)
            writeRow(w, r);
        w.endArray();
        if (b.envelope)
            b.envelope(w);
        w.endObject();
        jf << '\n';
        jf.flush();
        if (jf.good())
            std::printf("wrote %s\n", jsonPath.c_str());
        else
            std::fprintf(stderr, "error: could not write %s\n",
                         jsonPath.c_str());
    }
    return b.ok ? 0 : 1;
}
