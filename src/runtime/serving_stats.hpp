/**
 * @file
 * Serving-level metrics: what a fleet operator reads off a dashboard.
 *
 * The per-inference simulator answers "how many cycles does one run
 * take"; the serving runtime answers "what latency distribution do
 * users see at this offered load with this fleet". This header holds
 * the report every FleetScheduler::run produces: tail latencies
 * (p50/p95/p99), throughput, per-accelerator utilization, drop and
 * deadline-miss accounting, and the conservation counters the runtime
 * tests check (generated = admitted + dropped; admitted = completed +
 * failed + leftoverQueued).
 *
 * A report keeps only what its outputs read. Latency keeps its raw
 * samples in core/stats' Summary, because the p50/p95/p99 are
 * nearest-rank percentiles over them; queue wait and batch size keep
 * exact Moments (count, sum, min, max), because nothing reads more
 * than their mean. completionCycles keeps one timestamp per served
 * request.
 *
 * Invariants (fuzzed by test_runtime_properties): both identities,
 * with failed == 0 on a fault-free run and leftoverQueued == 0 after a
 * drained one (only a crash can strand requests); completionCycles is
 * non-decreasing with exactly one entry per completion; per-stage busy
 * cycles never exceed horizonCycles (so every utilization is <= 1);
 * mapCache.hits + mapCache.misses equals the requests priced against
 * the cache. writeServingJson's key set is pinned by
 * tests/test_report_golden.cpp and documented in docs/SERVING_JSON.md
 * (scripts/ci.sh greps that the two never drift apart).
 */

#ifndef POINTACC_RUNTIME_SERVING_STATS_HPP
#define POINTACC_RUNTIME_SERVING_STATS_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "runtime/autoscaler.hpp"
#include "runtime/faults.hpp"
#include "runtime/map_cache.hpp"
#include "runtime/traffic.hpp"

namespace pointacc {

/** Per-accelerator service accounting. The busy counters are ticks on
 *  the global ns event axis (equal to this instance's cycles only at
 *  1 GHz; multiply by freqGHz for actual clock cycles) — the *Cycles
 *  field names survive the time-domain migration so the frozen
 *  reference engine and its differential gates stay untouched. */
struct AcceleratorUsage
{
    std::string name;
    /** This instance's clock, for converting its busy ns to cycles. */
    double freqGHz = 1.0;
    /** Event-axis ns during which >= 1 batch was somewhere on the
     *  instance (union of per-batch residency intervals, so overlapped
     *  phases are not double-counted and utilization stays <= 1). */
    std::uint64_t busyCycles = 0;
    /** Event-axis ns the Mapping Unit front-end stage spent mapping. */
    std::uint64_t mapBusyCycles = 0;
    /** Event-axis ns the Matrix Unit + memory back-end stage spent
     *  serving. */
    std::uint64_t backendBusyCycles = 0;
    std::uint64_t batches = 0;
    std::uint64_t requests = 0;

    /** Busy fraction of the simulated span; always <= 1. */
    double
    utilization(std::uint64_t horizon_cycles) const
    {
        return horizon_cycles == 0
                   ? 0.0
                   : static_cast<double>(busyCycles) /
                         static_cast<double>(horizon_cycles);
    }

    /** Front-end (mapping) stage busy fraction; always <= 1. */
    double
    mapUtilization(std::uint64_t horizon_cycles) const
    {
        return horizon_cycles == 0
                   ? 0.0
                   : static_cast<double>(mapBusyCycles) /
                         static_cast<double>(horizon_cycles);
    }

    /** Back-end (matrix + memory) stage busy fraction; always <= 1. */
    double
    backendUtilization(std::uint64_t horizon_cycles) const
    {
        return horizon_cycles == 0
                   ? 0.0
                   : static_cast<double>(backendBusyCycles) /
                         static_cast<double>(horizon_cycles);
    }
};

/** Result of one serving simulation. Every timestamp, latency and
 *  span below is measured on the global wall-clock event axis in
 *  nanoseconds; the *Cycles field and key names are kept (they are
 *  numerically identical at the 1 GHz configs both Table 3 parts use,
 *  and renaming them would churn the frozen reference engine), with
 *  honest *_ns keys emitted alongside in writeServingJson. */
struct ServingReport
{
    /** Lead (first) instance's clock — informational; conversions
     *  below are frequency-free because the axis is already ns. */
    double freqGHz = 1.0;
    /** Simulated span: max(last arrival, last completion) ns. */
    std::uint64_t horizonCycles = 0;
    /** Occupancy model the scheduler ran ("monolithic"/"pipelined"). */
    std::string occupancy;
    /** Wait-for-K hold episodes: distinct batch leaders the batcher
     *  held hoping for more compatible requests (one per episode — a
     *  leader's id leaves the dedup set when it dispatches, so the
     *  set is bounded by queue depth and a later re-queued request
     *  starts a fresh episode). */
    std::uint64_t batchHolds = 0;
    /** Main-loop iterations (distinct event times processed). Not
     *  serialized — a wall-clock denominator for bench_simperf's
     *  events-per-second metric, identical across the production and
     *  reference engines. */
    std::uint64_t loopEvents = 0;
    /** Peak size of the scheduler's hold-dedup set. Not serialized —
     *  the --scale tier asserts it stays bounded by queue depth on
     *  10^5-request wait-for-K traces (the set must never grow with
     *  trace length). */
    std::uint64_t holdTrackingPeak = 0;

    // Run-ahead buffer telemetry (SchedulerConfig::runAheadDepth).
    // The run_ahead_* JSON block is emitted only at depth != 1, so
    // default-depth reports stay byte-identical to pre-run-ahead
    // output.
    /** Echo of SchedulerConfig::runAheadDepth. */
    std::uint32_t runAheadDepth = 1;
    /** Mapped batches parked in the staging buffer because the back-end
     *  was still busy (each park is one batch the blocking handoff
     *  would have stalled the front-end on). */
    std::uint64_t runAheadStaged = 0;
    /** Peak staging-buffer occupancy across the fleet; <= depth - 1. */
    std::uint64_t runAheadPeakStaged = 0;

    // Cost-aware dispatch telemetry (BatcherConfig::costAware). The
    // cost_aware_* JSON block is emitted only when the mode is on.
    /** Echo of BatcherConfig::costAware. */
    bool costAware = false;
    /** Hold decisions where the priced amortization gain beat the
     *  forfeited overlap (one per dispatch-pass evaluation). */
    std::uint64_t costHolds = 0;
    /** Batches the cost model released undersized (below target K)
     *  because waiting longer no longer paid. */
    std::uint64_t costDispatches = 0;

    // Conservation counters. With fault injection the admitted side
    // extends to a three-way split: admitted = completed + failed +
    // leftoverQueued (failed is always 0 on a fault-free run, so the
    // legacy two-way identity is the same equation).
    std::uint64_t generated = 0; ///< requests offered by the workload
    std::uint64_t admitted = 0;  ///< accepted into the queue
    std::uint64_t dropped = 0;   ///< rejected at admission (queue full)
    std::uint64_t completed = 0; ///< served to completion
    /** Terminal failures: crash victims whose retries were exhausted,
     *  shed at re-admission, or timed out (runtime/faults). */
    std::uint64_t failed = 0;
    std::uint64_t leftoverQueued = 0; ///< still queued when sim ended
    std::uint64_t deadlineMisses = 0; ///< completed after their deadline

    Summary latencyCycles;  ///< arrival -> completion, per request
    Moments queueWaitCycles;///< arrival -> dispatch, per request
    Moments batchSize;      ///< requests per dispatch

    /** Kernel-map cache counters (all zero when the cache is off). */
    MapCacheStats mapCache;

    /** Completion timestamp of every served request, in completion
     *  order (non-decreasing by construction; the property tests
     *  assert it). Parallels latencyCycles' samples. */
    std::vector<std::uint64_t> completionCycles;

    std::vector<AcceleratorUsage> accelerators;

    /** Autoscaler outcome; default-disabled. The autoscaler_* JSON
     *  block is emitted only when enabled, so unscaled reports stay
     *  byte-identical to pre-autoscaler output. */
    AutoscalerStats autoscaler;

    /** Fault/retry counters (runtime/faults); default-disabled. The
     *  fault_* / retry_* JSON block is emitted only when the run
     *  materialized fault events or had retries enabled, so
     *  fault-free reports stay byte-identical to pre-fault output. */
    FaultStats faults;

    /** Traffic-program shape the run served, when the caller drove a
     *  TrafficStream (filled by the bench/example harnesses, not the
     *  scheduler — the scheduler only sees a RequestSource). The
     *  traffic_* JSON block is emitted only when present. */
    TrafficTelemetry traffic;

    /** Event-axis ns -> milliseconds. Frequency-free: the axis is
     *  wall time, so a mixed-frequency fleet needs no per-instance
     *  bookkeeping here (and at 1 GHz this is bit-identical to the
     *  pre-migration cycles/(freq*1e6) conversion). */
    double
    cyclesToMs(double ns) const
    {
        return ns / 1e6;
    }

    double p50Ms() const { return cyclesToMs(latencyCycles.percentile(0.50)); }
    double p95Ms() const { return cyclesToMs(latencyCycles.percentile(0.95)); }
    double p99Ms() const { return cyclesToMs(latencyCycles.percentile(0.99)); }
    double meanMs() const { return cyclesToMs(latencyCycles.mean()); }

    /** p99 latency in event-axis ns — the unit SLOs are written in
     *  (the capacity planner compares it against SloSpec::maxP99Cycles
     *  without any conversion). */
    double p99Cycles() const { return latencyCycles.percentile(0.99); }

    /** Completed requests per second of simulated wall time. */
    double
    throughputRps() const
    {
        if (horizonCycles == 0)
            return 0.0;
        const double seconds =
            static_cast<double>(horizonCycles) / 1e9;
        return static_cast<double>(completed) / seconds;
    }

    /** Useful completions per second: requests that finished within
     *  their deadline. Deadline misses are counted among completions,
     *  so goodput <= throughput always (the property suite pins the
     *  invariant); on a best-effort mix the two are equal. */
    double
    goodputRps() const
    {
        if (horizonCycles == 0)
            return 0.0;
        const double seconds =
            static_cast<double>(horizonCycles) / 1e9;
        return static_cast<double>(completed - deadlineMisses) /
               seconds;
    }

    double
    dropRate() const
    {
        return generated == 0 ? 0.0
                              : static_cast<double>(dropped) /
                                    static_cast<double>(generated);
    }
};

/**
 * Merge per-shard reports from a sharded simulation (bench_simperf's
 * parallel tier: disjoint sub-fleets each serving a slice of the
 * offered load) into one fleet-level report. Deterministic: shards are
 * folded in vector order whatever order they were simulated in, so a
 * sharded run's report is a pure function of the shard list —
 * independent of thread count.
 *
 * Semantics: counters and busy cycles sum; latency/wait/batch
 * statistics merge in shard order (Summary::merge, Moments::merge);
 * completionCycles are the shards' non-decreasing streams joined by
 * one k-way heap merge into a vector reserved to the exact total, so
 * the fleet-level stream stays non-decreasing; horizon is the max over shards (the fleet's span is its slowest
 * shard's span); accelerators concatenate in shard order; freqGHz and
 * occupancy are taken from the first shard (shards are homogeneous by
 * construction — the caller splits one fleet, it does not mix
 * configs). Autoscaler and traffic telemetry stay default: the sharded
 * tier drives neither.
 */
ServingReport mergeShardReports(const std::vector<ServingReport> &shards);

/** One-paragraph operator summary. */
std::string servingSummaryText(const ServingReport &report);

/** Machine-readable dump for the BENCH_*.json perf trajectory. */
void writeServingJson(std::ostream &os, const ServingReport &report);

} // namespace pointacc

#endif // POINTACC_RUNTIME_SERVING_STATS_HPP
