#include "runtime/serving_stats.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "core/json.hpp"
#include "core/logging.hpp"

namespace pointacc {

ServingReport
mergeShardReports(const std::vector<ServingReport> &shards)
{
    simAssert(!shards.empty(), "mergeShardReports needs >= 1 shard");
    ServingReport merged;
    merged.freqGHz = shards.front().freqGHz;
    merged.occupancy = shards.front().occupancy;
    for (const ServingReport &shard : shards) {
        merged.horizonCycles =
            std::max(merged.horizonCycles, shard.horizonCycles);
        merged.batchHolds += shard.batchHolds;
        merged.loopEvents += shard.loopEvents;
        merged.holdTrackingPeak =
            std::max(merged.holdTrackingPeak, shard.holdTrackingPeak);
        // Shards run one scheduler config, so the depth/mode echoes
        // agree across them; counters sum, the peak is a max.
        merged.runAheadDepth = shard.runAheadDepth;
        merged.runAheadStaged += shard.runAheadStaged;
        merged.runAheadPeakStaged = std::max(merged.runAheadPeakStaged,
                                             shard.runAheadPeakStaged);
        merged.costAware = merged.costAware || shard.costAware;
        merged.costHolds += shard.costHolds;
        merged.costDispatches += shard.costDispatches;
        merged.generated += shard.generated;
        merged.admitted += shard.admitted;
        merged.dropped += shard.dropped;
        merged.completed += shard.completed;
        merged.failed += shard.failed;
        merged.leftoverQueued += shard.leftoverQueued;
        merged.deadlineMisses += shard.deadlineMisses;
        merged.faults.enabled =
            merged.faults.enabled || shard.faults.enabled;
        merged.faults.crashes += shard.faults.crashes;
        merged.faults.recoveries += shard.faults.recoveries;
        merged.faults.stragglerWindows += shard.faults.stragglerWindows;
        merged.faults.inflightFailed += shard.faults.inflightFailed;
        merged.faults.failedBatches += shard.faults.failedBatches;
        merged.faults.failovers += shard.faults.failovers;
        merged.faults.retryAttempts += shard.faults.retryAttempts;
        merged.faults.retryShed += shard.faults.retryShed;
        merged.faults.retryExhausted += shard.faults.retryExhausted;
        merged.faults.retryTimeouts += shard.faults.retryTimeouts;
        merged.faults.retryBackoffNsTotal +=
            shard.faults.retryBackoffNsTotal;
        merged.faults.hedges += shard.faults.hedges;
        merged.faults.hedgesWon += shard.faults.hedgesWon;
        merged.faults.hedgesLost += shard.faults.hedgesLost;
        merged.latencyCycles.merge(shard.latencyCycles);
        merged.queueWaitCycles.merge(shard.queueWaitCycles);
        merged.batchSize.merge(shard.batchSize);
        merged.mapCache.hits += shard.mapCache.hits;
        merged.mapCache.misses += shard.mapCache.misses;
        merged.mapCache.insertions += shard.mapCache.insertions;
        merged.mapCache.evictions += shard.mapCache.evictions;
        merged.mapCache.bytesSaved += shard.mapCache.bytesSaved;
        merged.mapCache.cyclesSaved += shard.mapCache.cyclesSaved;
        merged.accelerators.insert(merged.accelerators.end(),
                                   shard.accelerators.begin(),
                                   shard.accelerators.end());
    }
    // Each shard's completion stream is non-decreasing, so one k-way
    // merge keeps the fleet-level stream non-decreasing too (the
    // invariant the property suite checks on every report). The heap
    // holds one cursor per non-empty shard, keyed by its head value
    // and least on top: each step emits the top's head, advances that
    // cursor (or swaps in the last one once its shard runs dry) and
    // sifts it down.
    struct Cursor
    {
        std::uint64_t head;
        const std::uint64_t *next;
        const std::uint64_t *end;
    };
    std::vector<Cursor> heap;
    std::size_t total = 0;
    for (const ServingReport &shard : shards) {
        const auto &c = shard.completionCycles;
        total += c.size();
        if (!c.empty())
            heap.push_back({c.front(), c.data() + 1, c.data() + c.size()});
    }
    std::make_heap(heap.begin(), heap.end(),
                   [](const Cursor &a, const Cursor &b) {
                       return a.head > b.head;
                   });
    merged.completionCycles.reserve(total);
    while (!heap.empty()) {
        Cursor top = heap.front();
        merged.completionCycles.push_back(top.head);
        if (top.next != top.end) {
            top.head = *top.next++;
        } else {
            top = heap.back();
            heap.pop_back();
        }
        const std::size_t n = heap.size();
        std::size_t i = 0;
        for (std::size_t k = 1; k < n; k = 2 * i + 1) {
            if (k + 1 < n && heap[k + 1].head < heap[k].head)
                ++k;
            if (top.head <= heap[k].head)
                break;
            heap[i] = heap[k];
            i = k;
        }
        if (i < n)
            heap[i] = top;
    }
    return merged;
}

std::string
servingSummaryText(const ServingReport &report)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(3);
    os << report.completed << " completed / " << report.generated
       << " offered (" << report.dropped << " dropped, ";
    if (report.faults.enabled)
        os << report.failed << " failed, ";
    os << report.deadlineMisses << " deadline misses), "
       << std::setprecision(1) << report.throughputRps() << " req/s, "
       << std::setprecision(3) << "latency p50 " << report.p50Ms()
       << " / p95 " << report.p95Ms() << " / p99 " << report.p99Ms()
       << " ms";
    if (report.mapCache.hits + report.mapCache.misses > 0) {
        os << ", map cache " << std::setprecision(0)
           << 100.0 * report.mapCache.hitRate() << "% hits ("
           << report.mapCache.evictions << " evictions)"
           << std::setprecision(3);
    }
    if (report.autoscaler.enabled) {
        os << ", autoscaler " << report.autoscaler.scaleUps << " up / "
           << report.autoscaler.scaleDowns << " down (peak "
           << report.autoscaler.peakProvisioned << ", final "
           << report.autoscaler.finalProvisioned << ")";
    }
    if (report.faults.enabled) {
        os << ", faults " << report.faults.crashes << " crashes / "
           << report.faults.recoveries << " recoveries ("
           << report.faults.retryAttempts << " retries, "
           << report.faults.failovers << " failovers)";
    }
    if (!report.accelerators.empty()) {
        os << ", util";
        for (const auto &acc : report.accelerators) {
            os << ' ' << acc.name << ' ' << std::setprecision(2)
               << acc.utilization(report.horizonCycles);
        }
    }
    return os.str();
}

void
writeServingJson(std::ostream &os, const ServingReport &report)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("freq_ghz", report.freqGHz);
    // The event axis is wall time: horizon_ns is the honest name,
    // horizon_cycles the legacy alias (equal ticks; cycles only at
    // 1 GHz). Both are kept so archived BENCH_*.json diffs cleanly.
    w.field("horizon_cycles", report.horizonCycles);
    w.field("horizon_ns", report.horizonCycles);
    w.field("occupancy",
            report.occupancy.empty() ? "monolithic" : report.occupancy);
    w.field("batch_holds", report.batchHolds);
    w.field("generated", report.generated);
    w.field("admitted", report.admitted);
    w.field("dropped", report.dropped);
    w.field("completed", report.completed);
    w.field("failed", report.failed);
    w.field("leftover_queued", report.leftoverQueued);
    w.field("deadline_misses", report.deadlineMisses);
    w.field("throughput_rps", report.throughputRps());
    w.field("goodput_rps", report.goodputRps());
    w.field("drop_rate", report.dropRate());
    w.field("latency_ms_mean", report.meanMs());
    w.field("latency_ms_p50", report.p50Ms());
    w.field("latency_ms_p95", report.p95Ms());
    w.field("latency_ms_p99", report.p99Ms());
    w.field("latency_ns_p50", report.latencyCycles.percentile(0.50));
    w.field("latency_ns_p95", report.latencyCycles.percentile(0.95));
    w.field("latency_ns_p99", report.latencyCycles.percentile(0.99));
    w.field("queue_wait_cycles_mean", report.queueWaitCycles.mean());
    w.field("queue_wait_ns_mean", report.queueWaitCycles.mean());
    w.field("batch_size_mean", report.batchSize.mean());
    w.field("map_cache_hits", report.mapCache.hits);
    w.field("map_cache_misses", report.mapCache.misses);
    w.field("map_cache_insertions", report.mapCache.insertions);
    w.field("map_cache_evictions", report.mapCache.evictions);
    w.field("map_cache_bytes_saved", report.mapCache.bytesSaved);
    w.field("map_cache_cycles_saved", report.mapCache.cyclesSaved);
    w.field("map_cache_hit_rate", report.mapCache.hitRate());
    // Conditional blocks: a run without a traffic program, an
    // autoscaler, a deepened run-ahead buffer or cost-aware dispatch
    // emits none of them, keeping stationary fixed-fleet output
    // byte-identical to earlier builds (golden + differential fuzz
    // both pin that).
    if (report.runAheadDepth != 1) {
        w.field("run_ahead_depth", report.runAheadDepth);
        w.field("run_ahead_staged", report.runAheadStaged);
        w.field("run_ahead_peak_staged", report.runAheadPeakStaged);
    }
    if (report.costAware) {
        w.field("cost_aware_holds", report.costHolds);
        w.field("cost_aware_dispatches", report.costDispatches);
    }
    if (report.traffic.present) {
        w.field("traffic_program", report.traffic.program);
        w.field("traffic_segments", report.traffic.segments);
        w.field("traffic_base_per_mcycle", report.traffic.basePerMCycle);
        w.field("traffic_peak_per_mcycle", report.traffic.peakPerMCycle);
        w.field("traffic_churn_interval_cycles",
                report.traffic.churnIntervalCycles);
        w.field("traffic_churn_events", report.traffic.churnEvents);
    }
    if (report.autoscaler.enabled) {
        const AutoscalerStats &as = report.autoscaler;
        w.field("autoscaler_min_instances", as.minInstances);
        w.field("autoscaler_max_instances", as.maxInstances);
        w.field("autoscaler_evals", as.evals);
        w.field("autoscaler_scale_ups", as.scaleUps);
        w.field("autoscaler_scale_downs", as.scaleDowns);
        w.field("autoscaler_instance_cycles", as.instanceCycles);
        w.field("autoscaler_peak_provisioned", as.peakProvisioned);
        w.field("autoscaler_final_provisioned", as.finalProvisioned);
        w.field("autoscaler_drained_batches", as.drainedBatches);
        w.field("autoscaler_timeline_bucket_cycles",
                as.timeline.bucketCycles);
        w.key("autoscaler_timeline").beginArray();
        for (const auto &s : as.timeline.samples) {
            w.beginObject();
            w.field("cycle", s.cycle);
            w.field("queue_depth", s.queueDepth);
            w.field("window_p99_cycles", s.windowP99Cycles);
            w.field("provisioned", s.provisioned);
            w.field("action", s.action);
            w.endObject();
        }
        w.endArray();
    }
    if (report.faults.enabled) {
        const FaultStats &f = report.faults;
        w.field("fault_crashes", f.crashes);
        w.field("fault_recoveries", f.recoveries);
        w.field("fault_straggler_windows", f.stragglerWindows);
        w.field("fault_inflight_failed", f.inflightFailed);
        w.field("fault_failed_batches", f.failedBatches);
        w.field("fault_failovers", f.failovers);
        w.field("retry_attempts", f.retryAttempts);
        w.field("retry_shed", f.retryShed);
        w.field("retry_exhausted", f.retryExhausted);
        w.field("retry_timeouts", f.retryTimeouts);
        w.field("retry_backoff_ns_total", f.retryBackoffNsTotal);
        w.field("retry_hedges", f.hedges);
        w.field("retry_hedges_won", f.hedgesWon);
        w.field("retry_hedges_lost", f.hedgesLost);
    }
    w.key("accelerators").beginArray();
    for (const auto &acc : report.accelerators) {
        w.beginObject();
        w.field("name", acc.name);
        w.field("freq_ghz", acc.freqGHz);
        w.field("busy_cycles", acc.busyCycles);
        w.field("busy_ns", acc.busyCycles);
        w.field("map_busy_cycles", acc.mapBusyCycles);
        w.field("map_busy_ns", acc.mapBusyCycles);
        w.field("backend_busy_cycles", acc.backendBusyCycles);
        w.field("backend_busy_ns", acc.backendBusyCycles);
        w.field("batches", acc.batches);
        w.field("requests", acc.requests);
        w.field("utilization", acc.utilization(report.horizonCycles));
        w.field("map_utilization",
                acc.mapUtilization(report.horizonCycles));
        w.field("backend_utilization",
                acc.backendUtilization(report.horizonCycles));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

} // namespace pointacc
