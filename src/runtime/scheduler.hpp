/**
 * @file
 * Fleet scheduler: a discrete-event serving simulator over N PointAcc
 * instances.
 *
 * The per-inference simulator (sim/accelerator) prices one run of one
 * network; this layer composes those prices into a serving system. A
 * global wall-clock axis in nanoseconds (uint64_t ticks) advances
 * through a single binary-heap event queue — request arrivals (pulled
 * lazily from a RequestSource), mapping-phase completions, back-end
 * completions, batcher timers (wait-for-K holds), autoscaler policy
 * evaluations and instance spin-ups, and — when a fault program is
 * configured — instance crashes/recoveries, straggler windows, retry
 * re-admissions and hedge re-dispatches (runtime/faults); entries are
 * sequence-numbered and lazily invalidated by per-instance dispatch
 * serials and timer generation stamps, so the loop is O(log events)
 * per step instead of the seed's per-iteration rescan of every
 * instance (the seed loop survives verbatim in runtime/reference for
 * differential testing, and docs/PERFORMANCE.md carries the
 * complexity budget). Whenever an accelerator can accept work and
 * the admission queue is non-empty, the batcher forms a dispatch and
 * the scheduler places it on the accelerator that would finish it
 * soonest (greedy, which on a heterogeneous fleet naturally prefers
 * the server-class instance and spills to edge-class ones under
 * load).
 *
 * Each instance is modeled as the two decoupled resources PointAcc
 * actually has (Section 5 of the paper): a Mapping Unit front-end and
 * a Matrix Unit + memory back-end. A batch first occupies the front
 * end for its mapping phase, then hands its mapped output to the
 * back-end for compute + exposed DRAM. Each instance holds its
 * batches in one FIFO in dispatch order: the head may be running on
 * the back-end, mapped batches wait behind it, and the tail may still
 * be mapping. SchedulerConfig::runAheadDepth bounds the wait: the
 * Mapping Unit keeps hold of a mapped tail until at most depth - 1
 * batches wait behind the running head, and takes a new dispatch only
 * once it lets go. At the default depth 1 the handoff blocks and at
 * most two batches are in flight per instance — one mapping, one
 * executing (the frozen reference engine's behavior, byte-identical).
 * At depth k the front-end runs up to k batches ahead, so a long
 * back-end run no longer stalls the Mapping Unit (the buffer-sizing
 * question PointAcc answers in hardware, exposed as a knob). That
 * overlap is exactly the paper's decoupled orchestration lifted
 * across requests: the mapping of request i+1 hides behind the
 * back-end of request i. OccupancyModel::Monolithic disables the
 * overlap (whole-run busy interval, the pre-pipelining behavior) for
 * apples-to-apples comparisons: the same FIFO with a zero-length map
 * phase that accepts a dispatch only when empty, so run-ahead never
 * engages. A crash (runtime/faults) kills the whole FIFO, oldest
 * first, and routes every victim through the retry policy.
 *
 * Service times come from a ServiceModel: the production implementation
 * (SimServiceModel) runs sim::Accelerator once per (network, cloud-size
 * bucket, accelerator class) and memoizes RunResult::totalCycles — the
 * profiled-cost-table approach real serving stacks use, which keeps a
 * million-request simulation cheap while staying anchored to the
 * validated per-layer model. Tests inject fixed tables instead.
 *
 * Batching credit: requests in one batch share network weights, so the
 * batch is charged sum(per-request cycles) minus one weight-stream
 * reload per extra member, floored at the largest member (a batch can
 * never beat its slowest request). This mirrors how PointAcc's fusion
 * amortizes DRAM traffic within one inference.
 *
 * Kernel-map caching: with SchedulerConfig::mapCache enabled, the
 * scheduler consults a content-addressed map cache (runtime/map_cache)
 * at dispatch. A batch of cache hits collapses its front-end phase to
 * a clamped cache-read cost (min(hitReadCycles * |B|, full map phase),
 * so a hit is never slower than a miss); a batch of misses runs the
 * full mapping and inserts its members' maps when the mapping phase
 * completes. Hits and misses never share a batch (the batcher's extra
 * compatibility rule), and the report carries the cache counters.
 *
 * Autoscaling (runtime/autoscaler) only powers instances that are
 * not crashed. A crash that drops the fleet below the autoscaler's
 * floor is replaced at the next evaluation; once every instance is
 * crashed with no recovery scheduled, evaluations stop and the
 * stranded requests end as leftover, exactly as without autoscaling.
 *
 * Invariants (fuzzed by test_runtime_properties): requests are
 * conserved (generated = admitted + dropped, admitted = completed +
 * failed + leftover with failed == 0 on a fault-free run, and a
 * fault-free simulation always drains to leftover == 0);
 * per-stage busy cycles never exceed the simulated span; completion
 * timestamps are non-decreasing; equal seeds give byte-identical
 * reports; pipelined occupancy never finishes later than monolithic,
 * and an enabled map cache never finishes later than a disabled one
 * (single-instance FIFO, batching off).
 *
 * Clock domains: each fleet member carries its own
 * AcceleratorConfig::freqGHz, and mixed-frequency fleets are first-
 * class (the paper's server-vs-edge split, Table 3). Profiled costs
 * live in per-instance cycles; the scheduler converts them to the ns
 * event axis at dispatch (cyclesToNs / phasesToNs below), so two
 * instances of different clocks interleave on one queue exactly.
 * Request timestamps, deadlines, config knobs named *Cycles
 * (batcher.maxWaitCycles, mapCache.hitReadCycles, autoscaler
 * intervals) and every ServingReport timestamp are event-axis ticks —
 * nanoseconds. At 1 GHz one cycle is one ns, the conversion is the
 * identity, and the ns-domain engine is byte-identical to the frozen
 * cycle-domain seed engine (runtime/reference); the differential
 * suite in test_runtime_properties pins that on every CI run.
 */

#ifndef POINTACC_RUNTIME_SCHEDULER_HPP
#define POINTACC_RUNTIME_SCHEDULER_HPP

#include <cstdint>
#include <map>
#include <shared_mutex>
#include <string>
#include <tuple>
#include <vector>

#include "nn/network.hpp"
#include "runtime/autoscaler.hpp"
#include "runtime/batcher.hpp"
#include "runtime/faults.hpp"
#include "runtime/map_cache.hpp"
#include "runtime/queue.hpp"
#include "runtime/serving_stats.hpp"
#include "runtime/workload.hpp"
#include "sim/accel_config.hpp"

namespace pointacc {

/** What a serving fleet can run: networks x cloud-size buckets. */
struct ServingCatalog
{
    std::vector<Network> networks;
    /** Cloud scale per size bucket (dataset `generate` scale factor). */
    std::vector<double> bucketScales;
    /** Seed for the profiling clouds. */
    std::uint64_t cloudSeed = 20211018;
};

/**
 * Two-stage split of a service time: the Mapping Unit front-end phase
 * and the Matrix Unit + memory back-end phase. The phases partition
 * the whole service time (map + backend == total), so a pipelined
 * instance can overlap the map phase of one dispatch with the backend
 * of the previous one.
 */
struct PhaseProfile
{
    std::uint64_t mapCycles = 0;
    std::uint64_t backendCycles = 0;

    std::uint64_t total() const { return mapCycles + backendCycles; }
};

/**
 * Convert `cycles` at `freq_ghz` to nanoseconds on the global event
 * axis. Exact (the identity) at 1 GHz — the property the differential
 * gates against the cycle-domain reference engine rely on; otherwise
 * rounded to the nearest ns.
 */
std::uint64_t cyclesToNs(std::uint64_t cycles, double freq_ghz);

/** A phase split converted to ns. The total is converted once and the
 *  map phase clamped into it, so the ns phases partition the ns total
 *  exactly — per-phase rounding can never create or lose a tick. */
PhaseProfile phasesToNs(const PhaseProfile &phases, double freq_ghz);

/** Profiled cost of one (network, bucket) on one accelerator class. */
struct ServiceProfile
{
    std::uint64_t totalCycles = 0;
    std::uint64_t mappingCycles = 0;
    std::uint64_t computeCycles = 0;
    /** Cycles spent streaming the parameter set from DRAM; the share a
     *  batch member amortizes away. */
    std::uint64_t weightLoadCycles = 0;
    /** Modelled size of the run's kernel maps in bytes — what one
     *  map-cache entry of this (network, bucket) class stores. */
    std::uint64_t mapBytes = 0;

    /** Phase split: map = profiled mapping cycles (clamped into the
     *  total), backend = the exact remainder (compute + exposed DRAM,
     *  see RunResult::backendPhaseCycles). */
    PhaseProfile
    phases() const
    {
        PhaseProfile p;
        p.mapCycles = mappingCycles < totalCycles ? mappingCycles
                                                  : totalCycles;
        p.backendCycles = totalCycles - p.mapCycles;
        return p;
    }
};

/**
 * Price of a whole batch from its members' profiles on one
 * accelerator class, in that class's cycles. The total is
 *   max( sum_i cycles_i - (|B|-1) * min_i weightLoadCycles_i,
 *        max_i cycles_i ):
 * the min makes the credit order-independent and conservative when
 * size buckets (whose caps differ) mix within one batch. The map
 * phase is the sum of the members' mapping phases (mapping shares
 * nothing across members, so it never amortizes), clamped into the
 * total; the backend phase is the exact remainder, which is where the
 * weight-reload credit lands. `members` must not be empty.
 */
PhaseProfile priceBatch(const std::vector<ServiceProfile> &members);

/** Service-time oracle consulted by the scheduler. */
class ServiceModel
{
  public:
    virtual ~ServiceModel() = default;

    /**
     * Cost of one request of (network, bucket) on `cfg`. Must be a
     * pure function of its arguments for the whole of a run:
     * FleetScheduler::run asks once per (accelerator class, network,
     * bucket) and reads its own table after that.
     */
    virtual ServiceProfile profile(const AcceleratorConfig &cfg,
                                   std::uint32_t network_id,
                                   std::uint32_t bucket) const = 0;

    /**
     * Content hash of the network's layer configuration — the third
     * component of the kernel-map cache key (runtime/map_cache), so
     * two networks that happen to share an id across catalogs, or one
     * whose layer stack changed, can never share cached maps. The
     * default mixes the id alone (enough for fixed test tables);
     * SimServiceModel hashes the catalog network's actual layers.
     */
    virtual std::uint64_t layerConfigHash(std::uint32_t network_id) const;

    /** Service cycles for a whole batch on `cfg`:
     *  batchPhases(cfg, batch).total(). */
    std::uint64_t batchServiceCycles(const AcceleratorConfig &cfg,
                                     const Batch &batch) const;

    /** Phase split of a whole batch on `cfg`: priceBatch over the
     *  members' profiles. */
    PhaseProfile batchPhases(const AcceleratorConfig &cfg,
                             const Batch &batch) const;
};

/**
 * ServiceModel backed by the PointAcc simulator. Profiles lazily and
 * memoizes per (accelerator name, network, bucket); a homogeneous
 * 4-instance fleet profiles each pair exactly once.
 *
 * Thread safety: one model instance may be shared by concurrent
 * probes (the ProbeExecutor runs planner probes and bench rows in
 * parallel against a single model). The memo caches and the
 * profiled-runs meter sit behind a shared mutex — lookups of an
 * already-profiled triple take the (uncontended, read-side) shared
 * lock; only a first-time profile of a triple takes the exclusive
 * lock, re-checks, and simulates. Each distinct triple is therefore
 * still simulated exactly once per process, whatever the thread
 * count, and profiledRuns() keeps its memoization-meter meaning.
 * The lock is not free under sharing: when every dispatch asked the
 * model, perfbench serve_stream (4 threads) spent 2.2 s of 12.5 s of
 * scheduler time in 11.2M calls, about 195 ns each. FleetScheduler
 * now asks once per (class, network, bucket) per run, 96 profile
 * calls per repetition (docs/PERFORMANCE.md).
 */
class SimServiceModel : public ServiceModel
{
  public:
    explicit SimServiceModel(ServingCatalog catalog);

    const ServingCatalog &catalog() const { return cat; }

    ServiceProfile profile(const AcceleratorConfig &cfg,
                           std::uint32_t network_id,
                           std::uint32_t bucket) const override;

    std::uint64_t layerConfigHash(std::uint32_t network_id) const override;

    /** Actual sim::Accelerator runs performed so far — the memoization
     *  meter. Across any number of sweep rows in one process this must
     *  equal the number of distinct (accelerator class, network,
     *  bucket) triples profiled; bench_serving gates on it. */
    std::uint64_t
    profiledRuns() const
    {
        std::shared_lock<std::shared_mutex> lock(memoMutex);
        return numProfiledRuns;
    }

  private:
    const PointCloud &cloudFor(std::uint32_t network_id,
                               std::uint32_t bucket) const;

    ServingCatalog cat;
    using Key = std::tuple<std::string, std::uint32_t, std::uint32_t>;
    /** Guards every mutable member below: shared for memo hits,
     *  exclusive for first-time profiling (see class comment). */
    mutable std::shared_mutex memoMutex;
    mutable std::map<Key, ServiceProfile> cache;
    mutable std::map<std::pair<std::uint32_t, std::uint32_t>, PointCloud>
        clouds;
    /** Parameter bytes per network (accelerator-independent). */
    mutable std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t>
        weightBytes;
    mutable std::uint64_t numProfiledRuns = 0;
};

/** How a dispatch occupies an accelerator instance. */
enum class OccupancyModel
{
    /** One opaque busy interval per dispatch; the instance accepts
     *  new work only when fully idle (pre-pipelining behavior). */
    Monolithic,
    /** Two-stage pipeline: the map phase of the next dispatch overlaps
     *  the back-end of the previous one on the same instance. */
    Pipelined,
};

std::string toString(OccupancyModel model);

/** Scheduler knobs. */
struct SchedulerConfig
{
    QueuePolicy policy = QueuePolicy::Fifo;
    OccupancyModel occupancy = OccupancyModel::Pipelined;
    BatcherConfig batcher;
    /** Cross-request kernel-map cache (disabled by default). */
    MapCacheConfig mapCache;
    /** Admission queue bound; overload beyond it sheds load. */
    std::size_t queueDepth = 1024;
    /** How many batches the Mapping Unit front-end may run ahead of
     *  the back-end under Pipelined occupancy: 1 (the default) is the
     *  blocking handoff — one mapping + one executing, byte-identical
     *  to the frozen reference engine — and depth k adds a k-1 deep
     *  FIFO of mapped-but-not-executed batches between the stages.
     *  Must be >= 1 (validated at construction); ignored under
     *  Monolithic occupancy, which never overlaps stages. */
    std::uint32_t runAheadDepth = 1;
    /** Reactive fleet scaling (runtime/autoscaler). Disabled by
     *  default: the whole fleet serves from cycle 0 and the scheduler
     *  output is byte-identical to pre-autoscaler builds. */
    AutoscalerConfig autoscaler;
    /** Fault injection (runtime/faults): scheduled/stochastic instance
     *  crashes, recoveries and straggler slowdowns on the ns axis.
     *  Disabled by default — and a program that materializes no
     *  events injects nothing, so the fault-free path stays
     *  byte-identical to pre-fault builds. */
    FaultProgram faults;
    /** What happens to requests a crash kills in flight: bounded
     *  exponential-backoff retries, per-request timeout, optional
     *  hedged duplicates (runtime/faults). Disabled: crash victims
     *  fail terminally. */
    RetryPolicy retry;
};

/** Discrete-event serving simulation over a fleet of accelerators. */
class FleetScheduler
{
  public:
    /**
     * @param fleet          one config per accelerator instance; clock
     *                       frequencies may differ per member (each
     *                       instance's profiled cycles convert to the
     *                       ns event axis at dispatch)
     * @param model          service-time oracle (outlives the scheduler)
     * @param bucket_scales  the catalog's size buckets (batcher rule)
     * @param config         queue/batch policy knobs
     */
    FleetScheduler(std::vector<AcceleratorConfig> fleet,
                   const ServiceModel &model,
                   std::vector<double> bucket_scales,
                   SchedulerConfig config = {});

    const SchedulerConfig &config() const { return cfg; }

    /**
     * Serve `arrivals` (any order; sorted internally) to completion:
     * the simulation always drains, so every admitted request either
     * completes or — never, by construction — lingers; the report's
     * conservation counters make that checkable.
     */
    ServingReport run(std::vector<Request> arrivals) const;

    /**
     * Serve a lazily generated trace: arrivals are pulled from
     * `source` in arrival order as simulated time reaches them, so a
     * million-request run holds only in-flight state — the queue, the
     * pipelines and the event heap — never the whole trace. The vector
     * overload is this one over a VectorRequestSource.
     */
    ServingReport run(RequestSource &source) const;

  private:
    std::vector<AcceleratorConfig> fleet;
    const ServiceModel &model;
    std::vector<double> bucketScales;
    SchedulerConfig cfg;
};

} // namespace pointacc

#endif // POINTACC_RUNTIME_SCHEDULER_HPP
