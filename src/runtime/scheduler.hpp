/**
 * @file
 * Fleet scheduler: a discrete-event serving simulator over N PointAcc
 * instances.
 *
 * The per-inference simulator (sim/accelerator) prices one run of one
 * network; this layer composes those prices into a serving system. A
 * global wall-clock axis in nanoseconds advances through one binary
 * event heap: arrivals (pulled lazily from a RequestSource), mapping
 * and back-end completions, the wait-for-K timer, and the autoscaler
 * (ScaleEval, SpinUp) and fault (Fault, Retry, Hedge) events. Entries
 * are sequence-numbered and lazily invalidated by dispatch serials and
 * generation stamps. Each step pops every entry due at the next live
 * instant, asking each entry once whether it is still live, then
 * services the due pipelines, applies faults, scales, dispatches,
 * admits arrivals and dispatches again (docs/PERFORMANCE.md has the
 * complexity budget). A dispatch goes to the accepting instance that
 * would finish it soonest (on a heterogeneous fleet: the server class
 * first, spilling to edge ones).
 *
 * Each instance is the two decoupled resources PointAcc has (Section
 * 5): a Mapping Unit front-end and a Matrix Unit + memory back-end,
 * holding its batches in one FIFO in dispatch order (the running head,
 * mapped batches waiting behind it, a tail that may still be mapping).
 * SchedulerConfig::runAheadDepth bounds the wait: the Mapping Unit
 * keeps a mapped tail until at most depth - 1 batches wait behind the
 * head, and takes a new dispatch only once it lets go. Depth 1 is the
 * blocking handoff of the frozen reference engine (byte-identical);
 * depth k lets the front-end run k batches ahead, so the mapping of
 * request i+1 hides behind the back-end of request i.
 * OccupancyModel::Monolithic is the same FIFO with a zero-length map
 * phase that accepts only when empty (no overlap).
 *
 * Service times come from a ServiceModel: SimServiceModel runs
 * sim::Accelerator once per (network, size bucket, accelerator class)
 * and memoizes it; tests inject fixed tables. A batch is charged
 * sum(per-request cycles) minus one weight-stream reload per extra
 * member, floored at its largest member (priceBatch). With
 * SchedulerConfig::mapCache, a batch of map-cache hits collapses its
 * map phase to min(hitReadCycles * |B|, full map phase) and a batch of
 * misses publishes its maps when mapped (runtime/map_cache).
 *
 * Every optional feature is one type in scheduler.cpp, built only when
 * it can act, so run() keeps the core loop, admission, placement and
 * completion: WaitForK (the hold timer, held groups, hold-episode count
 * and, when cost-aware, the arrival cadence and price fed to
 * Batcher::holdForHead, the one hold rule), CacheBooking (map-cache
 * keys, the hit/miss purity rule, hit classification, the read-cost
 * clamp, hit/miss counters, the saved-ns credit and miss inserts),
 * FaultInjector (timeline, crash kills, retries, hedges, failovers;
 * runtime/faults) and Autoscaler (policy, power lifecycle, drain;
 * runtime/autoscaler). A crash kills the instance's whole FIFO, oldest
 * first, and routes every victim through the retry policy; with the
 * autoscaler on it is a power loss. The autoscaler only powers instances that are not
 * crashed and restores its floor after a crash; once every instance
 * is crashed with no recovery scheduled, evaluations stop and the
 * stranded requests end as leftover.
 *
 * Invariants (fuzzed by test_runtime_properties): generated = admitted
 * + dropped and admitted = completed + failed + leftover, with failed
 * == 0 on a fault-free run, which always drains to leftover == 0;
 * per-stage busy cycles never exceed the simulated span; completion
 * timestamps are non-decreasing; equal seeds give byte-identical
 * reports; pipelined occupancy never finishes later than monolithic,
 * and an enabled map cache never finishes later than a disabled one
 * (single-instance FIFO, batching off).
 *
 * Clock domains: each fleet member has its own freqGHz, and its
 * profiled cycles convert to the ns event axis at dispatch (cyclesToNs,
 * phasesToNs). Request timestamps, deadlines, knobs named *Cycles and
 * every ServingReport timestamp are ns. At 1 GHz the conversion is the
 * identity and the engine is byte-identical to the cycle-domain seed
 * engine, kept verbatim in runtime/reference for differential tests.
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
 * The lock is not free under sharing, so FleetScheduler asks once
 * per (class, network, bucket) per run (docs/PERFORMANCE.md).
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
     *  default: the whole fleet serves from time 0. */
    AutoscalerConfig autoscaler;
    /** Fault injection (runtime/faults): scheduled or stochastic
     *  crashes, recoveries and straggler slowdowns. Disabled by
     *  default; a program that materializes no events, with retries
     *  off, injects nothing. */
    FaultProgram faults;
    /** Bounded-backoff retries, a timeout and hedging for crash
     *  victims (runtime/faults). Disabled: they fail terminally. */
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

    /** Serve `arrivals` (any order; sorted internally) until no live
     *  event is left; the report's conservation counters account for
     *  every admitted request. */
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
