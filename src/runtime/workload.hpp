/**
 * @file
 * Open-loop inference request generation for the serving runtime.
 *
 * The serving simulator studies PointAcc fleets under load, so the
 * traffic source is *open loop*: arrivals are generated independently
 * of how fast the fleet drains them (closed-loop generators hide
 * queueing collapse). Two arrival processes are provided:
 *
 *  - Poisson: memoryless arrivals at a fixed mean rate, the baseline
 *    of every queueing analysis;
 *  - Bursty: a compound-Poisson process — burst *events* arrive
 *    Poisson, each carrying several back-to-back requests of the same
 *    class (a LiDAR rig uploading a sweep burst, a batch of AR clients
 *    joining at once). Same mean rate as Poisson, much heavier tails.
 *
 * Requests draw their class (network, cloud-size bucket, deadline)
 * from a weighted mix, so one run can blend e.g. ModelNet40 object
 * classification with full-scene MinkowskiUNet segmentation the way a
 * shared fleet would see them. Everything is seeded through the
 * repository's portable Rng: equal seeds give byte-identical traces.
 *
 * Stream semantics: every request carries a cloudId — the content
 * address of its point cloud. Classes may name a streamId and a
 * mapReuseProb; with probability mapReuseProb a generated request
 * *repeats* its stream's previous frame (same cloudId => identical
 * geometry => identical kernel maps), the way consecutive sweeps of
 * one LiDAR rig repeat. Repeated frames are what the runtime's
 * kernel-map cache (runtime/map_cache) can serve without re-mapping.
 *
 * Streaming: the generator is *lazy*. stream() yields arrivals one at
 * a time in global arrival order while holding only O(in-flight burst
 * members + stream classes) state — a million-request trace costs the
 * same resident memory as a thousand-request one. Draw-for-draw the
 * stream performs the exact RNG sequence the seed's materializing
 * generate() performed (gap, burst size, class pick, per-member reuse,
 * in that order per event), so traces are byte-identical; generate()
 * is now a convenience wrapper that drains the stream into a vector.
 * Only burst members that straddle a later event's arrival are ever
 * buffered (a bounded min-heap), which is what the seed's trailing
 * stable_sort existed to fix up.
 *
 * Invariants (fuzzed by test_runtime_properties): generate() returns
 * arrivals sorted by (arrivalCycle, id) with ids dense from 0, every
 * arrival inside the horizon (bursty members may trail by the burst
 * length), byte-identical across equal-seed runs, and cloudIds that
 * are unique per fresh frame (repeats only ever point at an earlier
 * frame of the same stream). The stream emits the identical sequence
 * (asserted against a preserved reference generator) with
 * peakBuffered() independent of trace length.
 */

#ifndef POINTACC_RUNTIME_WORKLOAD_HPP
#define POINTACC_RUNTIME_WORKLOAD_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "core/rng.hpp"

namespace pointacc {

/** One entry of the traffic mix. */
struct RequestClass
{
    std::uint32_t networkId = 0;  ///< index into the serving catalog
    std::uint32_t sizeBucket = 0; ///< index into the catalog's buckets
    double weight = 1.0;          ///< relative share of traffic
    /** Relative deadline in cycles; 0 = best-effort (no deadline). */
    std::uint64_t deadlineCycles = 0;
    /** Stream this class's clouds belong to (classes sharing a
     *  streamId share one frame sequence — e.g. one LiDAR rig feeding
     *  both a detector and a segmenter). */
    std::uint32_t streamId = 0;
    /** Probability in [0, 1] that a request repeats the stream's
     *  previous frame (same cloudId) instead of producing a fresh
     *  one. 0 = every frame unique (no kernel-map reuse possible). */
    double mapReuseProb = 0.0;
};

/** Arrival process shapes. */
enum class ArrivalProcess
{
    Poisson, ///< memoryless, one request per arrival event
    Bursty,  ///< compound Poisson: clumped same-class request groups
};

std::string toString(ArrivalProcess process);

/** Full specification of one offered-load scenario. */
struct WorkloadSpec
{
    std::uint64_t seed = 1;
    /** Mean offered load in requests per million cycles (at 1 GHz this
     *  is requests per millisecond). */
    double requestsPerMCycle = 1.0;
    /** Arrival-generation window in cycles. */
    std::uint64_t horizonCycles = 0;
    ArrivalProcess arrivals = ArrivalProcess::Poisson;
    /** Mean burst size for ArrivalProcess::Bursty (>= 1). Burst sizes
     *  are uniform on [1, 2*meanBurstSize - 1], preserving the mean. */
    std::uint32_t meanBurstSize = 4;
    std::vector<RequestClass> mix;
};

/** One inference request flowing through the serving runtime. */
struct Request
{
    std::uint64_t id = 0;
    std::uint32_t networkId = 0;
    std::uint32_t sizeBucket = 0;
    /** Content address of the request's point cloud: equal cloudIds
     *  carry identical geometry (a repeated stream frame) and hence
     *  identical kernel maps. Together with networkId and the
     *  network's layer-config hash this forms the kernel-map cache
     *  key (see runtime/map_cache). */
    std::uint64_t cloudId = 0;
    std::uint64_t arrivalCycle = 0;
    /** Absolute completion deadline; 0 = best-effort. */
    std::uint64_t deadlineCycle = 0;
    /** Service-time estimate, filled at admission by the scheduler
     *  (drives shortest-job-first ordering; 0 until admitted). */
    std::uint64_t estimatedCycles = 0;
    /** Crash-retry attempt number (0 = first dispatch). Bumped when a
     *  crash victim re-enters admission under a RetryPolicy
     *  (runtime/faults); the frozen reference engine ignores it. */
    std::uint32_t attempt = 0;
    /** True on a hedged duplicate (runtime/faults): an uncounted
     *  re-admission of an outstanding request, carrying a dedicated
     *  id range so queue ids stay unique; the first copy to complete
     *  wins. Never set on generator-produced traffic. */
    bool hedge = false;
};

/**
 * Validate a WorkloadSpec, throwing std::invalid_argument with a
 * descriptive message on the first violation: empty mix, non-positive
 * or non-finite offered load, bursty arrivals with meanBurstSize < 1,
 * negative or non-finite class weights, mapReuseProb outside [0, 1],
 * or a mix whose weights sum to zero. Both WorkloadGenerator and
 * WorkloadStream call this on construction, so a bad spec can never
 * silently generate a nonsense trace (the seed accepted e.g. negative
 * rates and mapReuseProb > 1 without complaint).
 */
void validateWorkloadSpec(const WorkloadSpec &spec);

namespace detail {

/** Exponential variate with the given mean — the seed generator's
 *  exact inverse-CDF expression, shared so every arrival process
 *  (stationary or piecewise-rate, see runtime/traffic) performs
 *  byte-identical draws. */
double exponentialDraw(Rng &rng, double mean);

/** Weighted class pick over `mix` (the seed's linear scan). */
std::size_t pickWeightedClass(Rng &rng,
                              const std::vector<RequestClass> &mix,
                              double total_weight);

} // namespace detail

/** Global arrival order: arrival cycle, ties broken by id. Both the
 *  generator and the scheduler sort by this, so they can never drift. */
inline bool
arrivalOrderBefore(const Request &a, const Request &b)
{
    return a.arrivalCycle != b.arrivalCycle ? a.arrivalCycle < b.arrivalCycle
                                            : a.id < b.id;
}

/**
 * Pull interface for arrival traces: requests delivered one at a time
 * in global arrival order ((arrivalCycle, id) nondecreasing). The
 * scheduler consumes one of these, so a streamed million-request trace
 * never has to exist in memory at once.
 */
class RequestSource
{
  public:
    virtual ~RequestSource() = default;

    /** Next request without consuming it; nullptr when exhausted. The
     *  pointer is valid until the next take(). */
    virtual const Request *peek() = 0;

    /** Consume and return the next request (peek() must be non-null). */
    virtual Request take() = 0;
};

/** RequestSource over an already-materialized trace sorted by
 *  arrivalOrderBefore (the scheduler's vector entry point). */
class VectorRequestSource : public RequestSource
{
  public:
    explicit VectorRequestSource(std::vector<Request> trace)
        : items(std::move(trace))
    {
    }

    const Request *
    peek() override
    {
        return next < items.size() ? &items[next] : nullptr;
    }

    Request
    take() override
    {
        return items[next++];
    }

  private:
    std::vector<Request> items;
    std::size_t next = 0;
};

/** One piecewise-rate segment boundary: from startCycle on, arrivals
 *  run at requestsPerMCycle (until the next phase, or forever). The
 *  span before the first phase runs at the base spec's rate. */
struct RatePhase
{
    std::uint64_t startCycle = 0;
    double requestsPerMCycle = 1.0;
};

/**
 * Lazy arrival stream (see the file header): the seed generator's
 * exact RNG draw sequence, emitted in sorted order through a bounded
 * reorder heap instead of a materialize-then-sort pass. This is the
 * one arrival engine: the protected constructor adds a piecewise rate
 * schedule and stream churn, which TrafficStream (runtime/traffic)
 * exposes for traffic programs. Without phases or churn it is the
 * stationary stream.
 */
class WorkloadStream : public RequestSource
{
  public:
    explicit WorkloadStream(const WorkloadSpec &spec);

    const Request *peek() override;
    Request take() override;

    /** High-water mark of buffered requests (reorder heap plus the
     *  peek slot): the stream's whole per-trace memory footprint, and
     *  what the scale tests assert stays O(in-flight), independent of
     *  how many requests the stream emits. */
    std::size_t peakBuffered() const { return peak; }

    /** Requests emitted so far. */
    std::uint64_t emitted() const { return numEmitted; }

  protected:
    /** `spec`'s arrivals under the rate schedule `phases` (strictly
     *  increasing startCycle, positive rates; a phase at cycle 0
     *  replaces the base rate), with every stream's frame history
     *  reset each `churn_interval` cycles (0 = never). */
    WorkloadStream(const WorkloadSpec &spec,
                   const std::vector<RatePhase> &phases,
                   std::uint64_t churn_interval);

    /** Piecewise-rate segments (>= 1). */
    std::size_t segmentCount() const { return segments.size(); }
    /** Churn boundaries crossed so far. */
    std::uint64_t churnEventCount() const { return churnEvents; }

  private:
    struct LaterArrival
    {
        bool
        operator()(const Request &a, const Request &b) const
        {
            return arrivalOrderBefore(b, a);
        }
    };

    /** One resolved piecewise-rate segment. */
    struct Segment
    {
        double startCycle = 0.0;
        double meanGap = 1.0; ///< mean inter-event gap in cycles
    };

    /** Next event time after `from`: piecewise-exponential draw with
     *  restart-at-boundary (memorylessness). */
    double drawNextEventTime(double from);

    /** Materialize events until the reorder heap's top is safe to
     *  release (no future event can rank before it) or the horizon is
     *  reached. */
    void refill();

    std::optional<Request> nextInternal();

    WorkloadSpec wspec;
    std::vector<Segment> segments;
    std::uint64_t churnInterval = 0;
    Rng rng;
    double totalWeight = 0.0;
    double clock = 0.0;          ///< continuous arrival-process time
    std::uint64_t nextEventCycle = 0; ///< next unmaterialized event
    bool exhausted = false;      ///< horizon reached; drain the heap
    std::uint64_t nextId = 0;
    std::uint64_t nextCloudId = 1;
    /** Per-stream last frame (O(classes), the only per-class state). */
    std::map<std::uint32_t, std::uint64_t> lastFrame;
    std::priority_queue<Request, std::vector<Request>, LaterArrival>
        pending;
    std::optional<Request> lookahead;
    std::size_t peak = 0;
    std::uint64_t numEmitted = 0;
    std::uint64_t churnEpoch = 0;
    std::uint64_t churnEvents = 0;
};

/**
 * Deterministic open-loop request generator.
 *
 * stream() yields the trace lazily in arrival order; generate()
 * materializes the same trace (sorted by arrival cycle, ids dense
 * from 0) for callers that want a vector.
 */
class WorkloadGenerator
{
  public:
    explicit WorkloadGenerator(WorkloadSpec spec);

    const WorkloadSpec &spec() const { return wspec; }

    /** Lazy stream over the spec's trace: O(in-flight + classes)
     *  memory however long the horizon. */
    WorkloadStream stream() const { return WorkloadStream(wspec); }

    std::vector<Request> generate() const;

  private:
    WorkloadSpec wspec;
};

} // namespace pointacc

#endif // POINTACC_RUNTIME_WORKLOAD_HPP
