/**
 * @file
 * Request batcher: groups compatible queued requests into one dispatch.
 *
 * PointAcc's temporal fusion amortizes DRAM traffic across the layers
 * of one inference; batching applies the same idea *across requests*.
 * Requests running the same network share weights, so a batch streams
 * the parameter set from DRAM once instead of once per request — the
 * scheduler's cost model credits exactly that weight-reload time back
 * (see ServiceModel::batchServiceCycles).
 *
 * Compatibility is deliberately narrow:
 *  - same network (different networks share nothing), and
 *  - comparable cloud size (bucket scale ratio bounded), so one giant
 *    scene cannot hide behind a batch of small objects and wreck the
 *    small requests' latency, and
 *  - whatever extra rule the scheduler installs (setExtraCompatibility):
 *    with the kernel-map cache enabled, a cache-hit request must not
 *    merge with a cache-miss request — the hit's collapsed map phase
 *    and the miss's full mapping cannot share one dispatch price, so
 *    batches are kept hit-pure or miss-pure.
 *
 * The batch leader is chosen by the queue policy; followers are the
 * best-ranked compatible requests. Two dispatch disciplines:
 *
 *  - immediate (targetK == 1): pure dispatch-time coalescing, zero
 *    added idle time — a batch takes whatever compatible requests
 *    happen to be queued;
 *  - wait-for-K (targetK > 1): when fewer than targetK compatible
 *    requests are queued, the batcher asks the scheduler to hold the
 *    head for up to maxWaitCycles past its arrival, hoping more
 *    same-network requests show up. The hold is a timer event in the
 *    scheduler's event loop, so a lull never deadlocks: when the
 *    deadline passes, whatever is queued dispatches. Classic
 *    latency-for-throughput trade. A hold is scoped to the head's
 *    compatibility group — requests of other networks keep
 *    dispatching around a held group, they are never frozen behind
 *    it.
 *
 * On top of wait-for-K, the opt-in cost-aware mode (costAware) prices
 * the hold decision instead of timing it: hold exactly while the
 * weight-reload amortization still expected from filling the batch to
 * K exceeds the pipeline-overlap time the wait forfeits, with the
 * back-end's committed backlog counted as free slack (holding the
 * front-end costs nothing while the back-end could not have started
 * the work anyway — the run-ahead buffer deepens that slack).
 *
 * Both disciplines are one hold rule, holdForHead: without a price it
 * is the deadline hold, with a DispatchCost it is the priced one. The
 * guard, the K count, the oldest-member anchor and the maxWaitCycles
 * cap are shared. The scheduler's WaitForK type (scheduler.cpp) owns
 * what the rule runs against: the timer, the held groups, the hold
 * bookkeeping and, when priced, the arrival cadence and the price.
 *
 * Invariants (fuzzed by test_runtime_properties): every batch formLedBy
 * returns is non-empty, within maxBatchSize, led by the given head, and
 * pairwise compatible with it; holdForHead never holds past the group's
 * oldest member's arrival + maxWaitCycles when that is set, and an
 * uncapped priced hold's cost outgrows its gain, so held work always
 * dispatches eventually.
 */

#ifndef POINTACC_RUNTIME_BATCHER_HPP
#define POINTACC_RUNTIME_BATCHER_HPP

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "runtime/queue.hpp"
#include "runtime/workload.hpp"

namespace pointacc {

/** Batch formation knobs. */
struct BatcherConfig
{
    bool enabled = true;
    /** Upper bound on requests per dispatch. */
    std::uint32_t maxBatchSize = 8;
    /** Largest allowed cloud-size ratio (bucket scales) inside a batch. */
    double maxPointsRatio = 4.0;
    /** Wait-for-K: hold the queue head until this many compatible
     *  requests are queued (capped at maxBatchSize). 1 = dispatch
     *  immediately, never idle. */
    std::uint32_t targetK = 1;
    /** Longest a wait-for-K hold may keep a batch past the *oldest*
     *  queued member's arrival (leader changes under SJF/EDF never
     *  extend the wait); when the deadline passes the batch
     *  dispatches undersized. */
    std::uint64_t maxWaitCycles = 0;
    /** Cost-aware dispatch: replace the blind maxWaitCycles timer with
     *  a priced hold-vs-dispatch decision (holdForHead with a
     *  DispatchCost) — hold only while the weight-reload amortization
     *  still expected from reaching K exceeds the pipeline-overlap time
     *  forfeited by waiting. maxWaitCycles then acts only as an
     *  optional hard cap (0 = uncapped); targetK > 1 is still required
     *  for any hold. */
    bool costAware = false;
};

/** One dispatch unit: >= 1 compatible requests for a single network. */
struct Batch
{
    std::vector<Request> requests;

    std::size_t size() const { return requests.size(); }
    bool empty() const { return requests.empty(); }

    /** Network shared by every member (leader's network). */
    std::uint32_t
    networkId() const
    {
        return requests.empty() ? 0 : requests.front().networkId;
    }
};

/** Outcome of a wait-for-K probe: hold the head, or dispatch now. */
struct BatchHold
{
    bool hold = false;
    /** Absolute cycle at which the hold expires (valid when hold). */
    std::uint64_t until = 0;
};

/**
 * Dispatch-time inputs to the priced hold (holdForHead with a price),
 * priced by the scheduler's WaitForK on the event axis (ns) for the
 * head's (network, bucket) class. The batcher owns the decision rule;
 * WaitForK owns the simulator state the rule prices against: the
 * reference class's prices, the network's arrival cadence and the
 * least-loaded accepting instance's back-end backlog.
 */
struct DispatchCost
{
    /** One weight-reload interval for the head's class: what each
     *  additional batch member amortizes away. */
    std::uint64_t weightLoadNs = 0;
    /** The head's full mapping phase: the front-end time a dispatch
     *  issued right now would overlap with the back-end backlog. */
    std::uint64_t mapNs = 0;
    /** Back-end work already committed on the least-loaded accepting
     *  instance (running remainder plus staged run-ahead batches):
     *  while the back-end is this busy, holding the front-end is
     *  free — the overlap is forfeited anyway. */
    std::uint64_t backlogNs = 0;
    /** Mean inter-arrival gap of the head's network (0 = unknown:
     *  fewer than two arrivals seen, no basis to price waiting). */
    std::uint64_t arrivalGapNs = 0;
};

/** Groups queue heads into batches under a compatibility rule. */
class Batcher
{
  public:
    /** `bucket_scales`: the serving catalog's cloud-size buckets, used
     *  to evaluate the size-ratio rule. */
    Batcher(const BatcherConfig &config, std::vector<double> bucket_scales);

    const BatcherConfig &config() const { return cfg; }

    /**
     * Install an additional pairwise rule ANDed with the built-in
     * compatibility (same network, bounded size ratio). The scheduler
     * uses this to keep kernel-map cache hits and misses in separate
     * dispatches; the rule may read mutable external state (the cache)
     * — it is re-evaluated at every formation/hold decision.
     */
    void
    setExtraCompatibility(
        std::function<bool(const Request &, const Request &)> rule)
    {
        extraRule = std::move(rule);
    }

    /** May `b` join a batch led by `a`? */
    bool compatible(const Request &a, const Request &b) const;

    /**
     * Wait-for-K probe: should the scheduler hold a batch led by
     * `head` at time `now` instead of dispatching it? Never once
     * min(targetK, maxBatchSize) compatible requests are queued, nor
     * once the group's oldest member arrived maxWaitCycles ago (when
     * set). `excluded` (empty = none) marks requests that would not
     * actually join a batch led by `head` (members of other held
     * groups): they must not count toward K, or the probe would
     * green-light a dispatch that formLedBy then forms undersized. A
     * hold applies to the head's compatibility group only — the
     * scheduler keeps dispatching other groups around it — and the
     * returned deadline is a timer the event loop must honor, so held
     * work always dispatches eventually.
     *
     * Without a `price` (the deadline hold) the head holds until that
     * cap, and a zero maxWaitCycles never holds. With one
     * (BatcherConfig::costAware) the trade is priced in event-axis ns,
     *
     *   gain = (K - have) * weightLoadNs      amortization still to win
     *   slack = max(0, backlogNs - mapNs)     overlap forfeited anyway
     *   cost = max(0, waited + (K - have) * gapNs - slack)
     *
     * and the head holds only while gain > cost and the arrival gap
     * is known (two arrivals seen); maxWaitCycles is an optional cap
     * (0 = uncapped). The deadline is then the earliest of the
     * expected next arrival (re-evaluate with fresh facts), the
     * break-even time at which cost catches gain, and the cap — each
     * strictly in the future, and cost grows with the clock while gain
     * cannot grow without new arrivals.
     */
    BatchHold holdForHead(const AdmissionQueue &queue,
                          const Request &head, std::uint64_t now,
                          const std::function<bool(const Request &)>
                              &excluded = nullptr,
                          const DispatchCost *price = nullptr) const;

    /**
     * Form a batch led by `head` (which must be queued): the head
     * plus the best-ranked compatible followers not rejected by
     * `excluded` — the scheduler excludes members of held groups so
     * an eager batch cannot strip a held group below its target K.
     * With batching disabled, returns just the head.
     */
    Batch formLedBy(AdmissionQueue &queue, const Request &head,
                    const std::function<bool(const Request &)> &excluded)
        const;

  private:
    /** Size buckets whose scale ratio against `head`'s bucket passes
     *  the maxPointsRatio rule — together with the head's network id,
     *  the exact set of class sub-queues a batch led by `head` can
     *  draw from. */
    const std::vector<std::uint32_t> &
    allowedBuckets(const Request &head) const;

    /** What a hold probe needs to know about the head's group: how
     *  many queued requests would join a batch led by `head` (capped
     *  at `want` — `reached` short-circuits the walk there) and the
     *  group-wide oldest arrival. */
    struct GroupProbe
    {
        std::size_t have = 0;
        std::uint64_t oldest = 0;
        bool reached = false;
    };
    GroupProbe probeGroup(const AdmissionQueue &queue,
                          const Request &head, std::size_t want,
                          const std::function<bool(const Request &)>
                              &excluded) const;

    BatcherConfig cfg;
    std::vector<double> bucketScales;
    /** allowedBuckets() per head bucket, built once. */
    std::vector<std::vector<std::uint32_t>> allowed;
    std::function<bool(const Request &, const Request &)> extraRule;
};

} // namespace pointacc

#endif // POINTACC_RUNTIME_BATCHER_HPP
