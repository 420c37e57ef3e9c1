#include "runtime/batcher.hpp"

#include <algorithm>
#include <limits>

#include "core/logging.hpp"

namespace pointacc {

Batcher::Batcher(const BatcherConfig &config, std::vector<double> bucket_scales)
    : cfg(config), bucketScales(std::move(bucket_scales))
{
    if (cfg.maxBatchSize < 1)
        fatal("batcher maxBatchSize must be >= 1");
    if (cfg.maxPointsRatio < 1.0)
        fatal("batcher maxPointsRatio must be >= 1");
    if (cfg.targetK < 1)
        fatal("batcher targetK must be >= 1");
    if (bucketScales.empty())
        fatal("batcher needs at least one size bucket");
    for (const double sh : bucketScales) {
        std::vector<std::uint32_t> &out = allowed.emplace_back();
        for (std::uint32_t b = 0;
             b < static_cast<std::uint32_t>(bucketScales.size()); ++b) {
            const double sb = bucketScales[b];
            const double ratio = sh > sb ? sh / sb : sb / sh;
            // Same comparison compatible() applies, so the class walk
            // and the pairwise rule can never disagree on a bucket.
            if (!(ratio > cfg.maxPointsRatio))
                out.push_back(b);
        }
    }
}

bool
Batcher::compatible(const Request &a, const Request &b) const
{
    if (a.networkId != b.networkId)
        return false;
    simAssert(a.sizeBucket < bucketScales.size() &&
                  b.sizeBucket < bucketScales.size(),
              "request size bucket out of catalog range");
    const double sa = bucketScales[a.sizeBucket];
    const double sb = bucketScales[b.sizeBucket];
    const double ratio = sa > sb ? sa / sb : sb / sa;
    if (ratio > cfg.maxPointsRatio)
        return false;
    return !extraRule || extraRule(a, b);
}

const std::vector<std::uint32_t> &
Batcher::allowedBuckets(const Request &head) const
{
    simAssert(head.sizeBucket < allowed.size(),
              "request size bucket out of catalog range");
    return allowed[head.sizeBucket];
}

Batcher::GroupProbe
Batcher::probeGroup(
    const AdmissionQueue &queue, const Request &head, std::size_t want,
    const std::function<bool(const Request &)> &excluded) const
{
    // Count queued requests that would actually join a batch led by
    // the head (the head itself included; excluded requests — members
    // of other held groups — would not, so they must not count), and
    // find the group's oldest arrival: the wait bound anchors there,
    // not at the current leader — under SJF/EDF the leader can change
    // as newer requests outrank it, and a sliding anchor would let an
    // old member wait far past the hold bound.
    //
    // Only the head's network's size-compatible class sub-queues can
    // contain group members, so the probe visits those instead of
    // scanning the whole queue; the probe's outcome (count reaching K,
    // or the group-wide oldest arrival) is visit-order independent.
    GroupProbe probe;
    probe.oldest = head.arrivalCycle;
    for (const std::uint32_t b : allowedBuckets(head)) {
        queue.visitClass(head.networkId, b, [&](const Request &r) {
            if (r.id == head.id ||
                (compatible(head, r) &&
                 !(excluded && excluded(r)))) {
                probe.have += 1;
                probe.oldest = std::min(probe.oldest, r.arrivalCycle);
                if (probe.have >= want) {
                    probe.reached = true;
                    return false;
                }
            }
            return true;
        });
        if (probe.reached)
            break;
    }
    return probe;
}

BatchHold
Batcher::holdForHead(
    const AdmissionQueue &queue, const Request &head, std::uint64_t now,
    const std::function<bool(const Request &)> &excluded,
    const DispatchCost *price) const
{
    BatchHold decision;
    if (!cfg.enabled || cfg.targetK <= 1)
        return decision;
    // A deadline hold needs a deadline. A priced hold needs an observed
    // arrival cadence: without one there is no basis to price waiting,
    // so dispatch eagerly rather than hold on a guess.
    if (price ? price->arrivalGapNs == 0 : cfg.maxWaitCycles == 0)
        return decision;

    const std::size_t want =
        std::min<std::size_t>(cfg.targetK, cfg.maxBatchSize);
    const GroupProbe probe = probeGroup(queue, head, want, excluded);
    if (probe.reached)
        return decision; // K reached: dispatch now

    // The hard cap: the deadline of a plain hold and, when
    // maxWaitCycles is set, the operator's absolute latency bound on a
    // priced one.
    const std::uint64_t hardCap =
        cfg.maxWaitCycles > 0 ? probe.oldest + cfg.maxWaitCycles
                              : std::numeric_limits<std::uint64_t>::max();
    if (now >= hardCap)
        return decision; // waited long enough: dispatch undersized
    if (price == nullptr)
        return BatchHold{true, hardCap};

    // The trade, priced in event-axis ns. Each member still missing
    // from K amortizes away one weight reload (the cost model credits
    // min-weight-load per extra member — see batchServiceCycles):
    const std::uint64_t missing =
        static_cast<std::uint64_t>(want - probe.have);
    const std::uint64_t gain = missing * price->weightLoadNs;
    // Waiting forfeits front/back overlap only once the back-end's
    // committed backlog (running remainder + staged run-ahead batches)
    // is thinner than the mapping a dispatch would overlap with it:
    const std::uint64_t slack =
        price->backlogNs > price->mapNs ? price->backlogNs - price->mapNs
                                        : 0;
    // Expected cost of reaching K: the group has already waited since
    // its oldest arrival, and filling the gap takes an expected
    // missing * gap more — minus the slack that was forfeited anyway.
    const std::uint64_t spent =
        (now - probe.oldest) + missing * price->arrivalGapNs;
    const std::uint64_t cost = spent > slack ? spent - slack : 0;
    if (gain <= cost)
        return decision; // amortization no longer pays: dispatch

    // Re-evaluate at the earliest decision-changing moment: the
    // expected next arrival (fresh K count), the break-even time at
    // which the growing cost catches the gain, or the hard cap.
    // gain > cost implies breakEven > now, so every candidate is
    // strictly in the future and the hold can never arm a stale timer.
    const std::uint64_t breakEven =
        probe.oldest + slack + gain - missing * price->arrivalGapNs;
    return BatchHold{
        true, std::min({now + price->arrivalGapNs, breakEven, hardCap})};
}

Batch
Batcher::formLedBy(
    AdmissionQueue &queue, const Request &head,
    const std::function<bool(const Request &)> &excluded) const
{
    Batch batch;
    const std::size_t limit =
        !cfg.enabled ? 1 : cfg.maxBatchSize;
    // Followers can only come from the head's network's
    // size-compatible class sub-queues; the extra rule (hit/miss
    // purity) is the one per-item predicate left to evaluate there.
    batch.requests = queue.popLedByBuckets(head, allowedBuckets(head),
                                           extraRule, limit, excluded);
    return batch;
}

} // namespace pointacc
