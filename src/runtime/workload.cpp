#include "runtime/workload.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "core/rng.hpp"

namespace pointacc {

std::string
toString(ArrivalProcess process)
{
    switch (process) {
      case ArrivalProcess::Poisson: return "poisson";
      case ArrivalProcess::Bursty: return "bursty";
    }
    return "?";
}

void
validateWorkloadSpec(const WorkloadSpec &spec)
{
    if (spec.mix.empty())
        throw std::invalid_argument("workload mix must not be empty");
    if (!std::isfinite(spec.requestsPerMCycle) ||
        spec.requestsPerMCycle <= 0.0)
        throw std::invalid_argument(
            "offered load (requestsPerMCycle) must be positive and "
            "finite");
    if (spec.arrivals == ArrivalProcess::Bursty && spec.meanBurstSize < 1)
        throw std::invalid_argument("mean burst size must be >= 1");
    double total = 0.0;
    for (const auto &cls : spec.mix) {
        if (!std::isfinite(cls.weight) || cls.weight < 0.0)
            throw std::invalid_argument(
                "mix weights must be non-negative and finite");
        if (!(cls.mapReuseProb >= 0.0 && cls.mapReuseProb <= 1.0))
            throw std::invalid_argument(
                "mapReuseProb must be in [0, 1]");
        total += cls.weight;
    }
    if (total <= 0.0)
        throw std::invalid_argument(
            "mix weights must sum to a positive value");
}

WorkloadGenerator::WorkloadGenerator(WorkloadSpec spec) : wspec(std::move(spec))
{
    validateWorkloadSpec(wspec);
}

namespace detail {

double
exponentialDraw(Rng &rng, double mean)
{
    double u = rng.uniform();
    if (u > 1.0 - 1e-12)
        u = 1.0 - 1e-12;
    return -std::log(1.0 - u) * mean;
}

std::size_t
pickWeightedClass(Rng &rng, const std::vector<RequestClass> &mix,
                  double total_weight)
{
    double r = rng.uniform() * total_weight;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        r -= mix[i].weight;
        if (r <= 0.0)
            return i;
    }
    return mix.size() - 1;
}

} // namespace detail

WorkloadStream::WorkloadStream(const WorkloadSpec &spec)
    : WorkloadStream(spec, {}, 0)
{
}

WorkloadStream::WorkloadStream(const WorkloadSpec &spec,
                               const std::vector<RatePhase> &phases,
                               std::uint64_t churn_interval)
    : wspec(spec), churnInterval(churn_interval), rng(spec.seed)
{
    validateWorkloadSpec(wspec);
    for (const auto &cls : wspec.mix)
        totalWeight += cls.weight;
    // Bursty traffic keeps the same mean rate by thinning the event
    // process: events arrive at rate/meanBurst, each carrying on
    // average meanBurst requests. Computed with the seed's exact
    // expression — an algebraically equal rearrangement could round
    // differently and shift every arrival cycle.
    const bool bursty = wspec.arrivals == ArrivalProcess::Bursty;
    const double perEvent =
        bursty ? static_cast<double>(wspec.meanBurstSize) : 1.0;
    const auto segmentOf = [&](std::uint64_t start, double rate) {
        return Segment{static_cast<double>(start),
                       1.0 / (rate / 1e6 / perEvent)};
    };
    segments.push_back(segmentOf(0, wspec.requestsPerMCycle));
    for (const auto &ph : phases) {
        if (ph.startCycle == 0)
            segments.back() = segmentOf(0, ph.requestsPerMCycle);
        else
            segments.push_back(
                segmentOf(ph.startCycle, ph.requestsPerMCycle));
    }
    // First inter-event gap (the seed loop's first draw).
    clock = drawNextEventTime(0.0);
    nextEventCycle = static_cast<std::uint64_t>(clock);
    exhausted = nextEventCycle >= wspec.horizonCycles;
}

double
WorkloadStream::drawNextEventTime(double from)
{
    // Piecewise-exponential simulation: draw a gap at the current
    // segment's mean; a draw that crosses the next rate boundary is
    // discarded and restarted *at* the boundary under the new rate —
    // exact for a piecewise-constant-rate Poisson process by
    // memorylessness. With one segment this is a single draw, the
    // seed generator's sequence.
    double t = from;
    std::size_t seg = segments.size() - 1;
    while (seg > 0 && t < segments[seg].startCycle)
        --seg;
    for (;;) {
        const double gap =
            detail::exponentialDraw(rng, segments[seg].meanGap);
        if (seg + 1 == segments.size())
            return t + gap;
        const double boundary = segments[seg + 1].startCycle;
        if (t + gap < boundary)
            return t + gap;
        t = boundary;
        ++seg;
    }
}

void
WorkloadStream::refill()
{
    const bool bursty = wspec.arrivals == ArrivalProcess::Bursty;

    // A buffered request is releasable once no unmaterialized event
    // can rank before it: future members arrive at cycles >= the next
    // event's cycle with strictly larger ids, so the heap top is safe
    // exactly when top.arrivalCycle <= nextEventCycle (or the horizon
    // has been reached and nothing more will ever be drawn).
    while (!exhausted &&
           (pending.empty() ||
            pending.top().arrivalCycle > nextEventCycle)) {
        const std::uint64_t cycle = nextEventCycle;

        // Stream churn: crossing an interval boundary retires every
        // stream's frame history, so the next frame of each stream is
        // fresh geometry with a new cloudId (map-cache cold misses),
        // the way a rotated client population looks to the fleet.
        if (churnInterval > 0) {
            const std::uint64_t epoch = cycle / churnInterval;
            if (epoch > churnEpoch) {
                churnEvents += epoch - churnEpoch;
                churnEpoch = epoch;
                lastFrame.clear();
            }
        }

        // One event = one burst; the whole burst shares one class (a
        // client uploads several clouds of the same kind in a row).
        std::uint64_t count = 1;
        if (bursty && wspec.meanBurstSize > 1)
            count = 1 + rng.range(2 * wspec.meanBurstSize - 1);
        const auto &cls = wspec.mix[detail::pickWeightedClass(
            rng, wspec.mix, totalWeight)];
        for (std::uint64_t i = 0; i < count; ++i) {
            Request r;
            r.id = nextId++;
            r.networkId = cls.networkId;
            r.sizeBucket = cls.sizeBucket;
            // Repeated frame? The Rng draw is gated on mapReuseProb > 0
            // so traces without stream semantics stay byte-identical to
            // pre-stream generators with the same seed. Burst members
            // decide independently: a sweep burst can mix repeats of
            // the previous frame with fresh geometry.
            const auto [last, fresh] = lastFrame.try_emplace(cls.streamId);
            const bool repeat = cls.mapReuseProb > 0.0 && !fresh &&
                                rng.uniform() < cls.mapReuseProb;
            r.cloudId = repeat ? last->second : nextCloudId++;
            last->second = r.cloudId;
            // Back-to-back burst members, one cycle apart: they hit the
            // admission queue as a clump but keep unique timestamps.
            r.arrivalCycle = cycle + i;
            if (cls.deadlineCycles > 0)
                r.deadlineCycle = r.arrivalCycle + cls.deadlineCycles;
            pending.push(r);
        }
        peak = std::max(peak,
                        pending.size() + (lookahead.has_value() ? 1 : 0));

        // Draw the next event's gap now: its cycle is the release
        // threshold for everything buffered so far. Same position in
        // the RNG sequence as the seed loop's next iteration.
        clock = drawNextEventTime(clock);
        const auto next = static_cast<std::uint64_t>(clock);
        if (next >= wspec.horizonCycles)
            exhausted = true;
        else
            nextEventCycle = next;
    }
}

std::optional<Request>
WorkloadStream::nextInternal()
{
    refill();
    if (pending.empty())
        return std::nullopt;
    Request r = pending.top();
    pending.pop();
    numEmitted += 1;
    return r;
}

const Request *
WorkloadStream::peek()
{
    if (!lookahead)
        lookahead = nextInternal();
    return lookahead ? &*lookahead : nullptr;
}

Request
WorkloadStream::take()
{
    if (!lookahead)
        lookahead = nextInternal();
    Request r = *lookahead;
    lookahead.reset();
    return r;
}

std::vector<Request>
WorkloadGenerator::generate() const
{
    // Same trace the seed's materialize-then-stable_sort produced: the
    // stream emits in (arrivalCycle, id) order, which is exactly that
    // sort's total order.
    std::vector<Request> out;
    WorkloadStream s(wspec);
    while (s.peek() != nullptr)
        out.push_back(s.take());
    return out;
}

} // namespace pointacc
