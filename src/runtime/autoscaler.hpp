/**
 * @file
 * Reactive fleet autoscaler for the serving runtime.
 *
 * The capacity planner (runtime/planner) answers the static question:
 * how many instances does this SLO need at peak? The autoscaler
 * answers the dynamic one: what does it cost to *not* pre-provision
 * that peak — to start from a floor and chase the load reactively?
 * The serving event loop grows one new event kind (ScaleEval): every
 * evalIntervalCycles the policy looks at two windowed signals — the
 * admission-queue depth right now and the p99 latency of completions
 * since the last evaluation — and votes to add an instance, retire
 * one, or hold:
 *
 *  - scale UP when the queue depth reaches queueHighDepth, or the
 *    window p99 exceeds p99HighCycles (if set). A new instance is not
 *    instantly useful: it spends spinUpCycles powering on (model
 *    load, memory init) before accepting work — the gap between
 *    "decided" and "helping" is exactly what makes flash crowds hurt
 *    reactive fleets and is the headroom static planning buys.
 *  - scale DOWN when the queue has drained to queueLowDepth and the
 *    p99 signal is quiet. Retirement is *graceful*: the instance
 *    stops accepting new batches but finishes everything in flight
 *    (its MapDone/RunDone events stay valid), then powers off. A
 *    drain can be cancelled — a scale-up resurrects the draining
 *    instance instantly, no spin-up, because nothing was torn down.
 *  - cooldownCycles after any decision the policy holds, so one
 *    burst cannot trigger an up/down/up oscillation.
 *
 * Accounting: instanceCycles integrates (powered instances) x cycles
 * — spin-up and drain both count (they burn power) — so
 * fleetSize x horizon minus instanceCycles is the exact instance-cycle
 * saving vs static provisioning, the number the traffic gate reports.
 * Every evaluation appends a ScalingSample to the ScalingTimeline
 * (cycle, observed signals, provisioned count, action), serialized as
 * autoscaler_timeline in the serving JSON — the plottable trace of
 * the closed loop.
 *
 * Determinism: decisions depend only on simulated state, never on
 * host time or iteration order, so an autoscaled run is byte-identical
 * across repeats (pinned by test_runtime_properties). With
 * enabled=false nothing changes at all: no events are scheduled and
 * the scheduler's output stays byte-identical to the frozen reference
 * engine.
 */

#ifndef POINTACC_RUNTIME_AUTOSCALER_HPP
#define POINTACC_RUNTIME_AUTOSCALER_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pointacc {

/** Policy knobs for the reactive autoscaler. Default-constructed =
 *  disabled: the scheduler behaves exactly as before (byte-identical
 *  output, no scaling events). */
struct AutoscalerConfig
{
    bool enabled = false;
    /** Floor: never fewer powered instances than this (>= 1). Only a
     *  crash (runtime/faults) can power the fleet below it; the next
     *  evaluation then scales up regardless of signals or cooldown,
     *  onto any instance that is not itself crashed. */
    std::uint32_t minInstances = 1;
    /** Ceiling: never more than this; 0 = the whole configured fleet. */
    std::uint32_t maxInstances = 0;
    /** Instances powered at cycle 0; 0 = start at the floor. */
    std::uint32_t initialInstances = 0;
    /** Cycles between policy evaluations (> 0). */
    std::uint64_t evalIntervalCycles = 1'000'000;
    /** Scale up when the admission queue reaches this depth. */
    std::uint64_t queueHighDepth = 64;
    /** Scale down when the queue is at or below this depth (must be
     *  < queueHighDepth). */
    std::uint64_t queueLowDepth = 4;
    /** Scale up when the window p99 latency exceeds this; 0 = queue
     *  depth only. */
    std::uint64_t p99HighCycles = 0;
    /** Cycles a newly powered instance takes before accepting work
     *  (model load, memory init); 0 = instantly useful. */
    std::uint64_t spinUpCycles = 0;
    /** Cycles after any scale decision during which the policy holds
     *  (oscillation damper); 0 = decide every evaluation. */
    std::uint64_t cooldownCycles = 0;
};

/**
 * Validate `cfg` against a concrete fleet size and return the resolved
 * copy (maxInstances/initialInstances defaults filled in). Throws
 * std::invalid_argument on: minInstances == 0, maxInstances larger
 * than the fleet, max < min, initialInstances outside [min, max], a
 * zero evalIntervalCycles, or queueLowDepth >= queueHighDepth.
 */
AutoscalerConfig resolveAutoscalerConfig(const AutoscalerConfig &cfg,
                                         std::size_t fleet_size);

/**
 * The decision function, pulled out of the scheduler so it is testable
 * in isolation: +1 (scale up), -1 (scale down) or 0 (hold) from the
 * windowed signals. Pure state machine over simulated time — the only
 * state is the last decision cycle (cooldown).
 */
class AutoscalerPolicy
{
  public:
    /** `cfg` must already be resolved (see resolveAutoscalerConfig). */
    explicit AutoscalerPolicy(const AutoscalerConfig &cfg) : asCfg(cfg) {}

    /** Evaluate at `now`: queue_depth is the instantaneous admission
     *  queue depth, window_p99 the p99 latency (cycles) of completions
     *  since the previous evaluation (0 when none completed),
     *  provisioned the count of instances currently powered and not
     *  draining. Returns the clamped decision; +1 whenever
     *  provisioned is below the floor. */
    int decide(std::uint64_t now, std::uint64_t queue_depth,
               std::uint64_t window_p99, std::uint32_t provisioned);

    const AutoscalerConfig &config() const { return asCfg; }

  private:
    AutoscalerConfig asCfg;
    std::uint64_t lastActionAt = 0;
    bool everActed = false;
};

/** One policy evaluation as recorded in the timeline. */
struct ScalingSample
{
    std::uint64_t cycle = 0;
    std::uint64_t queueDepth = 0;
    std::uint64_t windowP99Cycles = 0;
    /** Powered, non-draining instances *after* this decision. */
    std::uint32_t provisioned = 0;
    /** +1 scale-up, -1 scale-down, 0 hold. */
    std::int64_t action = 0;
};

/** Time-bucketed trace of the closed loop: one sample per policy
 *  evaluation (bucketCycles = evalIntervalCycles). */
struct ScalingTimeline
{
    std::uint64_t bucketCycles = 0;
    std::vector<ScalingSample> samples;
};

/** Autoscaler outcome, carried on ServingReport and serialized as the
 *  autoscaler_* JSON block (emitted only when enabled, so unscaled
 *  reports stay byte-identical to pre-autoscaler output). */
struct AutoscalerStats
{
    bool enabled = false;
    std::uint32_t minInstances = 0;
    std::uint32_t maxInstances = 0;
    std::uint64_t evals = 0;
    std::uint64_t scaleUps = 0;
    std::uint64_t scaleDowns = 0;
    /** Integral of powered instances over the run: the energy/cost
     *  proxy the traffic gate compares against static provisioning. */
    std::uint64_t instanceCycles = 0;
    std::uint32_t peakProvisioned = 0;
    std::uint32_t finalProvisioned = 0;
    /** Batches completed by instances that were draining — the
     *  graceful-drain guarantee made countable. */
    std::uint64_t drainedBatches = 0;
    ScalingTimeline timeline;
};

} // namespace pointacc

#endif // POINTACC_RUNTIME_AUTOSCALER_HPP
