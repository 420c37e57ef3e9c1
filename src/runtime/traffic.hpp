/**
 * @file
 * Traffic programs: non-stationary arrival generation for the serving
 * runtime.
 *
 * The workload layer (runtime/workload) generates *stationary*
 * Poisson/bursty arrivals — one rate, forever. Production point-cloud
 * serving does not look like that: load follows the day (diurnal
 * swings), spikes when an event draws a crowd of AR clients at once
 * (flash crowds), and the population of LiDAR streams feeding the
 * fleet turns over, which churns the kernel-map cache's working set.
 * A TrafficProgram describes exactly those effects as data:
 *
 *  - a piecewise-constant rate profile (RatePhase list) over the
 *    base WorkloadSpec — a Markov-modulated Poisson process whose
 *    modulating chain is a deterministic schedule, which is what a
 *    capacity question ("does this fleet survive Monday morning?")
 *    actually needs: the worst case is replayable, not sampled;
 *  - stream churn (ChurnSpec): every intervalCycles the per-stream
 *    frame history resets, so the next frame of every stream is fresh
 *    geometry with a brand-new cloudId — the map cache's resident
 *    entries become garbage exactly the way a fleet handover or a
 *    rotated client population makes them garbage;
 *  - presets (flashCrowdProgram, diurnalProgram) for the two shapes
 *    every serving paper plots, and schedule-file replay
 *    (writeSchedule / readSchedule) so a recorded trace — generated
 *    or captured — can be re-served bit-for-bit.
 *
 * TrafficStream emits a program lazily behind the same RequestSource
 * interface the scheduler already consumes, so the event loop is
 * untouched; it is WorkloadStream's engine run with the program's rate
 * schedule and churn. Rate changes use the exact piecewise-exponential
 * construction (draw a gap at the current segment's rate; if it
 * crosses the next boundary, restart the draw *at* the boundary under
 * the new rate — valid by memorylessness), and every per-event draw
 * (gap, burst size, class pick, per-member reuse) happens in the
 * stationary stream's order. A program with no phases and no churn
 * is therefore byte-identical to the stationary stream with the same
 * spec — the anchor property test that pins this layer to the seed
 * generator's contract.
 *
 * Invariants (fuzzed by test_runtime_properties): per-segment arrival
 * counts match the analytic expectation rate * length; the stationary
 * anchor above; materialize() output is sorted by arrivalOrderBefore
 * with ids dense from 0; writeSchedule -> readSchedule round-trips to
 * the identical request vector (and identical serving JSON when
 * served); readSchedule rejects malformed input with
 * std::invalid_argument, never garbage requests.
 */

#ifndef POINTACC_RUNTIME_TRAFFIC_HPP
#define POINTACC_RUNTIME_TRAFFIC_HPP

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "runtime/workload.hpp"

namespace pointacc {

/** Stream-churn knob: every intervalCycles the per-stream frame
 *  history resets, so each stream's next frame is fresh geometry with
 *  a new cloudId — repeated-frame map-cache locality is destroyed at
 *  every boundary (0 = never churn). */
struct ChurnSpec
{
    std::uint64_t intervalCycles = 0;
};

/** A full arrival program: base spec + rate schedule + churn. */
struct TrafficProgram
{
    std::string name = "traffic";
    /** Supplies everything a rate alone does not: seed, horizon,
     *  arrival process shape, burst size and the class mix. Its
     *  requestsPerMCycle is the rate before the first phase. */
    WorkloadSpec base;
    /** Rate schedule, sorted by strictly increasing startCycle;
     *  empty = stationary at the base rate. */
    std::vector<RatePhase> phases;
    ChurnSpec churn;

    /** Largest rate any segment runs at (>= base rate). */
    double peakRequestsPerMCycle() const;
};

/**
 * Validate a TrafficProgram, throwing std::invalid_argument on the
 * first violation: an invalid base spec (see validateWorkloadSpec),
 * phases not strictly increasing in startCycle, or a non-positive /
 * non-finite phase rate.
 */
void validateTrafficProgram(const TrafficProgram &program);

/** Flash crowd: base rate, then multiplier * base over the window
 *  [start_frac, start_frac + duration_frac) of the horizon, then base
 *  again. Throws std::invalid_argument on a non-positive multiplier
 *  or a window outside (0, 1]. */
TrafficProgram flashCrowdProgram(const WorkloadSpec &base,
                                 double multiplier, double start_frac,
                                 double duration_frac);

/** Diurnal swing: rate follows a raised-cosine day profile between
 *  the base rate (trough) and peak_factor * base (peak), sampled as
 *  steps_per_period piecewise-constant segments per period, repeated
 *  to the horizon. Throws std::invalid_argument on peak_factor < 1,
 *  period_cycles == 0 or steps_per_period < 2. */
TrafficProgram diurnalProgram(const WorkloadSpec &base,
                              std::uint64_t period_cycles,
                              double peak_factor,
                              std::uint32_t steps_per_period);

/** What a serving run saw of its traffic program — carried on the
 *  ServingReport so writeServingJson can emit the traffic_* block
 *  (emitted only when present, so stationary reports stay
 *  byte-identical to pre-traffic output). */
struct TrafficTelemetry
{
    bool present = false;
    std::string program;
    std::uint64_t segments = 0; ///< piecewise-rate segments (>= 1)
    double basePerMCycle = 0.0;
    double peakPerMCycle = 0.0;
    std::uint64_t churnIntervalCycles = 0;
    std::uint64_t churnEvents = 0; ///< churn boundaries actually crossed
};

/**
 * Lazy arrival stream over a TrafficProgram: WorkloadStream's engine
 * (O(in-flight + classes) memory, bounded reorder heap,
 * arrivalOrderBefore emission order) run with the program's rate
 * schedule and stream churn. See the file header for the draw-order
 * guarantee.
 */
class TrafficStream : public WorkloadStream
{
  public:
    /** Validates the program (std::invalid_argument on violation). */
    explicit TrafficStream(const TrafficProgram &program);

    /** Telemetry snapshot (program shape + churn events so far);
     *  meaningful after the stream has been drained. */
    TrafficTelemetry telemetry() const;

  private:
    TrafficTelemetry shape; ///< everything but churnEvents
};

/** Drain a program into a sorted trace (ids dense from 0). When
 *  `telemetry` is non-null it receives the drained stream's snapshot
 *  — the vector-entry-point analogue of running a TrafficStream and
 *  reading telemetry() afterwards. */
std::vector<Request> materialize(const TrafficProgram &program,
                                 TrafficTelemetry *telemetry = nullptr);

/**
 * Schedule-file replay. writeSchedule records a trace as a versioned
 * text schedule (one request per line); readSchedule parses one back,
 * throwing std::invalid_argument on a bad magic/version, a malformed
 * or truncated row, or rows out of arrival order. A recorded schedule
 * replayed through VectorRequestSource serves byte-identically to the
 * stream that produced it (pinned by test_runtime_properties).
 */
void writeSchedule(std::ostream &os, const std::vector<Request> &trace);
std::vector<Request> readSchedule(std::istream &is);

} // namespace pointacc

#endif // POINTACC_RUNTIME_TRAFFIC_HPP
