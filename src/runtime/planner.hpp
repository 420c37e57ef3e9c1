/**
 * @file
 * Capacity planner: SLO-driven fleet sizing over the serving simulator.
 *
 * Every component below this layer answers a *measurement* question —
 * "what latency does THIS fleet deliver?". Operators ask the inverse,
 * *sizing* question: "what is the cheapest fleet that meets a latency
 * SLO for this workload?". The O(log n) discrete-event core makes a
 * single probe (one FleetScheduler run over the workload's trace)
 * cheap enough to search over fleet configurations instead of
 * hand-picking 1/2/4, the way PointAcc's server-class comparison
 * (Fig. 13) and Mesorasi's latency-vs-resource analysis hand-pick
 * design points.
 *
 * The search space is a numeric lattice times a small categorical
 * cross-product:
 *
 *  - the fleet lattice: either the legacy homogeneous axis (fleet
 *    size in [minFleetSize, maxFleetSize], copies of one instance
 *    config, cost == instance count) or — when PlanSearchSpace::kinds
 *    is non-empty — a composition lattice over heterogeneous instance
 *    kinds (e.g. PointAcc server + PointAcc.Edge, the paper's Table 3
 *    split): a composition is a per-kind count vector, its cost the
 *    count-weighted sum of unit costs under the configured objective
 *    (instances, nominal watts through the EnergyModel constants, or
 *    price), optionally capped by a cost budget;
 *  - admission policy (FIFO / SJF / EDF);
 *  - batcher discipline (enabled, targetK, maxWaitCycles, cost-aware);
 *  - kernel-map cache on/off;
 *  - run-ahead depth (SchedulerConfig::runAheadDepth — how far the
 *    Mapping Unit runs ahead of the back-end).
 *
 * Search strategy: the categorical axes are enumerated exhaustively
 * (they are small by construction). The lattice is decomposed into
 * axis-parallel *rays*: fix the counts of every kind but the first
 * (one ray per such tuple; the homogeneous axis is the one ray of the
 * one-kind lattice), then search the kind-0 count along each ray with
 * monotone galloping + bisection. At a fixed offered load, p99 and
 * throughput are empirically monotone in instance count — more
 * instances never hurt the tail — and cost is strictly increasing
 * along the ray, so the cheapest passing composition on a ray is the
 * smallest passing kind-0 count, bracketed in O(log axis) probes. The
 * assumption is *verified*, not trusted: after bisection lands on a
 * candidate, up to PlannerConfig::spotProbes not-yet-probed counts
 * below it are probed — and when the gallop found no passing count at
 * all, the same spot check runs over the whole ray before it is
 * declared infeasible. If any spot probe passes (non-monotone tail,
 * e.g. a bounded queue shedding the slow tail at small fleets), the
 * planner falls back to a linear scan of that ray and records the
 * violation in PlanReport::monotoneFleetAxis. Probe results are
 * memoized per (combination, composition), every probe is logged, and
 * probe order is deterministic — equal inputs give byte-identical
 * PlanReports.
 *
 * "Cheapest" means: smallest objective cost over every ray's minimum,
 * ties broken by total instance count and then enumeration order
 * (categorical combination — policies, then batcher points, then
 * cache options — then ray order). planExhaustive runs the full grid
 * with the same tie-break, so the two agree whenever the per-ray
 * monotonicity assumption holds; bench_serving's plan and hetero
 * sweeps gate on exactly that agreement plus a probe budget.
 *
 * Invariants (fuzzed by test_runtime_properties): the chosen
 * configuration meets the SLO when re-simulated; no logged probe with
 * a smaller fleet size met the SLO; writePlanJson output is
 * byte-identical across runs; probesSpent never exceeds the exhaustive
 * grid size. Each probe goes through the virtual probe() hook — the
 * exact call path plan() uses — so the differential tests can compare
 * it byte-for-byte against the preserved seed engine
 * (runtime/reference), and unit tests can inject synthetic
 * (non-monotone) probe outcomes.
 */

#ifndef POINTACC_RUNTIME_PLANNER_HPP
#define POINTACC_RUNTIME_PLANNER_HPP

#include <cstdint>
#include <ostream>
#include <vector>

#include "core/json.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serving_stats.hpp"
#include "runtime/workload.hpp"
#include "sim/accel_config.hpp"

namespace pointacc {

/** Service-level objective a candidate fleet must meet. Constraints
 *  set to 0 are unconstrained; with no constraint at all every config
 *  passes and the planner returns the cheapest grid point. */
struct SloSpec
{
    /** p99 arrival->completion latency bound in cycles (0 = none). */
    std::uint64_t maxP99Cycles = 0;
    /** Minimum completed-requests-per-second throughput (0 = none). */
    double minThroughputRps = 0.0;
};

/** Does `report` satisfy `slo`? (The planner's pass/fail predicate;
 *  exposed so tests re-simulate the chosen config and re-judge it.) */
bool meetsSlo(const ServingReport &report, const SloSpec &slo);

/** One point on the batcher axis of the search space. */
struct BatcherAxisPoint
{
    bool enabled = false;
    std::uint32_t targetK = 1;
    std::uint64_t maxWaitCycles = 0;
    /** Priced hold-vs-dispatch instead of the blind wait timer
     *  (BatcherConfig::costAware). */
    bool costAware = false;
};

/** What the lattice search minimizes. Instances is the legacy cost
 *  (every instance counts 1); Watts and Price weight each kind by its
 *  unit cost and require a non-empty kind list. */
enum class PlanObjective
{
    Instances,
    Watts,
    Price,
};

std::string toString(PlanObjective objective);

/**
 * Nominal power draw of one instance in watts, priced through the
 * config's EnergyModel constants: static leakage plus the MAC array
 * at full issue — macPJ pJ/MAC x rows x cols MACs/cycle x freqGHz
 * cycles/ns = pJ/ns = mW, so x 1e-3 watts. The default unit cost of
 * the Watts objective (Table 3: the server-class part draws an order
 * of magnitude more than the edge part).
 */
double nominalWatts(const AcceleratorConfig &config);

/** One instance kind on the heterogeneous composition lattice. */
struct InstanceKindSpec
{
    AcceleratorConfig config;
    /** Unit cost under PlanObjective::Watts; 0 (the default) derives
     *  it from the config via nominalWatts(). */
    double watts = 0.0;
    /** Unit cost under PlanObjective::Price (any currency; must be
     *  positive when the Price objective is active). */
    double price = 1.0;
    /** Instance-count range of this kind on the lattice. */
    std::size_t minCount = 0;
    std::size_t maxCount = 4;
};

/** The planner's search space: fleet-size range x categorical axes.
 *  `base` supplies every SchedulerConfig field not on an axis
 *  (occupancy, queue depth, maxBatchSize, map-cache parameters). */
struct PlanSearchSpace
{
    std::size_t minFleetSize = 1;
    std::size_t maxFleetSize = 8;
    std::vector<QueuePolicy> policies = {QueuePolicy::Fifo};
    std::vector<BatcherAxisPoint> batchers = {BatcherAxisPoint{}};
    std::vector<bool> mapCacheOptions = {false};
    /** Run-ahead buffer depths to search (SchedulerConfig::
     *  runAheadDepth; every entry must be >= 1). The default {1} is
     *  the blocking handoff, so legacy spaces enumerate exactly the
     *  grid they always did. */
    std::vector<std::uint32_t> runAheadDepths = {1};
    SchedulerConfig base;

    /** Availability mode: when enabled, every candidate is probed
     *  under this fault program (and retry policy below), so the
     *  search returns the cheapest fleet whose SLO survives the
     *  faults — N+1 sizing falls out naturally: a fleet that meets
     *  the SLO only with all instances healthy fails its probe and
     *  the planner pays for the spare. Default-disabled: the plan is
     *  then identical to the fault-free search (golden-pinned). */
    FaultProgram faults;
    /** Retry policy paired with `faults` in availability mode. */
    RetryPolicy retry;

    /** Heterogeneous composition lattice. Empty (the default) keeps
     *  the legacy homogeneous axis: [minFleetSize, maxFleetSize]
     *  copies of the planner's instance config. Non-empty replaces
     *  that axis with count vectors over these kinds (min/maxFleetSize
     *  are then ignored); a composition must field >= 1 instance. */
    std::vector<InstanceKindSpec> kinds;

    /** Cost the search minimizes. Watts/Price require `kinds`. */
    PlanObjective objective = PlanObjective::Instances;

    /** Composition cost ceiling in objective units ("the watt
     *  budget"); compositions costing more are excluded from the
     *  lattice entirely. 0 = unbounded. Lattice only. */
    double maxCostBudget = 0.0;

    /** Categorical combinations (policies x batchers x cache x
     *  run-ahead depths). */
    std::size_t
    comboCount() const
    {
        return policies.size() * batchers.size() *
               mapCacheOptions.size() * runAheadDepths.size();
    }

    /** Lattice points: fleet sizes on the homogeneous axis, or valid
     *  (in-range, non-empty, within-budget) compositions. */
    std::uint64_t compositionCount() const;

    /** Size of the exhaustive grid: combos x lattice points. */
    std::uint64_t
    gridSize() const
    {
        return static_cast<std::uint64_t>(comboCount()) *
               compositionCount();
    }
};

/** The concrete fleet a lattice composition describes: count_k copies
 *  of each kind's config, in kind order — the exact fleet-expansion
 *  rule every lattice probe prices through. */
std::vector<AcceleratorConfig>
fleetFor(const PlanSearchSpace &space,
         const std::vector<std::size_t> &composition);

/** One logged probe: a full config plus its headline outcome. */
struct PlanProbe
{
    /** Total instances fielded (== sum of `composition` on the
     *  lattice). */
    std::size_t fleetSize = 0;
    /** Per-kind instance counts in space.kinds order; empty on the
     *  legacy homogeneous axis (fleetSize carries the count). */
    std::vector<std::size_t> composition;
    /** Objective cost of this fleet (== fleetSize under Instances). */
    double cost = 0.0;
    QueuePolicy policy = QueuePolicy::Fifo;
    bool batching = false;
    std::uint32_t targetK = 1;
    std::uint64_t maxWaitCycles = 0;
    bool costAware = false;
    bool mapCacheOn = false;
    /** Run-ahead buffer depth (1 = blocking handoff). */
    std::uint32_t runAheadDepth = 1;
    double p99Cycles = 0.0;
    double throughputRps = 0.0;
    double dropRate = 0.0;
    bool meetsSlo = false;
};

/** Outcome of one planning run. */
struct PlanReport
{
    SloSpec slo;
    /** The objective the search minimized (echoed from the space). */
    PlanObjective objective = PlanObjective::Instances;
    /** The space's composition cost ceiling (0 = unbounded). */
    double costBudget = 0.0;
    /** At least one grid point met the SLO. */
    bool feasible = false;
    /** The cheapest passing configuration (zeroed when infeasible). */
    PlanProbe chosen;
    /** Every probe actually simulated, in probe order — the search's
     *  frontier log. Memoized re-evaluations are not re-logged. */
    std::vector<PlanProbe> probes;
    /** == probes.size(); kept explicit for the JSON surface. */
    std::uint64_t probesSpent = 0;
    /** Full grid size — what exhaustive search would have spent. */
    std::uint64_t exhaustiveProbes = 0;
    /** False when a verification probe (or the exhaustive grid)
     *  observed, along some lattice ray, a smaller fleet passing where
     *  a larger one failed. */
    bool monotoneFleetAxis = true;
    /** SLO headroom of the chosen config (0 when the corresponding
     *  constraint is absent or the plan is infeasible). */
    double p99MarginCycles = 0.0;
    double throughputMarginRps = 0.0;
};

/** The SchedulerConfig a probe describes: `space.base` with the
 *  probe's categorical-axis values applied — the exact mapping the
 *  planner prices configurations through, exposed so callers can
 *  re-simulate a chosen configuration without mirroring the field
 *  list by hand. */
SchedulerConfig schedulerConfigFor(const PlanSearchSpace &space,
                                   const PlanProbe &probe);

/** Serialize a PlanReport (single line + '\n'; schema documented in
 *  docs/SERVING_JSON.md, pinned by tests/test_report_golden.cpp). */
void writePlanJson(std::ostream &os, const PlanReport &report);

/** Emit the PlanReport object body into an open writer — the shared
 *  core of writePlanJson, exposed so bench_serving can embed a plan
 *  under a key of its own BENCH_serving.json envelope. */
void writePlanObject(JsonWriter &w, const PlanReport &report);

/** Planner knobs. */
struct PlannerConfig
{
    /** Monotonicity verification: up to this many not-yet-probed fleet
     *  sizes below the bisection candidate are probed; any passing one
     *  triggers the linear-scan fallback. 0 trusts monotonicity. */
    std::size_t spotProbes = 2;
    /** Search parallelism: 1 = serial (the default, and the reference
     *  behavior), 0 = one worker per hardware thread, N = N workers.
     *  Parallel plans run the (combo, ray) searches concurrently on a
     *  one-queue ProbeExecutor; the probes within one search stay
     *  serial, so a plan with one combo and one ray runs serially.
     *  Each search logs its own probes and the logs are joined in
     *  (combo, ray) order, so the PlanReport is byte-identical to
     *  threads == 1 and simulates exactly the probes it logs
     *  (enforced by bench_serving's differential gate and
     *  PlannerProperties.ParallelPlanIsByteIdenticalToSerial). */
    std::size_t threads = 1;
};

/**
 * Searches PlanSearchSpace for the cheapest fleet meeting an SLO.
 * With an empty kind list, fleets are homogeneous (`fleet_size`
 * copies of one instance config); with kinds, fleets are the
 * compositions fleetFor expands.
 */
class CapacityPlanner
{
  public:
    /**
     * @param instance       config replicated per fleet member
     * @param model          service-time oracle (outlives the planner)
     * @param bucket_scales  the catalog's size buckets (batcher rule)
     * @param config         search-verification knobs
     */
    CapacityPlanner(AcceleratorConfig instance, const ServiceModel &model,
                    std::vector<double> bucket_scales,
                    PlannerConfig config = {});

    virtual ~CapacityPlanner() = default;

    const PlannerConfig &config() const { return cfg; }

    /** Gallop + bisect + verify (see file header). Deterministic:
     *  equal inputs give byte-identical reports. */
    PlanReport plan(const WorkloadSpec &workload, const SloSpec &slo,
                    const PlanSearchSpace &space) const;

    /** Same search over a non-stationary traffic program
     *  (runtime/traffic): the program's trace is materialized once and
     *  shared across every probe, so the planner sizes the fleet for
     *  the program's *peak* — "does this fleet survive Monday
     *  morning?" asked as a sizing question. */
    PlanReport plan(const TrafficProgram &program, const SloSpec &slo,
                    const PlanSearchSpace &space) const;

    /** Probe every grid point (probesSpent == gridSize()) with the
     *  same tie-break — the oracle the plan sweep gates against. */
    PlanReport planExhaustive(const WorkloadSpec &workload,
                              const SloSpec &slo,
                              const PlanSearchSpace &space) const;

    /**
     * One probe: serve `trace` on `fleet_size` copies of the instance
     * config under `scfg`. This is the exact call path plan() prices
     * configurations through; virtual so tests can (a) compare it
     * against runServingReference byte-for-byte and (b) inject
     * synthetic outcomes to exercise the non-monotone fallback.
     */
    virtual ServingReport probe(std::size_t fleet_size,
                                const SchedulerConfig &scfg,
                                const std::vector<Request> &trace) const;

    /**
     * One lattice probe: serve `trace` on the fleet `composition`
     * expands to (fleetFor) under `scfg`. Every heterogeneous plan
     * prices compositions through this hook — virtual for the same
     * differential / fault-injection reasons as probe(), which stays
     * the hook for kinds-empty spaces so legacy overrides keep
     * working unchanged.
     */
    virtual ServingReport
    probeComposition(const PlanSearchSpace &space,
                     const std::vector<std::size_t> &composition,
                     const SchedulerConfig &scfg,
                     const std::vector<Request> &trace) const;

  private:
    struct Search;

    AcceleratorConfig instance;
    const ServiceModel &model;
    std::vector<double> bucketScales;
    PlannerConfig cfg;
};

} // namespace pointacc

#endif // POINTACC_RUNTIME_PLANNER_HPP
