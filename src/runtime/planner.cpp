#include "runtime/planner.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <utility>

#include "core/logging.hpp"
#include "runtime/executor.hpp"
#include "runtime/traffic.hpp"

namespace pointacc {

std::string
toString(PlanObjective objective)
{
    switch (objective) {
      case PlanObjective::Instances: return "instances";
      case PlanObjective::Watts: return "watts";
      case PlanObjective::Price: return "price";
    }
    return "?";
}

double
nominalWatts(const AcceleratorConfig &config)
{
    // pJ/MAC x MACs/cycle x cycles/ns = pJ/ns = mW; 1e-3 -> W.
    const double macsPerCycle = static_cast<double>(config.mxu.rows) *
                                static_cast<double>(config.mxu.cols);
    return config.energy.staticPowerW +
           config.energy.macPJ * macsPerCycle * config.freqGHz * 1e-3;
}

std::vector<AcceleratorConfig>
fleetFor(const PlanSearchSpace &space,
         const std::vector<std::size_t> &composition)
{
    simAssert(composition.size() == space.kinds.size(),
              "composition must have one count per kind");
    std::vector<AcceleratorConfig> fleet;
    for (std::size_t k = 0; k < composition.size(); ++k)
        fleet.insert(fleet.end(), composition[k], space.kinds[k].config);
    return fleet;
}

bool
meetsSlo(const ServingReport &report, const SloSpec &slo)
{
    if (slo.maxP99Cycles > 0 &&
        report.p99Cycles() > static_cast<double>(slo.maxP99Cycles))
        return false;
    if (slo.minThroughputRps > 0.0 &&
        report.throughputRps() < slo.minThroughputRps)
        return false;
    return true;
}

SchedulerConfig
schedulerConfigFor(const PlanSearchSpace &space, const PlanProbe &probe)
{
    SchedulerConfig scfg = space.base;
    scfg.policy = probe.policy;
    scfg.batcher.enabled = probe.batching;
    scfg.batcher.targetK = probe.targetK;
    scfg.batcher.maxWaitCycles = probe.maxWaitCycles;
    scfg.batcher.costAware = probe.costAware;
    scfg.mapCache.enabled = probe.mapCacheOn;
    scfg.runAheadDepth = probe.runAheadDepth;
    // Availability mode: probe every candidate under the fault
    // program, so only fleets that survive it count as meeting the
    // SLO. Disabled programs leave the probe config untouched (and
    // the resulting plan byte-identical to the fault-free search).
    if (space.faults.enabled)
        scfg.faults = space.faults;
    if (space.retry.enabled)
        scfg.retry = space.retry;
    return scfg;
}

namespace {

/** One categorical grid point (everything but the fleet size). */
struct Combo
{
    QueuePolicy policy = QueuePolicy::Fifo;
    BatcherAxisPoint batcher;
    bool cacheOn = false;
    std::uint32_t runAheadDepth = 1;
};

/** Axis order is the tie-break order: policies outermost, then
 *  batcher points, then cache options, then run-ahead depths — "first
 *  combo wins a fleet-size tie" means first in this enumeration. */
std::vector<Combo>
enumerateCombos(const PlanSearchSpace &space)
{
    std::vector<Combo> combos;
    combos.reserve(space.comboCount());
    for (const QueuePolicy policy : space.policies)
        for (const BatcherAxisPoint &batcher : space.batchers)
            for (const bool cacheOn : space.mapCacheOptions)
                for (const std::uint32_t depth : space.runAheadDepths)
                    combos.push_back(
                        Combo{policy, batcher, cacheOn, depth});
    return combos;
}

/** A combo's axis values as a (metrics-free) PlanProbe, so the combo
 *  and probe config paths share one field mapping. */
PlanProbe
probeOf(const Combo &combo)
{
    PlanProbe p;
    p.policy = combo.policy;
    p.batching = combo.batcher.enabled;
    p.targetK = combo.batcher.targetK;
    p.maxWaitCycles = combo.batcher.maxWaitCycles;
    p.costAware = combo.batcher.costAware;
    p.mapCacheOn = combo.cacheOn;
    p.runAheadDepth = combo.runAheadDepth;
    return p;
}

/** Unit objective cost of one instance of kind `kind_index` (1.0 on
 *  the legacy homogeneous axis, where cost == instance count). */
double
unitCost(const PlanSearchSpace &space, std::size_t kind_index)
{
    if (space.kinds.empty())
        return 1.0;
    const InstanceKindSpec &kind = space.kinds[kind_index];
    switch (space.objective) {
      case PlanObjective::Instances:
        return 1.0;
      case PlanObjective::Watts:
        return kind.watts > 0.0 ? kind.watts : nominalWatts(kind.config);
      case PlanObjective::Price:
        return kind.price;
    }
    return 0.0;
}

/**
 * One axis-parallel ray of the composition lattice: the counts of
 * kinds 1..K-1 are fixed (`rest`), the kind-0 count runs over the
 * inclusive [lo, hi] axis. The legacy homogeneous space is the single
 * ray with empty `rest` and [minFleetSize, maxFleetSize]; cost along a
 * ray is restCost + n * unit0, strictly increasing in n because every
 * active unit cost is validated positive.
 */
struct LatticeRay
{
    std::vector<std::size_t> rest;
    std::size_t lo = 1;
    std::size_t hi = 1;
    double restCost = 0.0;
};

/** Enumerate the lattice's rays in deterministic lex order over the
 *  fixed kinds (kind 1 most significant). Rays the cost budget rules
 *  out entirely — or whose only composition would field zero
 *  instances — are dropped here, so compositionCount(), the searches
 *  and the exhaustive oracle all agree on the valid lattice. */
std::vector<LatticeRay>
enumerateRays(const PlanSearchSpace &space)
{
    std::vector<LatticeRay> rays;
    if (space.kinds.empty()) {
        if (space.maxFleetSize < space.minFleetSize)
            return rays;
        LatticeRay ray;
        ray.lo = space.minFleetSize;
        ray.hi = space.maxFleetSize;
        rays.push_back(ray);
        return rays;
    }
    const double unit0 = unitCost(space, 0);
    const std::size_t fixedKinds = space.kinds.size() - 1;
    std::vector<std::size_t> rest;
    rest.reserve(fixedKinds);
    for (std::size_t k = 1; k < space.kinds.size(); ++k)
        rest.push_back(space.kinds[k].minCount);
    while (true) {
        LatticeRay ray;
        ray.rest = rest;
        std::size_t restSum = 0;
        for (std::size_t k = 0; k < fixedKinds; ++k) {
            restSum += rest[k];
            ray.restCost +=
                static_cast<double>(rest[k]) * unitCost(space, k + 1);
        }
        ray.lo = space.kinds[0].minCount;
        ray.hi = space.kinds[0].maxCount;
        // A composition must field >= 1 instance: on the all-zero ray
        // the kind-0 axis starts at 1.
        if (restSum == 0 && ray.lo == 0)
            ray.lo = 1;
        if (space.maxCostBudget > 0.0) {
            const double slack = space.maxCostBudget - ray.restCost;
            const double maxN = std::floor(slack / unit0 + 1e-9);
            if (maxN < static_cast<double>(ray.lo)) {
                ray.hi = 0;
                ray.lo = 1; // empty: skip below
            } else {
                ray.hi = std::min(
                    ray.hi, static_cast<std::size_t>(maxN));
            }
        }
        if (ray.lo <= ray.hi)
            rays.push_back(std::move(ray));
        // Odometer increment, last fixed kind fastest.
        std::size_t k = fixedKinds;
        while (k > 0) {
            --k;
            if (rest[k] < space.kinds[k + 1].maxCount) {
                ++rest[k];
                for (std::size_t j = k + 1; j < fixedKinds; ++j)
                    rest[j] = space.kinds[j + 1].minCount;
                break;
            }
            if (k == 0)
                return rays;
        }
        if (fixedKinds == 0)
            return rays;
    }
}

void
validate(const SloSpec &, const PlanSearchSpace &space)
{
    if (space.policies.empty() || space.batchers.empty() ||
        space.mapCacheOptions.empty() || space.runAheadDepths.empty())
        fatal("plan search space axes must be non-empty");
    for (const std::uint32_t depth : space.runAheadDepths)
        if (depth < 1)
            fatal("plan run-ahead depths must be >= 1");
    if (space.kinds.empty()) {
        if (space.minFleetSize == 0)
            fatal("plan search space needs minFleetSize >= 1");
        if (space.maxFleetSize < space.minFleetSize)
            fatal("plan search space needs maxFleetSize >= minFleetSize");
        if (space.objective != PlanObjective::Instances)
            fatal("watts/price objectives need a non-empty kind list");
        if (space.maxCostBudget > 0.0)
            fatal("a cost budget needs a non-empty kind list");
        return;
    }
    std::size_t sumMax = 0;
    for (std::size_t k = 0; k < space.kinds.size(); ++k) {
        const InstanceKindSpec &kind = space.kinds[k];
        if (kind.maxCount < kind.minCount)
            fatal("plan kind needs maxCount >= minCount");
        sumMax += kind.maxCount;
        if (!(unitCost(space, k) > 0.0))
            fatal("plan kinds need a positive unit cost under the "
                  "active objective");
    }
    if (sumMax == 0)
        fatal("plan kind lattice cannot field any instance");
}

} // namespace

std::uint64_t
PlanSearchSpace::compositionCount() const
{
    std::uint64_t count = 0;
    for (const LatticeRay &ray : enumerateRays(*this))
        count += static_cast<std::uint64_t>(ray.hi - ray.lo + 1);
    return count;
}

// ---------------------------------------------------------------- //
//                         Search context                            //
// ---------------------------------------------------------------- //

/** Per-plan() state shared read-only by every (combo, ray) search: the
 *  categorical combos, the lattice rays and the trace.
 *
 *  Parallelism (PlannerConfig::threads > 1) runs whole (combo, ray)
 *  searches concurrently on a one-queue ProbeExecutor; the probes
 *  inside one search stay serial, so a plan with one combo and one ray
 *  runs serially at any thread count. Each search owns its probe log
 *  and memo, and its probes depend on nothing outside its (combo, ray),
 *  so joining the logs in (combo, ray) order reproduces the serial log
 *  exactly: the PlanReport is byte-identical at every thread count and
 *  every simulation is a logged probe. */
struct CapacityPlanner::Search
{
    const CapacityPlanner &planner;
    const SloSpec &slo;
    const PlanSearchSpace &space;
    std::vector<Combo> combos;
    std::vector<LatticeRay> rays;
    /** Kind-0 unit cost (1.0 on the homogeneous axis). */
    double unit0 = 1.0;
    std::vector<Request> trace;

    Search(const CapacityPlanner &planner_, std::vector<Request> trace_,
           const SloSpec &slo_, const PlanSearchSpace &space_)
        : planner(planner_), slo(slo_), space(space_),
          combos(enumerateCombos(space_)), rays(enumerateRays(space_)),
          unit0(unitCost(space_, 0)), trace(std::move(trace_))
    {
    }

    std::size_t
    fleetSizeOf(const LatticeRay &ray, std::size_t n) const
    {
        std::size_t total = n;
        for (const std::size_t count : ray.rest)
            total += count;
        return total;
    }

    double
    costOf(const LatticeRay &ray, std::size_t n) const
    {
        return ray.restCost + static_cast<double>(n) * unit0;
    }

    /** The search along one (combo, ray): its probe log, in probe
     *  order, and the kind-0 count -> log index memo that makes
     *  re-evaluations free (and keeps probesSpent an honest count of
     *  simulations). */
    struct RaySearch
    {
        const Search &ctx;
        std::size_t comboIndex;
        std::size_t rayIndex;
        std::vector<PlanProbe> log;
        std::map<std::size_t, std::size_t> memo;
        /** Cheapest passing kind-0 count, if any point passed. */
        std::optional<std::size_t> cheapest;
        /** False once a smaller count passed where a larger failed. */
        bool monotone = true;

        RaySearch(const Search &ctx_, std::size_t combo_index,
                  std::size_t ray_index)
            : ctx(ctx_), comboIndex(combo_index), rayIndex(ray_index)
        {
        }

        const LatticeRay &ray() const { return ctx.rays[rayIndex]; }

        /** The composition (count vector) of lattice point n; empty on
         *  the legacy homogeneous axis. */
        std::vector<std::size_t>
        compositionOf(std::size_t n) const
        {
            if (ctx.space.kinds.empty())
                return {};
            std::vector<std::size_t> c;
            c.reserve(ctx.space.kinds.size());
            c.push_back(n);
            c.insert(c.end(), ray().rest.begin(), ray().rest.end());
            return c;
        }

        /** Simulate lattice point n (once) and log it. Safe to run
         *  beside other searches: planner.probe is const over shared
         *  immutable state and the service model memo is internally
         *  synchronized (scheduler.hpp). */
        const PlanProbe &
        probeAt(std::size_t n)
        {
            const auto it = memo.find(n);
            if (it != memo.end())
                return log[it->second];

            PlanProbe p = probeOf(ctx.combos[comboIndex]);
            p.fleetSize = ctx.fleetSizeOf(ray(), n);
            p.composition = compositionOf(n);
            p.cost = ctx.costOf(ray(), n);
            const SchedulerConfig scfg = schedulerConfigFor(ctx.space, p);
            // kinds-empty plans go through the legacy probe() hook so
            // existing overrides (differential gates, fault injection)
            // keep intercepting every homogeneous probe.
            const ServingReport report =
                ctx.space.kinds.empty()
                    ? ctx.planner.probe(n, scfg, ctx.trace)
                    : ctx.planner.probeComposition(ctx.space, p.composition,
                                                   scfg, ctx.trace);
            p.p99Cycles = report.p99Cycles();
            p.throughputRps = report.throughputRps();
            p.dropRate = report.dropRate();
            p.meetsSlo = meetsSlo(report, ctx.slo);
            memo.emplace(n, log.size());
            log.push_back(std::move(p));
            return log.back();
        }

        /**
         * Monotonicity spot check: probe up to spotProbes not-yet-probed
         * lattice points in [from, to], evenly spaced; true when any
         * passes. Galloping + bisection can only ever observe
         * fails-below-passes (they never probe above a known pass), so
         * a violation is detectable *only* by these extra probes.
         */
        bool
        spotCheckFindsPass(std::size_t from, std::size_t to)
        {
            const std::size_t spotProbes = ctx.planner.cfg.spotProbes;
            if (to < from || spotProbes == 0)
                return false;
            std::vector<std::size_t> unprobed;
            for (std::size_t s = from; s <= to; ++s)
                if (memo.count(s) == 0)
                    unprobed.push_back(s);
            const std::size_t k = std::min(spotProbes, unprobed.size());
            std::vector<std::size_t> picks;
            for (std::size_t i = 0; i < k; ++i)
                picks.push_back(
                    unprobed[(i + 1) * unprobed.size() / (k + 1)]);
            std::sort(picks.begin(), picks.end());
            picks.erase(std::unique(picks.begin(), picks.end()),
                        picks.end());
            bool pass = false;
            for (const std::size_t s : picks)
                pass = probeAt(s).meetsSlo || pass;
            return pass;
        }

        /** The exact fallback: first (cheapest) passing point over the
         *  whole ray (memoized probes are free), whatever the pass/fail
         *  shape. */
        std::optional<std::size_t>
        linearScan()
        {
            for (std::size_t s = ray().lo; s <= ray().hi; ++s)
                if (probeAt(s).meetsSlo)
                    return s;
            return std::nullopt;
        }

        /**
         * Cheapest passing lattice point: gallop up from the ray's
         * floor doubling until a point passes (or the ceiling fails),
         * bisect the (last fail, first pass] bracket, then spot-verify
         * monotonicity below the candidate — and, when the gallop found
         * no pass at all, over the whole ray before concluding
         * infeasibility. A passing spot probe demotes the ray to a
         * linear scan and clears `monotone`.
         */
        std::optional<std::size_t>
        gallop()
        {
            const std::size_t floorN = ray().lo;
            const std::size_t ceilN = ray().hi;

            std::size_t n = floorN;
            std::optional<std::size_t> firstPass;
            std::size_t lastFail = 0;
            bool haveFail = false;
            while (true) {
                if (probeAt(n).meetsSlo) {
                    firstPass = n;
                    break;
                }
                haveFail = true;
                lastFail = n;
                if (n >= ceilN)
                    break;
                n = n == 0 ? 1 : std::min(ceilN, n * 2);
            }
            // Under the monotone assumption, the ceiling failing means
            // every point fails — but that conclusion deserves the same
            // verification a candidate gets: a non-monotone ray can pass
            // only at points the gallop skipped.
            if (!firstPass) {
                if (spotCheckFindsPass(floorN, ceilN)) {
                    monotone = false;
                    return linearScan();
                }
                return std::nullopt;
            }

            std::size_t candidate = *firstPass;
            if (haveFail) {
                std::size_t lo = lastFail; // fails
                std::size_t hi = candidate; // passes
                while (hi - lo > 1) {
                    const std::size_t mid = lo + (hi - lo) / 2;
                    if (probeAt(mid).meetsSlo)
                        hi = mid;
                    else
                        lo = mid;
                }
                candidate = hi;
            }

            // Verify the candidate: a pass below it means the monotone
            // shortcut was unsound for this ray.
            if (candidate > floorN &&
                spotCheckFindsPass(floorN, candidate - 1)) {
                monotone = false;
                // A pass exists, so the scan is non-empty.
                return linearScan();
            }
            return candidate;
        }

        /** Probe every point; the exhaustive grid judges (per-ray)
         *  monotonicity exactly: a fail above any pass is a
         *  violation. */
        std::optional<std::size_t>
        scanAll()
        {
            std::optional<std::size_t> first;
            for (std::size_t s = ray().lo; s <= ray().hi; ++s) {
                const bool pass = probeAt(s).meetsSlo;
                if (pass && !first)
                    first = s;
                if (first && !pass)
                    monotone = false;
            }
            return first;
        }
    };

    /** Run every (combo, ray) search — gallop + bisect + verify, or
     *  every point when `exhaustive` — then assemble the report: the
     *  logs joined in (combo, ray) order; smallest objective cost wins,
     *  ties broken by total instance count and then enumeration order
     *  (combo-major, then ray); margins against the active
     *  constraints. */
    PlanReport
    run(bool exhaustive) const
    {
        std::vector<std::function<RaySearch()>> tasks;
        for (std::size_t ci = 0; ci < combos.size(); ++ci)
            for (std::size_t ri = 0; ri < rays.size(); ++ri)
                tasks.push_back([this, ci, ri, exhaustive] {
                    RaySearch s(*this, ci, ri);
                    s.cheapest = exhaustive ? s.scanAll() : s.gallop();
                    return s;
                });
        ProbeExecutor executor(std::min(
            ProbeExecutor::resolveThreads(planner.cfg.threads),
            tasks.size()));
        const std::vector<RaySearch> searches =
            executor.map(std::move(tasks));

        PlanReport report;
        report.slo = slo;
        report.objective = space.objective;
        report.costBudget = space.maxCostBudget;
        report.exhaustiveProbes = space.gridSize();

        const RaySearch *best = nullptr;
        double bestCost = 0.0;
        std::size_t bestFleet = 0;
        for (const RaySearch &s : searches) {
            report.monotoneFleetAxis = report.monotoneFleetAxis && s.monotone;
            report.probes.insert(report.probes.end(), s.log.begin(),
                                 s.log.end());
            if (!s.cheapest)
                continue;
            const double cost = costOf(s.ray(), *s.cheapest);
            const std::size_t fleet = fleetSizeOf(s.ray(), *s.cheapest);
            if (!best || cost < bestCost ||
                (cost == bestCost && fleet < bestFleet)) {
                best = &s;
                bestCost = cost;
                bestFleet = fleet;
            }
        }
        report.probesSpent = report.probes.size();
        if (best) {
            report.feasible = true;
            report.chosen = best->log[best->memo.at(*best->cheapest)];
            if (slo.maxP99Cycles > 0)
                report.p99MarginCycles =
                    static_cast<double>(slo.maxP99Cycles) -
                    report.chosen.p99Cycles;
            if (slo.minThroughputRps > 0.0)
                report.throughputMarginRps =
                    report.chosen.throughputRps - slo.minThroughputRps;
        }
        return report;
    }
};

// ---------------------------------------------------------------- //
//                         CapacityPlanner                           //
// ---------------------------------------------------------------- //

CapacityPlanner::CapacityPlanner(AcceleratorConfig instance_,
                                 const ServiceModel &model_,
                                 std::vector<double> bucket_scales,
                                 PlannerConfig config)
    : instance(std::move(instance_)), model(model_),
      bucketScales(std::move(bucket_scales)), cfg(config)
{
}

ServingReport
CapacityPlanner::probe(std::size_t fleet_size,
                       const SchedulerConfig &scfg,
                       const std::vector<Request> &trace) const
{
    simAssert(fleet_size > 0, "probe needs a non-empty fleet");
    const std::vector<AcceleratorConfig> fleet(fleet_size, instance);
    FleetScheduler sched(fleet, model, bucketScales, scfg);
    return sched.run(trace);
}

ServingReport
CapacityPlanner::probeComposition(
    const PlanSearchSpace &space,
    const std::vector<std::size_t> &composition,
    const SchedulerConfig &scfg, const std::vector<Request> &trace) const
{
    const std::vector<AcceleratorConfig> fleet =
        fleetFor(space, composition);
    simAssert(!fleet.empty(), "probeComposition needs a non-empty fleet");
    FleetScheduler sched(fleet, model, bucketScales, scfg);
    return sched.run(trace);
}

PlanReport
CapacityPlanner::plan(const WorkloadSpec &workload, const SloSpec &slo,
                      const PlanSearchSpace &space) const
{
    validate(slo, space);
    return Search(*this, WorkloadGenerator(workload).generate(), slo, space)
        .run(false);
}

PlanReport
CapacityPlanner::plan(const TrafficProgram &program, const SloSpec &slo,
                      const PlanSearchSpace &space) const
{
    validate(slo, space);
    return Search(*this, materialize(program), slo, space).run(false);
}

PlanReport
CapacityPlanner::planExhaustive(const WorkloadSpec &workload,
                                const SloSpec &slo,
                                const PlanSearchSpace &space) const
{
    validate(slo, space);
    return Search(*this, WorkloadGenerator(workload).generate(), slo, space)
        .run(true);
}

// ---------------------------------------------------------------- //
//                         JSON surface                              //
// ---------------------------------------------------------------- //

namespace {

void
writeProbeObject(JsonWriter &w, const PlanProbe &p)
{
    w.beginObject();
    w.field("fleet_size", static_cast<std::uint64_t>(p.fleetSize));
    // Lattice probes carry their count vector; homogeneous probes
    // omit it (fleet_size is the whole story), keeping legacy plan
    // output shaped as before modulo the cost field.
    if (!p.composition.empty()) {
        w.key("composition").beginArray();
        for (const std::size_t count : p.composition)
            w.value(static_cast<std::uint64_t>(count));
        w.endArray();
    }
    w.field("cost", p.cost);
    w.field("policy", toString(p.policy));
    w.field("batching", p.batching);
    w.field("target_k", p.targetK);
    w.field("max_wait_cycles", p.maxWaitCycles);
    // Conditional keys: legacy probes (blind timer, blocking handoff)
    // serialize exactly as before these axes existed, so archived plan
    // JSON and the golden tests diff cleanly.
    if (p.costAware)
        w.field("cost_aware", p.costAware);
    w.field("map_cache", p.mapCacheOn);
    if (p.runAheadDepth != 1)
        w.field("run_ahead_depth", p.runAheadDepth);
    w.field("p99_cycles", p.p99Cycles);
    w.field("throughput_rps", p.throughputRps);
    w.field("drop_rate", p.dropRate);
    w.field("meets_slo", p.meetsSlo);
    w.endObject();
}

} // namespace

void
writePlanObject(JsonWriter &w, const PlanReport &report)
{
    w.beginObject();
    w.field("planner", "capacity");
    w.field("objective", toString(report.objective));
    w.field("cost_budget", report.costBudget);
    w.field("slo_max_p99_cycles", report.slo.maxP99Cycles);
    w.field("slo_min_throughput_rps", report.slo.minThroughputRps);
    w.field("feasible", report.feasible);
    w.field("monotone_fleet_axis", report.monotoneFleetAxis);
    w.field("probes_spent", report.probesSpent);
    w.field("exhaustive_probes", report.exhaustiveProbes);
    w.field("p99_margin_cycles", report.p99MarginCycles);
    w.field("throughput_margin_rps", report.throughputMarginRps);
    w.key("chosen");
    writeProbeObject(w, report.chosen);
    w.key("probes").beginArray();
    for (const PlanProbe &p : report.probes)
        writeProbeObject(w, p);
    w.endArray();
    w.endObject();
}

void
writePlanJson(std::ostream &os, const PlanReport &report)
{
    JsonWriter w(os);
    writePlanObject(w, report);
    os << '\n';
}

} // namespace pointacc
