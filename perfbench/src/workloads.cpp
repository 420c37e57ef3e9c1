#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <sstream>

#include "baselines/platform.hpp"
#include "bench_util.hpp"
#include "core/stats.hpp"
#include "nn/zoo.hpp"
#include "runtime/executor.hpp"
#include "runtime/serving_stats.hpp"
#include "sim/accelerator.hpp"

namespace perfbench {

using namespace pointacc;

namespace {

/** Timing-decorator sampling stride (see CallMeter). The scheduler
 *  calls the request source about 7 times per request (mostly peeks)
 *  and the service model 1-6 times, each call taking tens to hundreds
 *  of ns: timing every call would double the traced run. */
constexpr std::uint32_t kTimingStride = 16;

/** splitmix64: decorrelates consecutive benchmark seeds. */
std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
seconds(std::uint64_t start_ns, std::uint64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) / 1e9;
}

// ------------------------------------------------------------------ //
// Serving helpers                                                    //
// ------------------------------------------------------------------ //

bool
conserved(const ServingReport &r)
{
    return r.generated == r.admitted + r.dropped &&
           r.admitted == r.completed + r.failed + r.leftoverQueued &&
           r.leftoverQueued == 0;
}

Values
servingSim(const ServingReport &r)
{
    return {
        {"sim_p99_ms", r.p99Ms()},
        {"sim_goodput_rps", r.goodputRps()},
        {"sim_served_ratio", static_cast<double>(r.completed) /
                                 static_cast<double>(r.generated)},
    };
}

/** Modelled per-layer counts, read straight off the report. */
void
addServingCounts(Values &v, const ServingReport &r)
{
    v["queue.admitted"] = static_cast<double>(r.admitted);
    v["queue.dropped"] = static_cast<double>(r.dropped);
    v["queue.wait_ns_mean"] = r.queueWaitCycles.mean();
    v["batcher.batches"] = static_cast<double>(r.batchSize.count());
    v["batcher.mean_size"] = r.batchSize.mean();
    v["batcher.holds"] = static_cast<double>(r.batchHolds);
    v["batcher.cost_aware_holds"] = static_cast<double>(r.costHolds);
    v["map_cache.hits"] = static_cast<double>(r.mapCache.hits);
    v["map_cache.misses"] = static_cast<double>(r.mapCache.misses);
    v["map_cache.evictions"] = static_cast<double>(r.mapCache.evictions);
    v["map_cache.hit_ratio"] = r.mapCache.hitRate();
    double mapBusy = 0.0;
    double backendBusy = 0.0;
    for (const auto &acc : r.accelerators) {
        mapBusy += static_cast<double>(acc.mapBusyCycles);
        backendBusy += static_cast<double>(acc.backendBusyCycles);
    }
    const double span = static_cast<double>(r.horizonCycles) *
                        static_cast<double>(r.accelerators.size());
    v["fleet.map_busy_ratio"] = span > 0.0 ? mapBusy / span : 0.0;
    v["fleet.backend_busy_ratio"] = span > 0.0 ? backendBusy / span : 0.0;
    v["run_ahead.peak_staged"] = static_cast<double>(r.runAheadPeakStaged);
    v["scheduler.loop_events"] = static_cast<double>(r.loopEvents);
    v["serving_stats.samples_retained"] = static_cast<double>(
        r.latencyCycles.count() + r.queueWaitCycles.count() +
        r.batchSize.count() + r.completionCycles.size());
}

/** Host-time split of traced scheduler runs: workload + service_model
 *  + scheduler.self == scheduler.run_host_ns exactly. */
struct RunSplit
{
    std::uint64_t runNs = 0;
    std::uint64_t workloadNs = 0;
    std::uint64_t modelNs = 0;
    std::uint64_t takes = 0;
    std::uint64_t modelCalls = 0;
    std::uint64_t peakBuffered = 0;

    void
    add(std::uint64_t run_ns, const TimedRequestSource &src,
        const TimedServiceModel &model, const WorkloadStream &stream)
    {
        runNs += run_ns;
        workloadNs += src.meter().estimatedNs();
        modelNs += model.meter().estimatedNs();
        takes += src.takes();
        modelCalls += model.meter().calls;
        peakBuffered = std::max<std::uint64_t>(peakBuffered,
                                               stream.peakBuffered());
    }

    void
    merge(const RunSplit &other)
    {
        runNs += other.runNs;
        workloadNs += other.workloadNs;
        modelNs += other.modelNs;
        takes += other.takes;
        modelCalls += other.modelCalls;
        peakBuffered = std::max(peakBuffered, other.peakBuffered);
    }

    void
    report(Values &v, const ServingReport &r) const
    {
        const auto self = static_cast<double>(runNs) -
                          static_cast<double>(workloadNs) -
                          static_cast<double>(modelNs);
        v["scheduler.run_host_ns"] = static_cast<double>(runNs);
        v["workload.host_ns"] = static_cast<double>(workloadNs);
        v["workload.takes"] = static_cast<double>(takes);
        v["workload.ns_per_take"] =
            takes ? static_cast<double>(workloadNs) / takes : 0.0;
        v["workload.peak_buffered"] = static_cast<double>(peakBuffered);
        v["service_model.host_ns"] = static_cast<double>(modelNs);
        v["service_model.calls"] = static_cast<double>(modelCalls);
        v["service_model.calls_per_request"] =
            static_cast<double>(modelCalls) /
            static_cast<double>(r.generated);
        v["scheduler.self_host_ns"] = self;
        v["scheduler.host_ns_per_event"] =
            r.loopEvents ? self / static_cast<double>(r.loopEvents) : 0.0;
    }
};

// ------------------------------------------------------------------ //
// serve_overload                                                     //
// ------------------------------------------------------------------ //

/** bench_simperf's fixed phase table: map-bound, backend-bound and
 *  mixed shapes at a switch's cost, no accelerator profiling. */
class TableServiceModel : public ServiceModel
{
  public:
    ServiceProfile
    profile(const AcceleratorConfig &, std::uint32_t network_id,
            std::uint32_t bucket) const override
    {
        static constexpr struct
        {
            std::uint64_t map, backend, weight;
        } kTable[3][2] = {
            {{4'000, 16'000, 3'000}, {9'000, 36'000, 6'000}},
            {{12'000, 20'000, 5'000}, {26'000, 44'000, 10'000}},
            {{40'000, 60'000, 9'000}, {90'000, 130'000, 18'000}},
        };
        const auto &row = kTable[network_id % 3][bucket % 2];
        ServiceProfile p;
        p.mappingCycles = row.map;
        p.computeCycles = row.backend;
        p.totalCycles = row.map + row.backend;
        p.weightLoadCycles = row.weight;
        p.mapBytes = 8 * row.map;
        return p;
    }
};

class ServeOverload : public Workload
{
  public:
    static constexpr std::size_t kFleet = 16;
    static constexpr std::uint64_t kRequests = 1'000'000;
    /** Set-up ends with a warm-up run over the first 2% of the trace,
     *  so the measured section starts with warm caches and arenas. */
    static constexpr std::uint64_t kWarmupRequests = kRequests / 50;

    explicit ServeOverload(std::uint64_t seed) : seed(seed) {}

    std::size_t operations() const override { return 1; }

    void
    setup() override
    {
        fleet.assign(kFleet, pointAccConfig());
        cfg = SchedulerConfig{};
        cfg.policy = QueuePolicy::Fifo;
        cfg.occupancy = OccupancyModel::Pipelined;
        cfg.batcher.enabled = true;
        cfg.batcher.maxBatchSize = 8;
        cfg.queueDepth = 256 * kFleet;

        spec = WorkloadSpec{};
        spec.seed = mixSeed(seed);
        spec.mix = {{0, 0, 4.0, 0}, {1, 1, 2.0, 0}, {2, 1, 1.0, 0}};
        const double meanCycles =
            (4.0 * 20'000 + 2.0 * 70'000 + 1.0 * 220'000) / 7.0;
        spec.requestsPerMCycle =
            2.5 * (1e6 / meanCycles) * static_cast<double>(kFleet);
        spec.horizonCycles = static_cast<std::uint64_t>(
            static_cast<double>(kRequests) * 1e6 / spec.requestsPerMCycle);
        spec.arrivals = ArrivalProcess::Poisson;
        validateWorkloadSpec(spec);

        sched.emplace(fleet, model, kBuckets, cfg);
        WorkloadSpec warmup = spec;
        warmup.horizonCycles =
            spec.horizonCycles / (kRequests / kWarmupRequests);
        WorkloadStream stream(warmup);
        sched->run(stream);
    }

    Repetition
    run(SpanLog *spans) override
    {
        Repetition rep;
        std::ostringstream json;
        ServingReport report;
        if (spans == nullptr) {
            const std::uint64_t t0 = nowNs();
            WorkloadStream stream(spec);
            report = sched->run(stream);
            writeServingJson(json, report);
            rep.hostSeconds = seconds(t0, nowNs());
        } else {
            WorkloadStream stream(spec);
            TimedRequestSource source(stream, kTimingStride);
            TimedServiceModel timedModel(model, kTimingStride);
            const FleetScheduler traced(fleet, timedModel, kBuckets, cfg);
            const std::uint64_t t0 = nowNs();
            const std::int64_t op = spans->open("op", t0);
            report = traced.run(source);
            const std::uint64_t t1 = nowNs();
            writeServingJson(json, report);
            const std::uint64_t t2 = nowNs();
            spans->add("scheduler.run", t0, t1, op);
            spans->add("serving_stats.report", t1, t2, op);
            spans->finish(op, t2);
            rep.hostSeconds = seconds(t0, t2);

            RunSplit split;
            split.add(t1 - t0, source, timedModel, stream);
            split.report(rep.layers, report);
            rep.layers["serving_stats.report_host_ns"] =
                static_cast<double>(t2 - t1);
        }
        rep.requests = static_cast<double>(report.generated);
        rep.inferences = static_cast<double>(report.completed);
        rep.digests = {fnv1a(json.str())};
        rep.identitiesHold = {conserved(report)};
        rep.sim = servingSim(report);
        addServingCounts(rep.layers, report);
        return rep;
    }

  private:
    inline static const std::vector<double> kBuckets = {1.0, 2.0};

    std::uint64_t seed;
    TableServiceModel model;
    std::vector<AcceleratorConfig> fleet;
    SchedulerConfig cfg;
    WorkloadSpec spec;
    std::optional<FleetScheduler> sched;
};

// ------------------------------------------------------------------ //
// serve_stream                                                       //
// ------------------------------------------------------------------ //

/** One shard's result, returned from its executor task. */
struct ShardOut
{
    ServingReport report;
    /** Host ns of the whole task, timed inside its own lambda. */
    std::uint64_t taskNs = 0;
    /** Traced shards only. */
    RunSplit split;
};

class ServeStream : public Workload
{
  public:
    static constexpr std::size_t kShards = 16;
    static constexpr std::size_t kPerClock = 4; ///< instances per clock
    static constexpr double kFastGHz = 1.25;
    static constexpr std::uint64_t kRequests = 2'000'000;
    static constexpr double kLoad = 0.75;
    /** Pool workers; the caller helps in Future::get(), so 4 threads
     *  run. Fixed here, never taken from the machine. */
    static constexpr std::size_t kWorkers = 3;

    explicit ServeStream(std::uint64_t seed) : seed(seed) {}

    std::size_t operations() const override { return kShards + 1; }

    void
    setup() override
    {
        ServingCatalog catalog;
        catalog.networks = {pointNet(), pointNetPPClass(),
                            minkowskiUNetIndoor()};
        catalog.bucketScales = {0.05, 0.1};
        model = std::make_unique<SimServiceModel>(catalog);

        const AcceleratorConfig base = pointAccConfig();
        AcceleratorConfig fast = base;
        fast.name += "@1.25GHz";
        fast.freqGHz = kFastGHz;
        fleet.assign(kPerClock, base);
        fleet.insert(fleet.end(), kPerClock, fast);

        // Pre-warm every (config, network, bucket) profile so lazy
        // profiling never lands in the measured section.
        for (const AcceleratorConfig &c : {base, fast})
            for (std::uint32_t n = 0; n < catalog.networks.size(); ++n)
                for (std::uint32_t b = 0; b < catalog.bucketScales.size();
                     ++b)
                    model->profile(c, n, b);

        const auto cycles = [&](std::uint32_t n, std::uint32_t b) {
            return model->profile(base, n, b).totalCycles;
        };
        // Two classes carry deadlines (EDF orders them first); each
        // class is a stream whose frames repeat with probability
        // 0.5-0.7, which is what the map cache serves.
        const std::vector<RequestClass> mix = {
            {0, 0, 4.0, 8 * cycles(0, 0), 0, 0.7},
            {1, 1, 2.0, 8 * cycles(1, 1), 1, 0.6},
            {2, 1, 1.0, 0, 2, 0.5},
        };
        double weight = 0.0;
        double meanCycles = 0.0;
        for (const auto &cls : mix) {
            weight += cls.weight;
            meanCycles += cls.weight * static_cast<double>(cycles(
                                           cls.networkId, cls.sizeBucket));
        }
        meanCycles /= weight;
        const double capacityPerMCycle = static_cast<double>(kPerClock) *
                                         (1.0 + kFastGHz) * 1e6 /
                                         meanCycles;

        specs.clear();
        for (std::size_t shard = 0; shard < kShards; ++shard) {
            WorkloadSpec spec;
            spec.seed = mixSeed(mixSeed(seed) + shard);
            spec.mix = mix;
            spec.arrivals = ArrivalProcess::Poisson;
            spec.requestsPerMCycle = kLoad * capacityPerMCycle;
            spec.horizonCycles = static_cast<std::uint64_t>(
                static_cast<double>(kRequests / kShards) * 1e6 /
                spec.requestsPerMCycle);
            validateWorkloadSpec(spec);
            specs.push_back(spec);
        }

        cfg = SchedulerConfig{};
        cfg.policy = QueuePolicy::Edf;
        cfg.occupancy = OccupancyModel::Pipelined;
        cfg.batcher.enabled = true;
        cfg.batcher.maxBatchSize = 8;
        cfg.batcher.targetK = 4;
        cfg.batcher.costAware = true;
        cfg.batcher.maxWaitCycles = 2 * cycles(1, 0);
        cfg.runAheadDepth = 2;
        cfg.mapCache.enabled = true;
        cfg.mapCache.capacityEntries = 1024;
        cfg.mapCache.eviction = MapCacheEviction::Lru;
        cfg.mapCache.hitReadCycles = 2'000;
        cfg.queueDepth = 256 * fleet.size();

        pool.reset();
        pool = std::make_unique<ProbeExecutor>(kWorkers);
    }

    Repetition
    run(SpanLog *spans) override
    {
        const std::uint64_t t0 = nowNs();
        const std::int64_t op =
            spans ? spans->open("op", t0) : SpanLog::kNoParent;
        std::vector<std::function<ShardOut()>> tasks;
        tasks.reserve(kShards);
        for (std::size_t shard = 0; shard < kShards; ++shard)
            tasks.push_back([this, shard, spans, op] {
                return runShard(shard, spans, op);
            });
        std::vector<ShardOut> outs = pool->map(std::move(tasks));
        const std::uint64_t t1 = nowNs();
        std::vector<ServingReport> reports;
        reports.reserve(outs.size());
        for (auto &out : outs)
            reports.push_back(std::move(out.report));
        const ServingReport merged = mergeShardReports(reports);
        const std::uint64_t t2 = nowNs();
        std::ostringstream json;
        writeServingJson(json, merged);
        const std::uint64_t t3 = nowNs();

        Repetition rep;
        rep.hostSeconds = seconds(t0, t3);
        rep.requests = static_cast<double>(merged.generated);
        rep.inferences = static_cast<double>(merged.completed);
        for (const auto &r : reports) {
            rep.digests.push_back(servingDigest(r));
            rep.identitiesHold.push_back(conserved(r));
        }
        rep.digests.push_back(fnv1a(json.str()));
        rep.identitiesHold.push_back(conserved(merged));
        rep.sim = servingSim(merged);
        addServingCounts(rep.layers, merged);
        if (spans == nullptr)
            return rep;

        spans->add("executor.map", t0, t1, op);
        spans->add("serving_stats.merge", t1, t2, op);
        spans->add("serving_stats.report", t2, t3, op);
        spans->finish(op, t3);

        RunSplit split;
        std::uint64_t taskSum = 0;
        std::uint64_t taskMax = 0;
        for (const auto &out : outs) {
            split.merge(out.split);
            taskSum += out.taskNs;
            taskMax = std::max(taskMax, out.taskNs);
        }
        split.report(rep.layers, merged);
        rep.layers["executor.task_host_ns_sum"] = static_cast<double>(taskSum);
        rep.layers["executor.max_task_host_ns"] = static_cast<double>(taskMax);
        rep.layers["executor.wall_host_ns"] = static_cast<double>(t1 - t0);
        rep.layers["executor.efficiency"] =
            static_cast<double>(taskSum) /
            (static_cast<double>(t1 - t0) *
             static_cast<double>(kWorkers + 1));
        rep.layers["serving_stats.merge_host_ns"] =
            static_cast<double>(t2 - t1);
        rep.layers["serving_stats.report_host_ns"] =
            static_cast<double>(t3 - t2);
        return rep;
    }

  private:
    /** One shard as one executor task, timed inside its own lambda. */
    ShardOut
    runShard(std::size_t shard, SpanLog *spans, std::int64_t op) const
    {
        const std::uint64_t start = nowNs();
        ShardOut out;
        WorkloadStream stream(specs[shard]);
        if (spans == nullptr) {
            const FleetScheduler sched(fleet, *model, kBuckets, cfg);
            out.report = sched.run(stream);
        } else {
            TimedRequestSource source(stream, kTimingStride);
            TimedServiceModel timedModel(*model, kTimingStride);
            const FleetScheduler sched(fleet, timedModel, kBuckets, cfg);
            const std::int64_t task = spans->open(
                "executor.task/shard" + std::to_string(shard), start, op);
            const std::uint64_t r0 = nowNs();
            out.report = sched.run(source);
            const std::uint64_t r1 = nowNs();
            spans->add("scheduler.run", r0, r1, task);
            out.split.add(r1 - r0, source, timedModel, stream);
            spans->finish(task, nowNs());
        }
        out.taskNs = nowNs() - start;
        return out;
    }

    inline static const std::vector<double> kBuckets = {0.05, 0.1};

    std::uint64_t seed;
    std::unique_ptr<SimServiceModel> model;
    std::vector<AcceleratorConfig> fleet;
    std::vector<WorkloadSpec> specs;
    SchedulerConfig cfg;
    std::unique_ptr<ProbeExecutor> pool;
};

// ------------------------------------------------------------------ //
// infer_zoo                                                          //
// ------------------------------------------------------------------ //

/** Digest of one inference: cycles, energy bits and DRAM bytes. */
std::uint64_t
inferenceDigest(const RunResult &r)
{
    const double energy = r.energyMJ();
    std::uint64_t energyBits = 0;
    std::memcpy(&energyBits, &energy, sizeof energyBits);
    std::uint64_t h = fnv1aValue(r.totalCycles);
    h = fnv1aValue(energyBits, h);
    return fnv1aValue(r.dramReadBytes + r.dramWriteBytes, h);
}

class InferZoo : public Workload
{
  public:
    /** Seed 0's first cloud per network is bench_fig13_server's. */
    static constexpr std::uint64_t kCloudSeed = 20211018;
    /** Clouds per network and pass. MinkNet(o)'s simulated latency
     *  moves by up to ~30% from one cloud to the next (14.4-22.2 ms
     *  over 40 clouds); averaging over several keeps the seed-to-seed
     *  spread of the sim_* values and of the host rate small. */
    static constexpr std::uint64_t kCloudsPerNetwork = 4;

    explicit InferZoo(std::uint64_t seed) : seed(seed) {}

    std::size_t operations() const override { return inputs.size(); }

    void
    setup() override
    {
        networks = allBenchmarks();
        inputs.clear();
        for (std::size_t i = 0; i < networks.size(); ++i)
            for (std::uint64_t c = 0; c < kCloudsPerNetwork; ++c)
                inputs.push_back(
                    {i, bench::benchCloud(networks[i],
                                          kCloudSeed +
                                              kCloudsPerNetwork * seed + c)});
        accel.emplace(pointAccConfig());
    }

    Repetition
    run(SpanLog *spans) override
    {
        Repetition rep;
        std::vector<RunResult> results;
        results.reserve(inputs.size());
        if (spans == nullptr) {
            const std::uint64_t t0 = nowNs();
            for (const auto &[net, cloud] : inputs)
                results.push_back(accel->run(networks[net], cloud));
            rep.hostSeconds = seconds(t0, nowNs());
        } else {
            rep.hostSeconds = runTraced(*spans, results, rep.layers);
        }

        double latencySum = 0.0;
        std::vector<double> networkMs(networks.size(), 0.0);
        std::uint64_t mapping = 0, compute = 0, exposed = 0, dram = 0;
        double energy = 0.0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const RunResult &r = results[i];
            rep.digests.push_back(inferenceDigest(r));
            rep.identitiesHold.push_back(
                r.totalCycles > 0 &&
                r.mappingCycles + r.computeCycles + r.exposedDramCycles ==
                    r.totalCycles);
            latencySum += r.latencyMs();
            networkMs[inputs[i].first] +=
                r.latencyMs() / static_cast<double>(kCloudsPerNetwork);
            mapping += r.mappingCycles;
            compute += r.computeCycles;
            exposed += r.exposedDramCycles;
            dram += r.dramReadBytes + r.dramWriteBytes;
            energy += r.energyMJ();
        }
        const double n = static_cast<double>(results.size());
        rep.requests = n;
        rep.inferences = n;
        // One PointAcc running the pass back to back. The tail is the
        // slowest network's mean latency over its clouds: the largest
        // single latency swings with one cloud's kernel-map shape.
        rep.sim = {
            {"sim_p99_ms", *std::max_element(networkMs.begin(),
                                             networkMs.end())},
            {"sim_goodput_rps", n / (latencySum / 1e3)},
            {"sim_served_ratio", 1.0},
        };
        rep.layers["model.mapping_cycles"] = static_cast<double>(mapping);
        rep.layers["model.compute_cycles"] = static_cast<double>(compute);
        rep.layers["model.exposed_dram_cycles"] =
            static_cast<double>(exposed);
        rep.layers["model.dram_bytes"] = static_cast<double>(dram);
        rep.layers["model.energy_mj"] = energy;
        return rep;
    }

  private:
    /**
     * Per input: one executeNetwork pass, Accelerator::run timed as a
     * whole, then a second executeNetwork pass. The passes' visitor
     * gaps are attributed to mapping kinds, and each mapping.* value is
     * the mean of the two passes, so drift and cache warmth fall on
     * both sides of the run alike. Pricing is the run minus that mean,
     * so mapping.* plus sim.pricing adds up to the Accelerator::run
     * total. Returns the Accelerator::run host seconds (the traced
     * rate's base).
     */
    double
    runTraced(SpanLog &spans, std::vector<RunResult> &results, Values &v)
    {
        GapAttributor gaps;
        const LayerVisitor visitor = [&gaps](const LayerWork &w) {
            gaps.visit(w);
        };
        const std::vector<std::string> names = inferMetricNames();
        std::uint64_t runNs = 0;
        const std::int64_t op = spans.open("op", nowNs());
        const auto attribute = [&](std::size_t net, const PointCloud &cloud) {
            gaps.start();
            executeNetwork(networks[net], cloud, visitor);
            gaps.finish();
            const auto &g = gaps.gaps();
            const std::int64_t exec = spans.add(
                "execute_network/" + networks[net].notation,
                g.front().startNs, g.back().endNs, op);
            for (const auto &gap : g)
                spans.add(std::string("gap.") + gapKindName(gap.kind),
                          gap.startNs, gap.endNs, exec);
        };
        for (const auto &[net, cloud] : inputs) {
            attribute(net, cloud);
            const std::uint64_t a0 = nowNs();
            results.push_back(accel->run(networks[net], cloud));
            const std::uint64_t a1 = nowNs();
            spans.add("accelerator.run/" + networks[net].notation, a0, a1,
                      op);
            runNs += a1 - a0;
            v[names[net]] += static_cast<double>(a1 - a0) / 1e6;
            attribute(net, cloud);
        }
        spans.finish(op, nowNs());

        // Two passes per input: every attributed total is halved.
        for (std::size_t k = 0; k < kGapKinds; ++k) {
            const auto kind = static_cast<GapKind>(k);
            const std::string stem =
                std::string("mapping.") + gapKindName(kind);
            v[stem + "_host_ns"] = static_cast<double>(gaps.ns(kind)) / 2;
            if (kind != GapKind::None)
                v[stem + "_ns_per_work"] =
                    gaps.work(kind) ? static_cast<double>(gaps.ns(kind)) /
                                          static_cast<double>(gaps.work(kind))
                                    : 0.0;
        }
        const double executeNs = static_cast<double>(gaps.wallNs()) / 2;
        v["mapping.execute_host_ns"] = executeNs;
        v["sim.run_host_ns"] = static_cast<double>(runNs);
        // Negative when the passes outlast the runs they bracket; the
        // runner marks it as not measured.
        v["sim.pricing_host_ns"] = static_cast<double>(runNs) - executeNs;
        return static_cast<double>(runNs) / 1e9;
    }

    std::uint64_t seed;
    std::vector<Network> networks;
    /** (network index, cloud), network-major. */
    std::vector<std::pair<std::size_t, PointCloud>> inputs;
    std::optional<Accelerator> accel;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(WorkloadKind kind, std::uint64_t seed)
{
    switch (kind) {
      case WorkloadKind::ServeOverload:
        return std::make_unique<ServeOverload>(seed);
      case WorkloadKind::ServeStream:
        return std::make_unique<ServeStream>(seed);
      case WorkloadKind::InferZoo:
        return std::make_unique<InferZoo>(seed);
    }
    return nullptr;
}

std::string
metricStem(const std::string &notation)
{
    std::string stem;
    for (const char c : notation) {
        if (c >= 'A' && c <= 'Z')
            stem += static_cast<char>(c - 'A' + 'a');
        else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                 c == '-' || c == '_')
            stem += c;
        else if (c == '+')
            stem += 'p';
        else if (c == '(')
            stem += '_';
    }
    return stem;
}

std::vector<std::string>
inferMetricNames()
{
    std::vector<std::string> names;
    for (const auto &net : allBenchmarks())
        names.push_back("infer." + metricStem(net.notation) + "_host_ms");
    return names;
}

Fig13Accuracy
fig13Accuracy()
{
    // bench_fig13_server's RTX 2080Ti column, on its fixed clouds.
    const Accelerator accel(pointAccConfig());
    std::vector<double> speedups;
    std::vector<double> savings;
    for (const auto &net : allBenchmarks()) {
        const PointCloud cloud = bench::benchCloud(net);
        const RunResult ours = accel.run(net, cloud);
        const PlatformResult gpu = estimatePlatform(
            rtx2080Ti(), net.notation, summarizeWorkload(net, cloud));
        speedups.push_back(gpu.totalMs() / ours.latencyMs());
        savings.push_back(gpu.energyMJ / ours.energyMJ());
    }
    Fig13Accuracy a;
    a.speedup = geomean(speedups);
    a.energy = geomean(savings);
    a.speedupErr = std::abs(a.speedup - 3.7) / 3.7;
    a.energyErr = std::abs(a.energy - 22.0) / 22.0;
    return a;
}

} // namespace perfbench
