/**
 * @file
 * Simulator-performance benchmark: wall-clock throughput of the
 * discrete-event serving core itself.
 *
 * Every other bench measures what the *simulated* fleet does; this one
 * measures how fast the simulator simulates — the number that decides
 * whether a million-request sweep at fleet 16/32 is routine or
 * unaffordable. The O(log n) core (heap event queue, policy-indexed
 * admission queue, streaming workload generator) replaced the seed
 * loop's linear rescans; this bench keeps both engines honest:
 *
 *  - a fleet x trace-length matrix runs the production engine and
 *    reports simulated-requests-per-second and events-per-second
 *    (service costs come from a fixed synthetic phase table, so the
 *    measurement is pure event-loop work, no accelerator profiling);
 *  - the preserved seed engine (runtime/reference) runs the anchor
 *    row's configuration at a shorter trace (the seed loop's per-event
 *    cost is bounded by queue depth, not trace length, so its rps is
 *    length-independent; running it at 10^6 would only burn minutes
 *    measuring the same number) and both engines' reports on that
 *    shared trace are compared byte-for-byte;
 *  - gates (exit nonzero): the anchor row — 10^6 requests, fleet 16 —
 *    must clear a stored requests-per-second floor, beat the seed
 *    engine by >= 10x, and match it byte-identically on the
 *    cross-check trace.
 *
 * `--threads N` (default 1 = serial, 0 = one per hardware thread)
 * runs the matrix rows and the sharded tier on a one-queue
 * ProbeExecutor. Beyond the matrix, the parallel path adds a *sharded*
 * tier: fleet 256 as 16 disjoint sub-fleets of 16, each serving an
 * independent 1/16 slice of a 10^7-request offered load in its own
 * event loop, merged deterministically in shard order
 * (mergeShardReports). The shard count is fixed — never derived from
 * the thread count — so the merged report is byte-identical whatever
 * --threads says; a small sharded row is re-run serially and
 * byte-compared to prove it. On a 4+-core runner with --threads >= 4
 * the tier must clear its own stored floor (>= 3x the single-thread
 * anchor floor); on smaller machines the floor is reported but not
 * gated, because there is no parallel speedup to measure. At exit the
 * process's peak RSS per request the sharded tier served must stay
 * under a stored ceiling (kRssCeilingBytesPerServed).
 *
 * Results go to BENCH_simperf.json. `--quick` runs the anchor row and
 * one small row (CI's Release-stage configuration); `--smoke` runs a
 * single 10^5-request row with no floor gate (CI's sanitized stage,
 * where wall-clock floors would measure ASan, not the simulator).
 * docs/PERFORMANCE.md explains how to read the output and when to
 * move the floor.
 */

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "bench_util.hpp"
#include "core/json.hpp"
#include "runtime/executor.hpp"
#include "runtime/reference.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serving_stats.hpp"
#include "runtime/workload.hpp"
#include "sim/accel_config.hpp"

using namespace pointacc;

namespace {

/**
 * Conservative absolute floor for the anchor row (10^6 requests,
 * fleet 16, Release). Measured 3.9M-5.5M req/s over six `--quick`
 * runs on a 4-core Xeon container; the floor is a fifth of the
 * slowest, so machine variance never trips it while an accidental
 * return to linear scans (~50-100x slower) always does. Update
 * procedure: docs/PERFORMANCE.md.
 */
constexpr double kFloorRequestsPerSec = 750'000.0;

/** Anchor-row shape: the gated configuration. */
constexpr std::size_t kAnchorFleet = 16;
constexpr std::uint64_t kAnchorRequests = 1'000'000;

/** Requests in the seed-baseline measurement (see file header). */
constexpr std::uint64_t kBaselineRequests = 100'000;

/** Sharded-tier shape: 16 sub-fleets of 16 (fleet 256 total) over a
 *  10^7-request offered load. The shard count is a constant, not a
 *  function of --threads: output must not depend on parallelism. */
constexpr std::size_t kShardCount = 16;
constexpr std::size_t kShardFleet = 16;
constexpr std::uint64_t kShardTierRequests = 10'000'000;

/** Requests in the sharded determinism cross-check row (run twice —
 *  parallel and serial — and byte-compared). */
constexpr std::uint64_t kShardCheckRequests = 100'000;

/**
 * Multi-thread floor: the sharded tier on a 4+-core runner with
 * --threads >= 4 must sustain >= 3x the single-thread anchor floor.
 * Like kFloorRequestsPerSec it is deliberately conservative —
 * variance never trips it, losing the parallelism (or the O(log n)
 * core) does. Gated only when both the flag and the hardware provide
 * >= 4 threads; update procedure: docs/PERFORMANCE.md.
 */
constexpr double kShardFloorRequestsPerSec = 2'250'000.0;

/**
 * Peak-RSS ceiling: the process's ru_maxrss over the requests the
 * sharded tier served. Reports keep one latency and one completion
 * timestamp per served request and exact moments for everything
 * else, which measured about 42 B per served request at `--quick
 * --threads 4`; keeping a queue-wait and a batch-size sample per
 * request, a percentile copy of the latencies and a rebuilt
 * completion stream per shard measured about 71 B. Skipped under
 * --smoke (no sharded tier, and sanitizers inflate RSS).
 */
constexpr double kRssCeilingBytesPerServed = 48.0;

/**
 * Fixed phase table: deterministic costs spanning map-bound,
 * backend-bound and mixed shapes, so the event loop sees realistic
 * phase interleavings without touching the accelerator simulator.
 */
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
            // small bucket          large bucket
            {{4'000, 16'000, 3'000}, {9'000, 36'000, 6'000}},   // net 0
            {{12'000, 20'000, 5'000}, {26'000, 44'000, 10'000}}, // net 1
            {{40'000, 60'000, 9'000}, {90'000, 130'000, 18'000}},// net 2
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

struct Row
{
    std::size_t fleetSize = 0;
    /** Shards the row was split into (0 = unsharded event loop). */
    std::size_t shards = 0;
    std::uint64_t targetRequests = 0;
    std::uint64_t generated = 0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t loopEvents = 0;
    double wallMs = 0.0;
    double requestsPerSec = 0.0;
    double eventsPerSec = 0.0;
};

SchedulerConfig
benchConfig(std::size_t fleet_size)
{
    SchedulerConfig scfg;
    scfg.policy = QueuePolicy::Fifo;
    scfg.occupancy = OccupancyModel::Pipelined;
    scfg.batcher.enabled = true;
    scfg.batcher.maxBatchSize = 8;
    // Constant per-instance backlog (bench_serving runs 256 at fleet
    // 1-4): a fleet-16 admission queue holds 4096 requests. Queue
    // depth is precisely where the seed's O(depth) selection scans
    // made big-fleet sweeps unaffordable.
    scfg.queueDepth = 256 * fleet_size;
    return scfg;
}

WorkloadSpec
benchSpec(std::size_t fleet_size, std::uint64_t target_requests)
{
    // The mix averages ~46k cycles/request; 2.5x per-instance capacity
    // pins the admission queue at its depth limit — the sustained-
    // overload regime where per-pop selection cost is what separates
    // the engines (an idle queue makes even a linear scan cheap) and
    // the regime capacity sweeps at fleet 16/32 actually probe.
    WorkloadSpec spec;
    spec.seed = 20260730;
    spec.mix = {
        {0, 0, 4.0, 0},
        {1, 1, 2.0, 0},
        {2, 1, 1.0, 0},
    };
    const double meanCycles =
        (4.0 * 20'000 + 2.0 * 70'000 + 1.0 * 220'000) / 7.0;
    const double perInstanceCapacity = 1e6 / meanCycles;
    spec.requestsPerMCycle = 2.5 * perInstanceCapacity *
                             static_cast<double>(fleet_size);
    spec.horizonCycles = static_cast<std::uint64_t>(
        static_cast<double>(target_requests) * 1e6 /
        spec.requestsPerMCycle);
    spec.arrivals = ArrivalProcess::Poisson;
    return spec;
}

double
wallMsSince(std::chrono::steady_clock::time_point t0)
{
    const auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double, std::milli>(dt).count();
}

Row
runRow(const TableServiceModel &model, std::size_t fleet_size,
       std::uint64_t target_requests)
{
    const std::vector<AcceleratorConfig> fleet(fleet_size,
                                               pointAccConfig());
    FleetScheduler sched(fleet, model, {1.0, 2.0}, benchConfig(fleet_size));
    WorkloadGenerator gen(benchSpec(fleet_size, target_requests));

    const auto t0 = std::chrono::steady_clock::now();
    WorkloadStream stream = gen.stream();
    const ServingReport report = sched.run(stream);
    const double ms = wallMsSince(t0);

    Row row;
    row.fleetSize = fleet_size;
    row.targetRequests = target_requests;
    row.generated = report.generated;
    row.completed = report.completed;
    row.dropped = report.dropped;
    row.loopEvents = report.loopEvents;
    row.wallMs = ms;
    row.requestsPerSec =
        static_cast<double>(report.generated) / (ms / 1e3);
    row.eventsPerSec =
        static_cast<double>(report.loopEvents) / (ms / 1e3);
    return row;
}

/**
 * The sharded tier: split `total_requests` across kShardCount
 * independent sub-fleet event loops (each fleet kShardFleet, its own
 * workload slice at 1/kShardCount of the offered rate, seed mixed
 * with the shard index), run them as executor tasks, and merge in
 * shard order. The merged report — returned through `merged_out` for
 * the determinism cross-check — depends only on the shard constants,
 * never on how many threads executed them.
 */
Row
runShardedRow(const TableServiceModel &model, ProbeExecutor &pool,
              std::uint64_t total_requests, ServingReport *merged_out)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::function<ServingReport()>> tasks;
    tasks.reserve(kShardCount);
    for (std::size_t shard = 0; shard < kShardCount; ++shard) {
        tasks.push_back([&model, shard, total_requests] {
            WorkloadSpec spec =
                benchSpec(kShardFleet, total_requests / kShardCount);
            spec.seed += 7919 * static_cast<decltype(spec.seed)>(shard);
            const std::vector<AcceleratorConfig> fleet(kShardFleet,
                                                       pointAccConfig());
            FleetScheduler sched(fleet, model, {1.0, 2.0},
                                 benchConfig(kShardFleet));
            WorkloadGenerator gen(spec);
            WorkloadStream stream = gen.stream();
            return sched.run(stream);
        });
    }
    const std::vector<ServingReport> shards = pool.map(std::move(tasks));
    const ServingReport merged = mergeShardReports(shards);
    const double ms = wallMsSince(t0);

    Row row;
    row.fleetSize = kShardCount * kShardFleet;
    row.shards = kShardCount;
    row.targetRequests = total_requests;
    row.generated = merged.generated;
    row.completed = merged.completed;
    row.dropped = merged.dropped;
    row.loopEvents = merged.loopEvents;
    row.wallMs = ms;
    row.requestsPerSec = static_cast<double>(merged.generated) / (ms / 1e3);
    row.eventsPerSec = static_cast<double>(merged.loopEvents) / (ms / 1e3);
    if (merged_out != nullptr)
        *merged_out = merged;
    return row;
}

void
printRow(const Row &r)
{
    std::printf("%5zu %10llu %10llu %8.1f%% %12.0f %12.0f %9.1f\n",
                r.fleetSize,
                static_cast<unsigned long long>(r.generated),
                static_cast<unsigned long long>(r.loopEvents),
                100.0 * static_cast<double>(r.dropped) /
                    static_cast<double>(r.generated),
                r.requestsPerSec, r.eventsPerSec, r.wallMs);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath = "BENCH_simperf.json";
    bool quick = false;
    bool smoke = false;
    std::size_t threadsArg = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
        else if (std::strcmp(argv[i], "--no-json") == 0)
            jsonPath.clear();
        else if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            // strtoul alone would read "x" as 0: one worker per core.
            const char *text = argv[++i];
            char *end = nullptr;
            threadsArg =
                static_cast<std::size_t>(std::strtoul(text, &end, 10));
            if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
                *end != '\0') {
                std::fprintf(stderr,
                             "error: --threads takes a whole number, not "
                             "'%s'\n",
                             text);
                return 2;
            }
        } else {
            std::fprintf(stderr,
                         "error: unknown argument '%s' (expected "
                         "--json <path>, --no-json, --quick, --smoke, "
                         "--threads <n>)\n",
                         argv[i]);
            return 2;
        }
    }

    bench::banner("Simulator performance: the discrete-event core itself",
                  "runtime/ subsystem (beyond the paper)");

    const TableServiceModel model;
    const std::size_t poolThreads =
        ProbeExecutor::resolveThreads(threadsArg);
    ProbeExecutor pool(poolThreads);
    std::printf("threads: %zu (%s)\n", poolThreads,
                poolThreads == 0 ? "serial, inline"
                                 : "one-queue pool");

    std::vector<std::pair<std::size_t, std::uint64_t>> matrix;
    if (smoke) {
        matrix = {{4, 100'000}};
    } else if (quick) {
        matrix = {{4, 100'000}, {kAnchorFleet, kAnchorRequests}};
    } else {
        for (const std::uint64_t n :
             {std::uint64_t{10'000}, std::uint64_t{100'000},
              std::uint64_t{1'000'000}})
            for (const std::size_t f : {1u, 4u, 16u, 32u})
                matrix.emplace_back(f, n);
    }

    std::printf("%5s %10s %10s %9s %12s %12s %9s\n", "fleet", "requests",
                "events", "drop", "req/s", "events/s", "wall ms");
    bench::rule(78);

    // Each matrix row is one executor task; map() hands the rows back
    // in declaration order however the workers interleaved, so the
    // table and BENCH_simperf.json keep their serial layout. (Rows
    // time themselves, so concurrent rows share cores — the anchor
    // floor is conservative enough to absorb that.)
    std::vector<std::function<Row()>> rowTasks;
    rowTasks.reserve(matrix.size());
    for (const auto &[fleetSize, requests] : matrix)
        rowTasks.push_back([&model, fleetSize = fleetSize,
                            requests = requests] {
            return runRow(model, fleetSize, requests);
        });
    std::vector<Row> rows = pool.map(std::move(rowTasks));
    // Sharded-tier rows are appended below; reserving now keeps the
    // `anchor` pointer into `rows` stable across those push_backs.
    rows.reserve(rows.size() + 2);
    const Row *anchor = nullptr;
    for (const Row &row : rows) {
        printRow(row);
        if (row.shards == 0 && row.fleetSize == kAnchorFleet &&
            row.targetRequests == kAnchorRequests)
            anchor = &row;
    }
    bench::rule(78);

    bool ok = true;
    double seedRps = 0.0;
    double speedup = 0.0;
    bool crossChecked = false;

    if (anchor != nullptr && !smoke) {
        // Seed baseline on the anchor configuration: the preserved
        // reference engine over a shorter trace of the same shape
        // (its per-event cost is depth-bound, not length-bound), plus
        // a byte-identity cross-check of both engines on that trace.
        const WorkloadSpec spec =
            benchSpec(kAnchorFleet, kBaselineRequests);
        const std::vector<AcceleratorConfig> fleet(kAnchorFleet,
                                                   pointAccConfig());
        const std::vector<Request> trace =
            WorkloadGenerator(spec).generate();

        const auto t0 = std::chrono::steady_clock::now();
        const ServingReport seedReport = runServingReference(
            fleet, model, {1.0, 2.0}, benchConfig(kAnchorFleet), trace);
        const double seedMs = wallMsSince(t0);
        seedRps = static_cast<double>(seedReport.generated) /
                  (seedMs / 1e3);
        speedup = anchor->requestsPerSec / seedRps;

        const ServingReport newReport =
            FleetScheduler(fleet, model, {1.0, 2.0},
                           benchConfig(kAnchorFleet))
                .run(trace);
        std::ostringstream seedJson, newJson;
        writeServingJson(seedJson, seedReport);
        writeServingJson(newJson, newReport);
        crossChecked = seedJson.str() == newJson.str();

        const bool aboveFloor =
            anchor->requestsPerSec >= kFloorRequestsPerSec;
        const bool fastEnough = speedup >= 10.0;
        ok = aboveFloor && fastEnough && crossChecked;

        std::printf("anchor row (fleet %zu, %llu requests): %.0f req/s "
                    "(floor %.0f): %s\n",
                    kAnchorFleet,
                    static_cast<unsigned long long>(kAnchorRequests),
                    anchor->requestsPerSec, kFloorRequestsPerSec,
                    aboveFloor ? "OK" : "VIOLATED");
        std::printf("seed engine baseline: %.0f req/s (%llu-request "
                    "trace, %.1f ms) -> speedup %.1fx (>= 10x): %s\n",
                    seedRps,
                    static_cast<unsigned long long>(kBaselineRequests),
                    seedMs, speedup, fastEnough ? "OK" : "VIOLATED");
        std::printf("engines byte-identical on the shared trace: %s\n",
                    crossChecked ? "OK" : "VIOLATED");
    } else if (!smoke) {
        std::printf("anchor row not in the selected matrix; floor gate "
                    "skipped\n");
    }

    // ------------------------------------------------------------ //
    // Sharded tier: fleet 256 via 16 per-shard event loops.        //
    // ------------------------------------------------------------ //

    bool shardedDeterministic = true;
    bool shardFloorGated = false;
    double shardRps = 0.0;
    std::uint64_t shardServed = 0;
    if (!smoke) {
        std::printf("\nsharded tier: fleet %zu as %zu x %zu shards, "
                    "%llu requests\n",
                    kShardCount * kShardFleet, kShardCount, kShardFleet,
                    static_cast<unsigned long long>(kShardTierRequests));
        bench::rule(78);
        const Row shardRow =
            runShardedRow(model, pool, kShardTierRequests, nullptr);
        printRow(shardRow);
        rows.push_back(shardRow);
        shardRps = shardRow.requestsPerSec;
        shardServed = shardRow.completed;

        // Determinism gate: the same (small) sharded row through the
        // pool and through an inline serial executor must merge to a
        // byte-identical report — thread count must never leak into
        // output. Always enforced: it needs threads, not cores.
        ServingReport pooled, serial;
        const Row checkRow = runShardedRow(model, pool,
                                           kShardCheckRequests, &pooled);
        rows.push_back(checkRow);
        ProbeExecutor inlinePool(0);
        runShardedRow(model, inlinePool, kShardCheckRequests, &serial);
        std::ostringstream pooledJson, serialJson;
        writeServingJson(pooledJson, pooled);
        writeServingJson(serialJson, serial);
        shardedDeterministic = pooledJson.str() == serialJson.str();
        ok = ok && shardedDeterministic;
        std::printf("sharded merge byte-identical, parallel vs serial "
                    "(%llu requests): %s\n",
                    static_cast<unsigned long long>(kShardCheckRequests),
                    shardedDeterministic ? "OK" : "VIOLATED");

        // The multi-thread floor measures parallel speedup, so it
        // gates only when the flag and the hardware both provide >= 4
        // threads (the "4+-core runner" the floor was stored on).
        const std::size_t hwThreads = std::max(
            1u, std::thread::hardware_concurrency());
        shardFloorGated = poolThreads >= 4 && hwThreads >= 4;
        const bool aboveShardFloor =
            shardRps >= kShardFloorRequestsPerSec;
        if (shardFloorGated)
            ok = ok && aboveShardFloor;
        std::printf("sharded tier: %.0f req/s (multi-thread floor %.0f, "
                    "3x anchor floor): %s%s\n",
                    shardRps, kShardFloorRequestsPerSec,
                    aboveShardFloor ? "OK" : "VIOLATED",
                    shardFloorGated
                        ? ""
                        : " [not gated: needs --threads >= 4 on a "
                          "4+-core runner]");
    }

    // Memory gate: the whole run's peak RSS per request the sharded
    // tier served (ru_maxrss is in KiB on Linux).
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peakRssBytes = static_cast<double>(usage.ru_maxrss) * 1024.0;
    double rssPerServed = 0.0;
    if (shardServed > 0) {
        rssPerServed = peakRssBytes / static_cast<double>(shardServed);
        const bool underCeiling = rssPerServed <= kRssCeilingBytesPerServed;
        ok = ok && underCeiling;
        std::printf("peak RSS %.0f MiB: %.1f B per served sharded-tier "
                    "request (ceiling %.0f): %s\n",
                    peakRssBytes / 1048576.0, rssPerServed,
                    kRssCeilingBytesPerServed,
                    underCeiling ? "OK" : "VIOLATED");
    }

    if (!jsonPath.empty()) {
        std::ofstream jf(jsonPath);
        JsonWriter w(jf);
        w.beginObject();
        w.field("bench", "simperf");
        w.field("threads", static_cast<std::uint64_t>(poolThreads));
        w.field("floor_requests_per_sec", kFloorRequestsPerSec);
        w.field("seed_requests_per_sec", seedRps);
        w.field("speedup_vs_seed", speedup);
        w.field("engines_byte_identical", crossChecked);
        w.field("shard_floor_requests_per_sec", kShardFloorRequestsPerSec);
        w.field("shard_floor_gated", shardFloorGated);
        w.field("sharded_requests_per_sec", shardRps);
        w.field("sharded_merge_deterministic", shardedDeterministic);
        w.field("peak_rss_bytes", peakRssBytes);
        w.field("rss_ceiling_bytes_per_served_request",
                kRssCeilingBytesPerServed);
        w.field("rss_bytes_per_served_request", rssPerServed);
        w.key("rows").beginArray();
        for (const auto &r : rows) {
            w.beginObject();
            w.field("fleet_size",
                    static_cast<std::uint64_t>(r.fleetSize));
            w.field("shards", static_cast<std::uint64_t>(r.shards));
            w.field("target_requests", r.targetRequests);
            w.field("generated", r.generated);
            w.field("completed", r.completed);
            w.field("dropped", r.dropped);
            w.field("loop_events", r.loopEvents);
            w.field("wall_ms", r.wallMs);
            w.field("requests_per_sec", r.requestsPerSec);
            w.field("events_per_sec", r.eventsPerSec);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        jf << '\n';
        jf.flush();
        if (jf.good())
            std::printf("wrote %s\n", jsonPath.c_str());
        else
            std::fprintf(stderr, "error: could not write %s\n",
                         jsonPath.c_str());
    }
    return ok ? 0 : 1;
}
