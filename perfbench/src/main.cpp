/**
 * @file
 * perfbench: the repository benchmark. One process runs one workload:
 *
 *   perfbench --workload <serve_overload|serve_stream|infer_zoo>
 *             --seed <n> [--seconds <s>] [--trace <0|1>] [--fig13 <0|1>]
 *
 * It sets the workload up at least once, more while set-ups fit in a
 * quarter second (setup_s is their median), repeats the measured
 * section for --seconds, checks every operation's output and prints
 * each metric with its unit. A `digest-line` gives the first
 * repetition's operation digests in expected_digests.txt's format. The
 * last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. --fig13 0 leaves the
 * two accuracy metrics out. run.py splits a --trace 0 run over several
 * such processes and combines them.
 * --trace 0 reports the end-to-end metrics; --trace 1 splits the time
 * between an untraced and a traced half, reports the per-layer metrics
 * and writes the traced spans as Chrome trace-event JSON to
 * <build dir>/traces/<workload>-seed<n>.json.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct MetricDef
{
    std::string name;
    std::string unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"host_rps", "req/s"},
    {"host_infer_per_s", "inferences/s"},
    {"peak_rss_mb", "MB"},
    {"sim_p99_ms", "ms"},
    {"sim_goodput_rps", "req/s"},
    {"sim_served_ratio", "ratio"},
    {"fig13_speedup_err", "ratio"},
    {"fig13_energy_err", "ratio"},
};

/** Every per-layer metric, printed on every workload (0 where the
 *  workload never reaches the layer). */
std::vector<MetricDef>
perLayerMetrics()
{
    std::vector<MetricDef> defs = {
        {"workload.host_ns", "ns"},
        {"workload.takes", "count"},
        {"workload.ns_per_take", "ns"},
        {"workload.peak_buffered", "count"},
        {"service_model.host_ns", "ns"},
        {"service_model.calls", "count"},
        {"service_model.calls_per_request", "calls/req"},
        {"scheduler.run_host_ns", "ns"},
        {"scheduler.self_host_ns", "ns"},
        {"scheduler.loop_events", "count"},
        {"scheduler.host_ns_per_event", "ns"},
        {"executor.task_host_ns_sum", "ns"},
        {"executor.max_task_host_ns", "ns"},
        {"executor.wall_host_ns", "ns"},
        {"executor.efficiency", "ratio"},
        {"serving_stats.merge_host_ns", "ns"},
        {"serving_stats.report_host_ns", "ns"},
        {"serving_stats.samples_retained", "count"},
    };
    for (std::size_t k = 0; k < kGapKinds; ++k)
        defs.push_back({std::string("mapping.") +
                            gapKindName(static_cast<GapKind>(k)) +
                            "_host_ns",
                        "ns"});
    for (std::size_t k = 0; k < kGapKinds; ++k)
        if (static_cast<GapKind>(k) != GapKind::None)
            defs.push_back({std::string("mapping.") +
                                gapKindName(static_cast<GapKind>(k)) +
                                "_ns_per_work",
                            "ns/work"});
    defs.push_back({"mapping.execute_host_ns", "ns"});
    defs.push_back({"sim.run_host_ns", "ns"});
    defs.push_back({"sim.pricing_host_ns", "ns"});
    for (const auto &name : inferMetricNames())
        defs.push_back({name, "ms"});
    const std::vector<MetricDef> modelled = {
        {"queue.admitted", "count"},
        {"queue.dropped", "count"},
        {"queue.wait_ns_mean", "ns"},
        {"batcher.batches", "count"},
        {"batcher.mean_size", "req/batch"},
        {"batcher.holds", "count"},
        {"batcher.cost_aware_holds", "count"},
        {"map_cache.hits", "count"},
        {"map_cache.misses", "count"},
        {"map_cache.evictions", "count"},
        {"map_cache.hit_ratio", "ratio"},
        {"fleet.map_busy_ratio", "ratio"},
        {"fleet.backend_busy_ratio", "ratio"},
        {"run_ahead.peak_staged", "count"},
        {"model.mapping_cycles", "cycles"},
        {"model.compute_cycles", "cycles"},
        {"model.exposed_dram_cycles", "cycles"},
        {"model.dram_bytes", "bytes"},
        {"model.energy_mj", "mJ"},
        {"trace.untraced_rate", "1/s"},
        {"trace.traced_rate", "1/s"},
        {"trace.overhead", "ratio"},
    };
    defs.insert(defs.end(), modelled.begin(), modelled.end());
    return defs;
}

/** Set-up runs: at least kMinSetups, more while they fit in
 *  kSetupSeconds (a millisecond set-up needs many for a steady
 *  median). */
constexpr std::size_t kMinSetups = 1;
constexpr std::size_t kMaxSetups = 2000;
constexpr double kSetupSeconds = 0.25;

double
since(std::uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e9;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Operations attempted and failed across every repetition. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one repetition: an operation fails when its identities
     *  break or its digest differs from `reference` (when given). */
    void
    check(const Repetition &rep, std::size_t operations,
          const std::vector<std::uint64_t> *reference)
    {
        attempted += operations;
        for (std::size_t i = 0; i < operations; ++i) {
            const bool ok =
                i < rep.digests.size() && i < rep.identitiesHold.size() &&
                rep.identitiesHold[i] &&
                (reference == nullptr ||
                 (i < reference->size() && rep.digests[i] == (*reference)[i]));
            failed += ok ? 0 : 1;
        }
    }
};

/** Repeat the measured section until `budget` host seconds pass. A
 *  repetition that throws counts all its operations as failed. When
 *  `first_peak_mb` is given, it receives the peak RSS right after the
 *  first repetition. */
std::vector<Repetition>
measure(Workload &workload, SpanLog *spans, double budget, Tally &tally,
        double *first_peak_mb = nullptr)
{
    std::vector<Repetition> reps;
    const std::uint64_t start = nowNs();
    do {
        try {
            reps.push_back(workload.run(spans));
            if (first_peak_mb != nullptr && reps.size() == 1)
                *first_peak_mb = peakRssMb();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: repetition failed: %s\n",
                         e.what());
            tally.attempted += workload.operations();
            tally.failed += workload.operations();
        }
    } while (since(start) < budget);
    return reps;
}

double
medianRate(const std::vector<Repetition> &reps, double Repetition::*count)
{
    std::vector<double> rates;
    for (const auto &rep : reps)
        rates.push_back(rep.*count / rep.hostSeconds);
    return median(rates);
}

/** The traced repetition with the median host time: its split is
 *  reported whole, so its parts still add up exactly. */
const Repetition *
medianRepetition(const std::vector<Repetition> &reps)
{
    if (reps.empty())
        return nullptr;
    std::vector<const Repetition *> order;
    for (const auto &rep : reps)
        order.push_back(&rep);
    std::sort(order.begin(), order.end(),
              [](const Repetition *a, const Repetition *b) {
                  return a->hostSeconds < b->hostSeconds;
              });
    return order[order.size() / 2];
}

std::string
formatNumber(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

int
runBenchmark(const Options &opt)
{
    const std::string name = toString(opt.workload);
    const DigestTable table = DigestTable::load(PERFBENCH_DIGESTS);
    const std::vector<std::uint64_t> *expected = table.find(name, opt.seed);
    SpanLog spanLog(name);
    SpanLog *spans = opt.trace ? &spanLog : nullptr;

    const auto workload = makeWorkload(opt.workload, opt.seed);
    std::vector<double> setups;
    const std::uint64_t setupStart = nowNs();
    while (setups.size() < kMinSetups ||
           (setups.size() < kMaxSetups && since(setupStart) < kSetupSeconds)) {
        const std::uint64_t t0 = nowNs();
        workload->setup();
        const std::uint64_t t1 = nowNs();
        if (spans)
            spans->add("setup", t0, t1);
        setups.push_back(static_cast<double>(t1 - t0) / 1e9);
    }

    Tally tally;
    const double untracedBudget = opt.trace ? opt.seconds / 2 : opt.seconds;
    // Peak RSS is read after set-up and the first repetition: later
    // repetitions only repeat it, and how the allocator reuses their
    // freed buffers would make the figure depend on the run length.
    double rssMb = 0.0;
    const std::vector<Repetition> plain =
        measure(*workload, nullptr, untracedBudget, tally, &rssMb);
    std::vector<Repetition> traced;
    if (opt.trace)
        traced = measure(*workload, spans, opt.seconds / 2, tally);

    // Seeds with stored digests are checked against them; any other
    // seed against the first repetition (determinism) plus the
    // identities. Traced repetitions must match the untraced ones.
    const std::vector<std::uint64_t> *firstDigests =
        plain.empty() ? nullptr : &plain.front().digests;
    for (const auto &rep : plain)
        tally.check(rep, workload->operations(),
                    expected ? expected : firstDigests);
    for (const auto &rep : traced)
        tally.check(rep, workload->operations(), firstDigests);
    if (plain.empty())
        tally.failed += 1; // nothing to compare a traced run against

    if (!plain.empty()) {
        std::string line = name + " " + std::to_string(opt.seed) + " ";
        for (std::size_t i = 0; i < plain.front().digests.size(); ++i)
            line += (i ? "," : "") + hex64(plain.front().digests[i]);
        std::printf("digest-line %s\n", line.c_str());
    }

    Values values;
    std::vector<MetricDef> defs;
    if (!opt.trace) {
        for (const auto &def : kEndToEnd)
            if (opt.fig13 || def.name.rfind("fig13_", 0) != 0)
                defs.push_back(def);
        values["setup_s"] = median(setups);
        values["host_rps"] = medianRate(plain, &Repetition::requests);
        values["host_infer_per_s"] =
            medianRate(plain, &Repetition::inferences);
        values["peak_rss_mb"] = rssMb;
        if (!plain.empty())
            for (const auto &[key, value] : plain.front().sim)
                values[key] = value;
        std::string rates;
        for (const auto &rep : plain)
            rates += " " + formatNumber(rep.requests / rep.hostSeconds);
        std::printf("host_rps of %zu repetitions:%s\n", plain.size(),
                    rates.c_str());
        if (opt.fig13) {
            const Fig13Accuracy fig13 = fig13Accuracy();
            values["fig13_speedup_err"] = fig13.speedupErr;
            values["fig13_energy_err"] = fig13.energyErr;
            std::printf("fig13 vs RTX 2080Ti: speedup %.3fx (paper 3.7x), "
                        "energy saving %.2fx (paper 22x)\n",
                        fig13.speedup, fig13.energy);
        }
    } else {
        defs = perLayerMetrics();
        if (const Repetition *rep = medianRepetition(traced))
            values = rep->layers;
        const double untracedRate = medianRate(plain, &Repetition::requests);
        const double tracedRate = medianRate(traced, &Repetition::requests);
        values["trace.untraced_rate"] = untracedRate;
        values["trace.traced_rate"] = tracedRate;
        values["trace.overhead"] =
            tracedRate > 0.0 ? untracedRate / tracedRate - 1.0 : 0.0;
        const std::string dir = std::string(PERFBENCH_BUILD_DIR) + "/traces";
        const std::string path =
            dir + "/" + name + "-seed" + std::to_string(opt.seed) + ".json";
        std::filesystem::create_directories(dir);
        if (!spans->write(path)) {
            std::fprintf(stderr, "perfbench: could not write %s\n",
                         path.c_str());
            tally.failed += 1;
        }
        std::printf("spans: %zu written to %s\n", spans->size(),
                    path.c_str());
    }

    // Every value a workload reports must be a listed metric.
    for (const auto &[key, value] : values)
        if (std::none_of(defs.begin(), defs.end(),
                         [&key = key](const MetricDef &d) {
                             return d.name == key;
                         }))
            throw std::logic_error("unlisted metric " + key);

    bool finite = true;
    std::string json = "{";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const auto it = values.find(defs[i].name);
        double value = it == values.end() ? 0.0 : it->second;
        if (!std::isfinite(value)) {
            finite = false;
            value = 0.0;
        }
        // A host time below 0 is a remainder (scheduler.self,
        // sim.pricing) whose parts outlasted the whole: no measurement.
        // The JSON gets 0, the table says so.
        if (value < 0.0 && defs[i].unit == "ns") {
            std::printf("%-36s %22s %s (not measured: parts exceed the "
                        "whole by %s ns)\n",
                        defs[i].name.c_str(), "0", defs[i].unit.c_str(),
                        formatNumber(-value).c_str());
            value = 0.0;
        } else {
            std::printf("%-36s %22s %s\n", defs[i].name.c_str(),
                        formatNumber(value).c_str(), defs[i].unit.c_str());
        }
        json += (i ? ", \"" : "\"") + defs[i].name + "\": {\"value\": " +
                formatNumber(value) + ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    json += "}";
    const bool correct = tally.failed == 0 && finite;
    std::printf("%s: %llu operations, %llu failed, digests %s\n",
                name.c_str(), static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                expected ? "checked against the stored table"
                         : "checked for determinism (no stored table)");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed), json.c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        opt = parseOptions(std::vector<std::string>(argv + 1, argv + argc));
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr,
                     "perfbench: %s\nusage: perfbench --workload "
                     "<serve_overload|serve_stream|infer_zoo> --seed <n> "
                     "[--seconds <s>] [--trace <0|1>] [--fig13 <0|1>]\n",
                     e.what());
        return 2;
    }
    try {
        return runBenchmark(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
