/**
 * @file
 * The benchmark's three workloads and the Fig. 13 accuracy check.
 *
 * serve_overload  the bench_simperf anchor shape: a full 4096-deep FIFO
 *                 admission queue under 2.5x load on a fixed phase
 *                 table, so admission and batch formation do the work;
 * serve_stream    16 shards of a mixed-frequency fleet on the real
 *                 SimServiceModel with EDF, cost-aware wait-for-K,
 *                 run-ahead and an LRU map cache, on a 3-worker
 *                 executor, so per-dispatch costs do the work;
 * infer_zoo       the 8 paper networks through Accelerator::run, so
 *                 functional mapping and the cost models do the work.
 *
 * Each workload drives the library only through its public entry
 * points (FleetScheduler::run, mergeShardReports, writeServingJson,
 * Accelerator::run, executeNetwork). Inputs come from the seed alone.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/** Metric values by name (units live in the runner's metric table). */
using Values = std::map<std::string, double>;

/** What one repetition of a workload's measured section produced. */
struct Repetition
{
    /** Host seconds of the measured section. */
    double hostSeconds = 0.0;
    /** Requests generated (serve) or inferences run (infer). */
    double requests = 0.0;
    /** Simulated inferences: completed requests (serve) or inferences
     *  run (infer). */
    double inferences = 0.0;
    /** One digest per operation, in a fixed order. */
    std::vector<std::uint64_t> digests;
    /** Per operation: the output identities hold (conservation for a
     *  serving run, the cycle partition for an inference). */
    std::vector<bool> identitiesHold;
    /** sim_* end-to-end values; exact and seed-determined. */
    Values sim;
    /** Per-layer values: modelled counts always, host-time split only
     *  on a traced repetition. */
    Values layers;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Operations (digests) one repetition produces. */
    virtual std::size_t operations() const = 0;

    /** Build everything the measured section needs, replacing any
     *  state a previous call built. */
    virtual void setup() = 0;

    /** Run the measured section once. A non-null `spans` makes it a
     *  traced repetition: the library is reached through the timing
     *  decorators and the spans are recorded there. */
    virtual Repetition run(SpanLog *spans) = 0;
};

std::unique_ptr<Workload> makeWorkload(WorkloadKind kind, std::uint64_t seed);

/** Metric-name stem of a network notation: "PointNet++(c)" becomes
 *  "pointnetpp_c". */
std::string metricStem(const std::string &notation);

/** The infer.<stem>_host_ms metric names, in allBenchmarks() order. */
std::vector<std::string> inferMetricNames();

/** Fig. 13 RTX 2080Ti comparison on the fixed benchmark clouds. */
struct Fig13Accuracy
{
    double speedup = 0.0;  ///< geomean speedup over the GPU
    double energy = 0.0;   ///< geomean energy saving over the GPU
    double speedupErr = 0.0; ///< |speedup - 3.7| / 3.7
    double energyErr = 0.0;  ///< |energy - 22| / 22
};

Fig13Accuracy fig13Accuracy();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
