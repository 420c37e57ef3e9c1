/**
 * @file
 * Measurement harness of the repository benchmark: command-line
 * options, output digests, the outside-in timing decorators, the
 * visitor-gap attributor and the in-memory span log.
 *
 * Everything here observes the library from outside. The decorators
 * wrap the RequestSource and ServiceModel a FleetScheduler is handed;
 * the gap attributor is an executeNetwork visitor. None of them
 * changes what the wrapped object computes, which the traced run
 * checks by comparing its output digests with the untraced ones.
 */

#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "nn/executor.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/workload.hpp"

namespace perfbench {

/** Steady-clock nanoseconds (the one clock every host time uses). */
std::uint64_t nowNs();

/** What timing an empty call reads: the median of many back-to-back
 *  nowNs() pairs, measured once per process. */
std::uint64_t clockOverheadNs();

// ------------------------------------------------------------------ //
// Options                                                            //
// ------------------------------------------------------------------ //

enum class WorkloadKind
{
    ServeOverload,
    ServeStream,
    InferZoo,
};

const char *toString(WorkloadKind kind);

/** Parse a workload name; throws std::invalid_argument if unknown. */
WorkloadKind parseWorkload(const std::string &name);

struct Options
{
    WorkloadKind workload = WorkloadKind::ServeOverload;
    std::uint64_t seed = 0;
    /** Length of the measured section in host seconds. */
    double seconds = 10.0;
    /** Traced run: report per-layer metrics and write the span log. */
    bool trace = false;
    /** Evaluate the Fig. 13 accuracy metrics (run.py turns this off in
     *  all but one of the processes a run is split into). */
    bool fig13 = true;
};

/**
 * Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
 * (plus `--fig13 <0|1>`). --workload and --seed are required. Throws
 * std::invalid_argument naming the first malformed argument: an
 * unknown flag or workload, a missing value, a seed that is not a
 * non-negative 64-bit integer, a non-positive or non-finite seconds
 * value, or a 0/1 flag with another value.
 */
Options parseOptions(const std::vector<std::string> &args);

// ------------------------------------------------------------------ //
// Digests                                                            //
// ------------------------------------------------------------------ //

/** 64-bit FNV-1a over `bytes`, continuing from `hash`. */
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

/** FNV-1a over the bytes of `value` (fixed-width, host order). */
std::uint64_t fnv1aValue(std::uint64_t value,
                         std::uint64_t hash = 0xcbf29ce484222325ULL);

/** 16 lowercase hex digits. */
std::string hex64(std::uint64_t value);

/** Digest of one serving operation: its writeServingJson bytes. */
std::uint64_t servingDigest(const pointacc::ServingReport &report);

/** Expected digests per (workload, seed), loaded from a text file of
 *  `<workload> <seed> <hex>,<hex>,...` lines. */
class DigestTable
{
  public:
    /** Load `path`; a missing file gives an empty table. Throws
     *  std::runtime_error on a malformed line. */
    static DigestTable load(const std::string &path);

    /** Expected digests of one repetition, or nullptr if the table
     *  holds none for this (workload, seed). */
    const std::vector<std::uint64_t> *find(const std::string &workload,
                                           std::uint64_t seed) const;

  private:
    struct Entry
    {
        std::string workload;
        std::uint64_t seed = 0;
        std::vector<std::uint64_t> digests;
    };
    std::vector<Entry> entries;
};

// ------------------------------------------------------------------ //
// Timing decorators                                                  //
// ------------------------------------------------------------------ //

/**
 * Call counter with sampled timing: every `stride`-th call is timed,
 * and host time is estimated as timed time, less the clock's own
 * overhead per timed call, scaled by calls / timed calls. Sampling
 * keeps the clock reads off most calls, so the traced run's split is
 * not inflated by its own overhead on layers that are called millions
 * of times at tens of ns each.
 */
struct CallMeter
{
    std::uint32_t stride = 1;
    /** Calls left until the next timed one (a countdown, not a
     *  modulo: the untimed path must stay a few instructions). */
    std::uint32_t untilTimed = 1;
    std::uint64_t calls = 0;
    std::uint64_t timedCalls = 0;
    std::uint64_t timedNs = 0;

    std::uint64_t estimatedNs() const;

    template <class F>
    decltype(auto)
    measure(F &&fn)
    {
        ++calls;
        if (--untilTimed != 0)
            return fn();
        untilTimed = stride;
        const std::uint64_t t0 = nowNs();
        struct Stop
        {
            CallMeter &m;
            std::uint64_t t0;
            ~Stop()
            {
                m.timedNs += nowNs() - t0;
                ++m.timedCalls;
            }
        } stop{*this, t0};
        return fn();
    }
};

/** RequestSource decorator: forwards peek/take, meters both. */
class TimedRequestSource : public pointacc::RequestSource
{
  public:
    TimedRequestSource(pointacc::RequestSource &inner, std::uint32_t stride);

    const pointacc::Request *peek() override;
    pointacc::Request take() override;

    const CallMeter &meter() const { return calls; }
    std::uint64_t takes() const { return numTakes; }

  private:
    pointacc::RequestSource &inner;
    CallMeter calls;
    std::uint64_t numTakes = 0;
};

/**
 * ServiceModel decorator: forwards profile and layerConfigHash (the
 * batch helpers of the base class call back into profile, so every
 * model consultation passes through the meter). One instance per
 * scheduler run; the meter is not synchronized.
 */
class TimedServiceModel : public pointacc::ServiceModel
{
  public:
    TimedServiceModel(const pointacc::ServiceModel &inner,
                      std::uint32_t stride);

    pointacc::ServiceProfile profile(const pointacc::AcceleratorConfig &cfg,
                                     std::uint32_t network_id,
                                     std::uint32_t bucket) const override;

    std::uint64_t layerConfigHash(std::uint32_t network_id) const override;

    const CallMeter &meter() const { return calls; }

  private:
    const pointacc::ServiceModel &inner;
    mutable CallMeter calls;
};

// ------------------------------------------------------------------ //
// Visitor-gap attribution                                            //
// ------------------------------------------------------------------ //

/**
 * Attribution classes of executeNetwork layers, keyed by the layer's
 * first MappingOpKind (None for a layer without mapping). Because the
 * visitor sees a layer only after all its mapping ops ran, a class
 * holds whole layers: Fps is a sampling set-abstraction layer (FPS,
 * then its first-scale ball query or kNN), Quantize a strided sparse
 * conv (quantize, then its kernel map), KernelMap a submanifold or
 * transposed sparse conv, Knn and BallQuery a layer that only searches
 * neighbours (feature propagation, edge conv, later MSG scales).
 */
enum class GapKind : std::size_t
{
    Fps,
    KernelMap,
    Knn,
    BallQuery,
    Quantize,
    None,
};

constexpr std::size_t kGapKinds = 6;

/** Metric-name stem of a gap kind ("fps", "kernel_map", ...). */
const char *gapKindName(GapKind kind);

/** Mapping work of one op as summarizeWorkload counts it (fpsWork,
 *  neighborWork or kernelMapWork share). */
std::uint64_t mappingWork(const pointacc::MappingOpInfo &op);

/**
 * Times the gaps between executeNetwork visitor calls. The gap that
 * ends at a visit is the work the executor did to produce that layer
 * (its mapping operations, then the emit), so it goes to the layer's
 * class (see GapKind), and so does the mapping work of every op of the
 * layer: time and work follow one rule, so ns / work compares like
 * with like. The stretch after the last visit up to executeNetwork's
 * return is attributed to None. Gaps telescope: their sum is exactly
 * finish() minus start(), the executeNetwork wall time.
 */
class GapAttributor
{
  public:
    using ClockFn = std::uint64_t (*)();

    struct Gap
    {
        GapKind kind = GapKind::None;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
    };

    explicit GapAttributor(ClockFn clock = nowNs) : clock(clock) {}

    void start();
    void visit(const pointacc::LayerWork &work);
    void finish();

    /** Host ns attributed to `kind` over every attributed run. */
    std::uint64_t ns(GapKind kind) const
    {
        return nsByKind[static_cast<std::size_t>(kind)];
    }
    /** Mapping work of every op of the layers of class `kind` (an
     *  Fps layer's ball-query work counts under Fps). */
    std::uint64_t work(GapKind kind) const
    {
        return workByKind[static_cast<std::size_t>(kind)];
    }
    /** Sum of finish() - start() over every attributed run. */
    std::uint64_t wallNs() const { return totalWallNs; }
    /** Gaps of the current (or last) run, in order. */
    const std::vector<Gap> &gaps() const { return runGaps; }

  private:
    void close(GapKind kind, std::uint64_t now);

    ClockFn clock;
    std::uint64_t runStart = 0;
    std::uint64_t last = 0;
    std::uint64_t totalWallNs = 0;
    std::array<std::uint64_t, kGapKinds> nsByKind{};
    std::array<std::uint64_t, kGapKinds> workByKind{};
    std::vector<Gap> runGaps;
};

// ------------------------------------------------------------------ //
// Span log                                                           //
// ------------------------------------------------------------------ //

/**
 * In-memory spans of a traced run, written out once at the end as
 * Chrome trace-event JSON (Perfetto or chrome://tracing open it). Each
 * span carries its name, start, end, parent span and workload. Safe to
 * use from several threads.
 */
class SpanLog
{
  public:
    static constexpr std::int64_t kNoParent = -1;

    explicit SpanLog(std::string workload) : workloadName(std::move(workload))
    {
    }

    /** Record a finished span; returns its id (for children). */
    std::int64_t add(std::string name, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::int64_t parent = kNoParent);

    /** Reserve an id for a span whose children are recorded before it
     *  ends; complete it with finish(). */
    std::int64_t open(std::string name, std::uint64_t start_ns,
                      std::int64_t parent = kNoParent);
    void finish(std::int64_t id, std::uint64_t end_ns);

    std::size_t size() const;

    /** Write every span; returns false if the file could not be
     *  written. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        std::int64_t parent = kNoParent;
        std::uint32_t thread = 0;
    };

    std::uint32_t threadIndex();

    std::string workloadName;
    mutable std::mutex mutex; ///< guards spans and threads
    std::vector<Span> spans;
    std::vector<std::size_t> threads; ///< hashed thread ids, by index
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP
