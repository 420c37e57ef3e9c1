#include "runtime/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/logging.hpp"
#include "datasets/synthetic.hpp"
#include "nn/executor.hpp"
#include "sim/accelerator.hpp"

namespace pointacc {

// ---------------------------------------------------------------- //
//                          ServiceModel                             //
// ---------------------------------------------------------------- //

namespace {
constexpr std::uint64_t kNoShared =
    std::numeric_limits<std::uint64_t>::max();

/** Incremental FNV-1a, the repository-portable content hash. */
struct Fnv1a
{
    std::uint64_t h = 1469598103934665603ULL;

    void
    mixByte(std::uint8_t b)
    {
        h ^= b;
        h *= 1099511628211ULL;
    }

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            mixByte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    mix(const std::string &s)
    {
        mix(static_cast<std::uint64_t>(s.size()));
        for (const char c : s)
            mixByte(static_cast<std::uint8_t>(c));
    }
};
} // namespace

std::uint64_t
ServiceModel::layerConfigHash(std::uint32_t network_id) const
{
    // Fixed test tables have no layer structure: the id is the whole
    // configuration. Mix it so distinct ids land far apart.
    Fnv1a f;
    f.mix(static_cast<std::uint64_t>(network_id));
    return f.h;
}

std::uint64_t
cyclesToNs(std::uint64_t cycles, double freq_ghz)
{
    // 1 GHz is the identity by construction, not by arithmetic: the
    // differential gates compare the ns engine byte-for-byte against
    // the cycle-domain reference, so the uniform-frequency path must
    // be exempt from any floating-point round trip.
    if (freq_ghz == 1.0)
        return cycles;
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(cycles) / freq_ghz));
}

PhaseProfile
phasesToNs(const PhaseProfile &phases, double freq_ghz)
{
    PhaseProfile ns;
    const std::uint64_t totalNs = cyclesToNs(phases.total(), freq_ghz);
    ns.mapCycles = std::min(cyclesToNs(phases.mapCycles, freq_ghz),
                            totalNs);
    ns.backendCycles = totalNs - ns.mapCycles;
    return ns;
}

PhaseProfile
priceBatch(const std::vector<ServiceProfile> &members)
{
    simAssert(!members.empty(), "batch must not be empty");
    std::uint64_t sum = 0;
    std::uint64_t longest = 0;
    std::uint64_t shared = kNoShared;
    std::uint64_t mapSum = 0;
    for (const auto &p : members) {
        sum += p.totalCycles;
        longest = std::max(longest, p.totalCycles);
        // Same network across the batch => same parameter set. The
        // profiled weight-load time can differ per size bucket (it is
        // capped at that bucket's run length), so credit the smallest
        // member's value: never overcredit, and the price of a batch
        // does not depend on member order.
        shared = std::min(shared, p.weightLoadCycles);
        mapSum += p.phases().mapCycles;
    }
    const std::uint64_t saved =
        shared * static_cast<std::uint64_t>(members.size() - 1);
    const std::uint64_t total =
        std::max(longest, sum > saved ? sum - saved : longest);
    // Mapping never amortizes (each member's cloud maps separately),
    // but the weight credit can shrink the total below sum-of-parts;
    // clamp so the phases still partition the batch price exactly.
    PhaseProfile ph;
    ph.mapCycles = std::min(mapSum, total);
    ph.backendCycles = total - ph.mapCycles;
    return ph;
}

std::uint64_t
ServiceModel::batchServiceCycles(const AcceleratorConfig &cfg,
                                 const Batch &batch) const
{
    return batchPhases(cfg, batch).total();
}

PhaseProfile
ServiceModel::batchPhases(const AcceleratorConfig &cfg,
                          const Batch &batch) const
{
    std::vector<ServiceProfile> members;
    members.reserve(batch.size());
    for (const auto &r : batch.requests)
        members.push_back(profile(cfg, r.networkId, r.sizeBucket));
    return priceBatch(members);
}

SimServiceModel::SimServiceModel(ServingCatalog catalog)
    : cat(std::move(catalog))
{
    if (cat.networks.empty())
        fatal("serving catalog needs at least one network");
    if (cat.bucketScales.empty())
        fatal("serving catalog needs at least one size bucket");
    for (const double s : cat.bucketScales)
        if (s <= 0.0)
            fatal("size bucket scales must be positive");
}

const PointCloud &
SimServiceModel::cloudFor(std::uint32_t network_id,
                          std::uint32_t bucket) const
{
    const auto key = std::make_pair(network_id, bucket);
    auto it = clouds.find(key);
    if (it == clouds.end()) {
        const auto &net = cat.networks[network_id];
        it = clouds
                 .emplace(key, generate(net.dataset, cat.cloudSeed,
                                        cat.bucketScales[bucket]))
                 .first;
    }
    return it->second;
}

ServiceProfile
SimServiceModel::profile(const AcceleratorConfig &cfg,
                         std::uint32_t network_id,
                         std::uint32_t bucket) const
{
    simAssert(network_id < cat.networks.size(),
              "network id outside the serving catalog");
    simAssert(bucket < cat.bucketScales.size(),
              "size bucket outside the serving catalog");
    const Key key{cfg.name, network_id, bucket};
    // Fast path: the triple is already profiled. Concurrent probes
    // hit this read-side lock on every dispatch, so it must stay
    // shared (never exclusive) once the memo is warm.
    {
        std::shared_lock<std::shared_mutex> lock(memoMutex);
        const auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }

    // Slow path: first profile of this triple. Take the exclusive
    // lock and re-check — two threads can both miss the shared-lock
    // lookup, and only the first to get here may simulate (the meter
    // counts real simulator runs, one per distinct triple).
    std::unique_lock<std::shared_mutex> lock(memoMutex);
    const auto again = cache.find(key);
    if (again != cache.end())
        return again->second;

    const auto &net = cat.networks[network_id];
    const auto &cloud = cloudFor(network_id, bucket);

    Accelerator accel(cfg);
    const RunResult r = accel.run(net, cloud);
    numProfiledRuns += 1;

    // Parameter bytes are a property of the network alone; cache the
    // workload summary across accelerator classes.
    const auto wkey = std::make_pair(network_id, bucket);
    auto wit = weightBytes.find(wkey);
    if (wit == weightBytes.end()) {
        const auto summary = summarizeWorkload(net, cloud);
        wit = weightBytes.emplace(wkey, summary.weightBytes).first;
    }

    ServiceProfile p;
    p.totalCycles = std::max<std::uint64_t>(r.totalCycles, 1);
    p.mappingCycles = r.mappingCycles;
    p.computeCycles = r.computeCycles;
    // Kernel-map footprint: one (input, output) index pair per map
    // entry — what a map-cache hit avoids recomputing and what the
    // cache's bytes-saved counter meters.
    for (const auto &layer : r.layers)
        p.mapBytes += layer.maps * 8;
    // Weight streaming time at this accelerator's DRAM bandwidth:
    // bytes / (GB/s) = ns, times GHz = cycles. Never credit more than
    // the whole run.
    const double ns = static_cast<double>(wit->second) /
                      std::max(cfg.dram.bandwidthGBps, 1e-9);
    p.weightLoadCycles = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(ns * cfg.freqGHz), p.totalCycles);
    cache.emplace(key, p);
    return p;
}

std::uint64_t
SimServiceModel::layerConfigHash(std::uint32_t network_id) const
{
    simAssert(network_id < cat.networks.size(),
              "network id outside the serving catalog");
    // Fingerprint of the layer stack: kind, name and order of every
    // layer plus the global shape knobs. Enough to distinguish every
    // zoo network and any edited variant; not a deep parameter hash.
    const auto &net = cat.networks[network_id];
    Fnv1a f;
    f.mix(net.name);
    f.mix(net.notation);
    f.mix(static_cast<std::uint64_t>(net.inputChannels));
    f.mix(static_cast<std::uint64_t>(net.convClass));
    f.mix(static_cast<std::uint64_t>(net.layers.size()));
    for (const auto &layer : net.layers) {
        f.mix(layer.name);
        f.mix(static_cast<std::uint64_t>(layer.desc.index()));
    }
    return f.h;
}

// ---------------------------------------------------------------- //
//                         FleetScheduler                            //
// ---------------------------------------------------------------- //

FleetScheduler::FleetScheduler(std::vector<AcceleratorConfig> fleet_,
                               const ServiceModel &model_,
                               std::vector<double> bucket_scales,
                               SchedulerConfig config)
    : fleet(std::move(fleet_)), model(model_),
      bucketScales(std::move(bucket_scales)), cfg(config)
{
    if (fleet.empty())
        fatal("fleet needs at least one accelerator");
    // Bad autoscaler, fault and retry configs fail here, never
    // mid-simulation: the policy resolves against the concrete fleet
    // (floor above ceiling, ceiling above the fleet), and malformed
    // programs and policies throw std::invalid_argument (vacuous when
    // disabled).
    if (cfg.autoscaler.enabled)
        cfg.autoscaler =
            resolveAutoscalerConfig(cfg.autoscaler, fleet.size());
    validateFaultProgram(cfg.faults);
    validateRetryPolicy(cfg.retry);
    if (cfg.runAheadDepth < 1)
        fatal("runAheadDepth must be >= 1 (1 is the blocking handoff)");
    for (const auto &acc : fleet) {
        // Frequencies may differ across members (each instance's
        // profiled cycles convert to the ns event axis at dispatch),
        // but every frequency must be a real clock.
        if (!(acc.freqGHz > 0.0))
            fatal("fleet members need a positive clock frequency");
        // Service profiles and converted phase splits are memoized per
        // config *name*; two members sharing a name but differing in
        // the fields that drive cost (frequency included) would
        // silently share wrong prices.
        for (const auto &other : fleet) {
            if (acc.name != other.name)
                continue;
            const bool same =
                acc.freqGHz == other.freqGHz &&
                acc.mxu.rows == other.mxu.rows &&
                acc.mxu.cols == other.mxu.cols &&
                acc.mpu.mergerWidth == other.mpu.mergerWidth &&
                acc.inputBufferKB == other.inputBufferKB &&
                acc.weightBufferKB == other.weightBufferKB &&
                acc.outputBufferKB == other.outputBufferKB &&
                acc.sorterBufferKB == other.sorterBufferKB &&
                acc.dram.name == other.dram.name &&
                acc.dram.bandwidthGBps == other.dram.bandwidthGBps;
            if (!same)
                fatal("fleet members named '" + acc.name +
                      "' have different configurations; give them "
                      "distinct names");
        }
    }
}

std::string
toString(OccupancyModel model)
{
    switch (model) {
      case OccupancyModel::Monolithic: return "monolithic";
      case OccupancyModel::Pipelined: return "pipelined";
    }
    return "?";
}

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint32_t kNoInstance =
    std::numeric_limits<std::uint32_t>::max();
/** Hedged duplicates carry the original id with this bit set, so the
 *  admission queue's id-uniqueness invariant survives a duplicate and
 *  its (retried) original being queued at once. Generator ids are
 *  dense from 0 and never reach the bit. */
constexpr std::uint64_t kHedgeIdBit = 1ULL << 63;

/** One dispatch resident on an instance, from dispatch until its
 *  back-end phase completes. */
struct InFlight
{
    Batch batch;
    PhaseProfile phases;
    std::uint64_t dispatchedAt = 0;
    std::uint64_t mapDoneAt = 0; ///< mapping-phase completion
    std::uint64_t doneAt = 0;    ///< back-end completion (set at start)
    /** Per-instance dispatch serial: the stamp of this batch's
     *  MapDone and RunDone heap entries (never reused, so an entry
     *  for a batch that moved on or died is recognizably stale). */
    std::uint64_t serial = 0;
    bool mapped = false;  ///< mapping phase done
    bool running = false; ///< on the back-end (only ever the head)
    /** Map-cache entries this (miss) dispatch publishes — maps exist
     *  only once mapped. */
    std::vector<std::pair<MapCacheKey, MapCacheEntry>> inserts;
};

/** Autoscaler lifecycle of one instance; Active forever without it. */
enum class Life : std::uint8_t
{
    Active,     ///< powered, accepting dispatches
    SpinningUp, ///< powered (burning cycles) but not yet accepting
    Draining,   ///< powered, finishing in-flight work, accepting nothing
    Off,        ///< unpowered
};

/** Global event-heap entry: sequence-numbered (push order) so heap
 *  order is total, and stamped with the dispatch serial or generation
 *  it describes for lazy invalidation. */
struct Event
{
    enum class Kind : std::uint8_t
    {
        MapDone,   ///< a pipeline's tail finishes its mapping phase
        RunDone,   ///< a pipeline's head finishes its back-end phase
        Timer,     ///< earliest wait-for-K hold deadline
        Arrival,   ///< the source's next request arrives
        ScaleEval, ///< periodic autoscaler policy evaluation
        SpinUp,    ///< a powering-on instance becomes Active
        Fault,     ///< a materialized fault event fires (runtime/faults)
        Retry,     ///< a crash victim's backoff expired; re-admit it
        Hedge,     ///< hedge delay expired; duplicate the request
    };

    std::uint64_t at = 0;
    std::uint64_t seq = 0;
    Kind kind = Kind::Arrival;
    std::uint32_t accel = 0;
    std::uint64_t stamp = 0;
};

struct EventLater
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
};

/** The global event heap: entries pop by time, then push order. */
class EventQueue
{
  public:
    void
    push(std::uint64_t at, Event::Kind kind, std::uint32_t accel,
         std::uint64_t stamp)
    {
        heap.push(Event{at, ++seq, kind, accel, stamp});
    }

    bool empty() const { return heap.empty(); }
    const Event &top() const { return heap.top(); }
    void pop() { heap.pop(); }

  private:
    std::priority_queue<Event, std::vector<Event>, EventLater> heap;
    std::uint64_t seq = 0;
};

/**
 * One accelerator instance as the two decoupled resources PointAcc
 * has (Section 5): a Mapping Unit front-end and a Matrix Unit +
 * memory back-end, held as one FIFO of dispatches in dispatch order.
 * The head may be running on the back-end; behind it wait mapped
 * batches; the tail may still be mapping. The Mapping Unit holds the
 * tail until it is mapped and at most runAheadDepth - 1 batches wait
 * behind the running head (the staging buffer; depth 1 is the
 * blocking handoff of the frozen reference engine), and takes a new
 * dispatch only when it holds nothing. Monolithic occupancy is the
 * same FIFO with a zero-length map phase, accepting only when empty.
 *
 * The type also owns the instance's busy accounting (per-stage busy
 * time and the residency union) and when a miss publishes its kernel
 * maps: at mapping completion when pipelined, where the maps first
 * exist, and at run completion when monolithic, whose one opaque
 * interval has no mapping moment to observe.
 */
class Pipeline
{
  public:
    /** `cache_` is null without a map cache; no dispatch then carries
     *  inserts to publish. */
    Pipeline(std::uint32_t self_, OccupancyModel occupancy,
             std::uint32_t run_ahead_depth, MapCache *cache_)
        : self(self_), monolithic(occupancy == OccupancyModel::Monolithic),
          stagedCap(monolithic ? 0 : run_ahead_depth - std::size_t{1}),
          cache(cache_)
    {}

    AcceleratorUsage usage;
    /** Batches that waited in the staging buffer, and the most that
     *  waited there at once. */
    std::uint64_t staged = 0;
    std::uint64_t peakStaged = 0;

    bool empty() const { return fifo.empty(); }

    /** Can the instance take a dispatch (occupancy permitting)? */
    bool accepts() const { return monolithic ? fifo.empty() : !mapperHeld; }

    /** The stage phases a batch priced `full` (ns) occupies here: a
     *  monolithic dispatch is one opaque back-end interval. */
    PhaseProfile
    stagePhases(PhaseProfile full) const
    {
        if (monolithic) {
            full.backendCycles += full.mapCycles;
            full.mapCycles = 0;
        }
        return full;
    }

    /** When the back-end has worked off everything committed to it:
     *  the running head, then each waiting batch in FIFO order. A new
     *  dispatch's back-end starts no earlier. */
    std::uint64_t
    backendFreeAt(std::uint64_t now) const
    {
        std::uint64_t at = now;
        for (const InFlight &u : fifo)
            at = u.running ? std::max(at, u.doneAt)
                           : at + u.phases.backendCycles;
        return at;
    }

    /** Is a MapDone (RunDone) heap entry still live: its batch still
     *  mapping at the tail (still running at the head)? */
    bool
    stageLive(const Event &e) const
    {
        if (fifo.empty())
            return false;
        return e.kind == Event::Kind::MapDone
                   ? fifo.back().serial == e.stamp && !fifo.back().mapped
                   : fifo.front().serial == e.stamp && fifo.front().running;
    }

    /** Append a batch at `now`; advance() moves it on. */
    void
    dispatch(InFlight unit, std::uint64_t now, EventQueue &events)
    {
        usage.mapBusyCycles += unit.phases.mapCycles;
        usage.batches += 1;
        usage.requests += unit.batch.size();
        unit.dispatchedAt = now;
        unit.mapDoneAt = now + unit.phases.mapCycles;
        unit.serial = ++serials;
        if (unit.mapDoneAt > now)
            events.push(unit.mapDoneAt, Event::Kind::MapDone, self,
                        unit.serial);
        fifo.push_back(std::move(unit));
        mapperHeld = true;
    }

    /**
     * Apply every stage transition due at `now`, oldest first: the
     * head completes (`done` records it), a mapped head starts on the
     * idle back-end, the tail finishes mapping. Transitions strictly
     * in the future get a heap entry; same-instant ones cascade here,
     * so every pending transition is live in the heap or resolved.
     */
    template <class Done>
    void
    advance(std::uint64_t now, EventQueue &events, Done &&done)
    {
        const bool heldTail = mapperHeld;
        while (!fifo.empty()) {
            InFlight &head = fifo.front();
            InFlight &tail = fifo.back();
            if (head.running && head.doneAt <= now) {
                if (monolithic)
                    publish(head);
                done(head);
                closeResidency(head, head.doneAt);
                fifo.pop_front();
            } else if (!head.running && head.mapped) {
                head.running = true;
                head.doneAt = now + head.phases.backendCycles;
                usage.backendBusyCycles += head.phases.backendCycles;
                if (head.doneAt > now)
                    events.push(head.doneAt, Event::Kind::RunDone, self,
                                head.serial);
            } else if (!tail.mapped && tail.mapDoneAt <= now) {
                tail.mapped = true;
                if (!monolithic)
                    publish(tail);
            } else {
                break;
            }
        }
        mapperHeld = !fifo.empty() && !fifo.back().running &&
                     (!fifo.back().mapped || waiting() > stagedCap);
        // The Mapping Unit let go of a mapped tail that the busy
        // back-end could not take: it parked in the staging buffer.
        if (heldTail && !mapperHeld && !fifo.empty() &&
            !fifo.back().running) {
            staged += 1;
            peakStaged = std::max<std::uint64_t>(peakStaged, waiting());
        }
    }

    /**
     * A crash at `now` kills every resident batch, oldest first. Each
     * gives back the stage time it will not run (an unmapped batch its
     * mapping remainder, the running head its back-end remainder) and
     * closes its residency at the crash instant; `killed` routes its
     * requests. Emptying the FIFO orphans its heap entries.
     */
    template <class Killed>
    void
    crash(std::uint64_t now, Killed &&killed)
    {
        for (const InFlight &u : fifo) {
            if (!u.mapped && u.mapDoneAt > now)
                usage.mapBusyCycles -= u.mapDoneAt - now;
            if (u.running && u.doneAt > now)
                usage.backendBusyCycles -= u.doneAt - now;
            closeResidency(u, now);
            killed(u);
        }
        fifo.clear();
        mapperHeld = false;
    }

  private:
    /** Batches not on the back-end (the FIFO must be non-empty). */
    std::size_t
    waiting() const
    {
        return fifo.size() - (fifo.front().running ? 1 : 0);
    }

    void
    publish(const InFlight &u)
    {
        for (const auto &ins : u.inserts)
            cache->insert(ins.first, ins.second);
    }

    /** Busy-interval union: residencies start in dispatch order, so a
     *  running high-water mark suffices — utilization counts wall-clock
     *  coverage, not the overlapping per-stage service. */
    void
    closeResidency(const InFlight &u, std::uint64_t end)
    {
        const std::uint64_t start = std::max(u.dispatchedAt, coveredUntil);
        if (end > start)
            usage.busyCycles += end - start;
        coveredUntil = std::max(coveredUntil, end);
    }

    std::deque<InFlight> fifo;
    std::uint32_t self;
    bool monolithic;
    std::size_t stagedCap;
    MapCache *cache;
    std::uint64_t serials = 0;
    std::uint64_t coveredUntil = 0;
    /** Does the Mapping Unit hold the tail: still mapping, or mapped
     *  with the staging buffer full? Kept current on every change to
     *  the FIFO, because accepts() runs for every instance on every
     *  dispatch pass. */
    bool mapperHeld = false;
};

/** One accelerator: its pipeline plus the lifecycle and fault state
 *  that gate dispatches to it, kept here because placement reads them
 *  on every pass (Autoscaler and FaultInjector write them). lifeStamp
 *  invalidates SpinUp entries as dispatch serials do stage entries. */
struct AccelState
{
    Pipeline pipe;
    Life life = Life::Active;
    std::uint64_t lifeStamp = 0;
    /** Down until its Recover event. A failure, not a Life: with the
     *  autoscaler on a crash also powers the instance Off. */
    bool crashed = false;
    /** Straggler service-time stretch for new dispatches; exactly 1.0
     *  outside windows, so fault-free pricing skips the float round
     *  trip (the byte-identity gates rely on the == test). */
    double slowdown = 1.0;

    bool
    canAccept() const
    {
        return !crashed && life == Life::Active && pipe.accepts();
    }
};

/**
 * One run's service prices: the ServiceProfile of every (accelerator
 * class, network, bucket) triple the run needs, plus each network's
 * layer-config hash, in one flat row per network. A triple is fetched
 * from the model the first time it is needed and read from the table
 * after that (ServiceModel::profile is pure for the whole of a run),
 * so pricing a dispatch takes no lock and no keyed lookup. Class c is
 * the c-th distinct config name in fleet order, so class 0 is the
 * lead accelerator the admission estimates price against.
 */
class PriceTable
{
  public:
    PriceTable(const ServiceModel &model_,
               const std::vector<AcceleratorConfig> &fleet_)
        : model(model_), fleet(fleet_), instanceClass(fleet_.size())
    {
        for (std::size_t i = 0; i < fleet.size(); ++i) {
            std::size_t c = 0;
            while (c < leads.size() && fleet[leads[c]].name != fleet[i].name)
                ++c;
            if (c == leads.size())
                leads.push_back(i);
            instanceClass[i] = c;
        }
    }

    std::size_t classes() const { return leads.size(); }
    std::size_t classOf(std::size_t instance) const
    {
        return instanceClass[instance];
    }

    const ServiceProfile &
    profile(std::size_t cls, std::uint32_t network_id, std::uint32_t bucket)
    {
        Row &row = rowOf(network_id);
        const std::size_t at = bucket * leads.size() + cls;
        if (at >= row.cells.size())
            row.cells.resize((bucket + std::size_t{1}) * leads.size());
        Cell &cell = row.cells[at];
        if (!cell.known) {
            cell.profile =
                model.profile(fleet[leads[cls]], network_id, bucket);
            cell.known = true;
        }
        return cell.profile;
    }

    std::uint64_t
    layerHash(std::uint32_t network_id)
    {
        Row &row = rowOf(network_id);
        if (!row.hashed) {
            row.layerHash = model.layerConfigHash(network_id);
            row.hashed = true;
        }
        return row.layerHash;
    }

    /** A batch's phases on class `cls`, in that class's cycles. */
    PhaseProfile
    batchPhases(std::size_t cls, const Batch &batch)
    {
        members.clear();
        for (const auto &r : batch.requests)
            members.push_back(profile(cls, r.networkId, r.sizeBucket));
        return priceBatch(members);
    }

  private:
    struct Cell
    {
        ServiceProfile profile;
        bool known = false;
    };
    struct Row
    {
        bool hashed = false;
        std::uint64_t layerHash = 0;
        std::vector<Cell> cells; ///< [bucket * classes + class]
    };

    Row &
    rowOf(std::uint32_t network_id)
    {
        if (network_id >= rows.size())
            rows.resize(network_id + std::size_t{1});
        return rows[network_id];
    }

    const ServiceModel &model;
    const std::vector<AcceleratorConfig> &fleet;
    std::vector<std::size_t> instanceClass;
    std::vector<std::size_t> leads; ///< class -> its first instance
    std::vector<Row> rows;
    std::vector<ServiceProfile> members; ///< batchPhases scratch
};

/**
 * The fault mechanism of one run (runtime/faults): the materialized
 * timeline, crash kills, and retries and hedges with the per-request
 * state they need. A run builds one only when its program materializes
 * an event or its retry policy is enabled; otherwise none of this is
 * reachable and the run is byte-identical to a fault-free build.
 */
class FaultInjector
{
  public:
    FaultInjector(std::vector<FaultEvent> timeline_, RetryPolicy retry_,
                  std::vector<AccelState> &accels_, EventQueue &events_)
        : timeline(std::move(timeline_)), retry(retry_), accels(accels_),
          events(events_)
    {
        stats.enabled = true;
        // Push the timeline (an entry's stamp indexes it); it is sorted,
        // so the last Recover is the latest.
        for (std::size_t f = 0; f < timeline.size(); ++f) {
            events.push(timeline[f].atNs, Event::Kind::Fault,
                        timeline[f].instance, f);
            if (timeline[f].kind == FaultEventKind::Recover)
                lastRecoverAt = timeline[f].atNs;
        }
    }

    /** A scheduled retry will re-enter admission. */
    bool retriesPending() const { return pendingRetries > 0; }

    /** Can any instance ever serve again: is one up, or a recovery
     *  scheduled at or after `now`? */
    bool
    fleetCanServe(std::uint64_t now) const
    {
        return (lastRecoverAt && *lastRecoverAt >= now) ||
               std::any_of(accels.begin(), accels.end(),
                           [](const AccelState &a) { return !a.crashed; });
    }

    /**
     * Fire a Fault, Retry or Hedge entry, or return false if it is
     * stale. A fault on a drained, idle fleet is stale (a program
     * outliving the workload must not extend the horizon); a live one
     * waits for applyDue. A retry is always live: it re-enters
     * admission unless a hedge copy finished its request meanwhile,
     * and shed on a full queue it fails terminally, never a second
     * `dropped`. A hedge is stale once its request completed or
     * failed; a shed hedge copy is lost and its original lives on.
     */
    template <class HasWork>
    bool
    fire(const Event &e, AdmissionQueue &queue, HasWork &&hasWork)
    {
        if (e.kind == Event::Kind::Fault) {
            if (!hasWork())
                return false;
            due.push_back(e.stamp);
        } else if (e.kind == Event::Kind::Retry) {
            pendingRetries -= 1;
            const Request &r = retrySlots[e.stamp];
            ReqState &st = rstate[r.id];
            if (!st.done && !queue.pushUncounted(r)) {
                stats.retryShed += 1;
                failTerminally(st);
            }
        } else {
            const Request &copy = hedgeSlots[e.stamp];
            const auto it = rstate.find(copy.id & ~kHedgeIdBit);
            if (it == rstate.end() || it->second.done || it->second.failed)
                return false;
            stats.hedges += 1;
            if (queue.pushUncounted(copy))
                hedgedInQueue += 1;
            else
                stats.hedgesLost += 1;
        }
        return true;
    }

    /** Apply the fault events fired at `now`, in timeline order, after
     *  the service sweep (a batch completing at the crash instant
     *  completes). A crash kills the instance's batches (Pipeline::crash
     *  gives back their un-run stage time), routes their requests
     *  through the retry policy and tells `crashed`. */
    template <class Crashed>
    void
    applyDue(std::uint64_t now, Crashed &&crashed)
    {
        for (const std::uint64_t idx : due) {
            const FaultEvent &f = timeline[idx];
            AccelState &a = accels[f.instance];
            switch (f.kind) {
              case FaultEventKind::Crash:
                if (a.crashed)
                    break; // overlapping outages coalesce
                a.crashed = true;
                stats.crashes += 1;
                a.pipe.crash(now, [&](const InFlight &u) {
                    stats.failedBatches += 1;
                    for (const auto &r : u.batch.requests)
                        fail(r, f.instance, now);
                });
                crashed(a);
                break;
              case FaultEventKind::Recover:
                if (a.crashed) {
                    a.crashed = false;
                    stats.recoveries += 1;
                }
                break;
              case FaultEventKind::StragglerStart:
                a.slowdown = f.factor;
                stats.stragglerWindows += 1;
                break;
              case FaultEventKind::StragglerEnd:
                a.slowdown = 1.0;
                break;
            }
        }
        due.clear();
    }

    /** Record completing `r` on `inst`? Only a request's first copy
     *  completes; a hedge race's loser, or a copy of a failed request,
     *  books the wasted hedge. Completing off the instance that
     *  crashed it is a failover. */
    bool
    completes(const Request &r, std::uint32_t inst)
    {
        const auto it = rstate.find(r.hedge ? r.id & ~kHedgeIdBit : r.id);
        if (it == rstate.end())
            return true;
        ReqState &st = it->second;
        if (st.done || st.failed) {
            if (r.hedge)
                stats.hedgesLost += 1;
            return false;
        }
        st.done = true;
        if (r.hedge)
            stats.hedgesWon += 1;
        if (st.crashedOn != kNoInstance && st.crashedOn != inst)
            stats.failovers += 1;
        return true;
    }

    /** `batch` left admission at `now`. Its hedge copies stop counting
     *  as queued, and each original arms its one hedge: a duplicate
     *  (id | kHedgeIdBit, so queued ids stay unique) that re-enters
     *  admission after the delay unless the original completed. */
    void
    dispatched(const Batch &batch, std::uint64_t now)
    {
        for (const auto &r : batch.requests) {
            if (r.hedge) {
                if (hedgedInQueue > 0)
                    hedgedInQueue -= 1;
                continue;
            }
            if (!retry.enabled || retry.hedgeDelayNs == 0)
                continue;
            ReqState &st = rstate[r.id];
            if (st.hedged)
                continue;
            st.hedged = true;
            Request copy = r;
            copy.id |= kHedgeIdBit;
            copy.hedge = true;
            hedgeSlots.push_back(copy);
            events.push(now + retry.hedgeDelayNs, Event::Kind::Hedge, 0,
                        hedgeSlots.size() - 1);
        }
    }

    /** Book the fault block and terminal failures. Queued hedge copies
     *  are not requests of record, so leftoverQueued excludes them. */
    void
    finish(ServingReport &report) const
    {
        report.failed = failed;
        report.leftoverQueued -= hedgedInQueue;
        report.faults = stats;
    }

  private:
    /** Created lazily for crash victims and hedged requests, keyed by
     *  the original id. */
    struct ReqState
    {
        bool done = false;   ///< a copy completed it
        bool failed = false; ///< failed terminally
        bool hedged = false;
        std::uint32_t crashedOn = kNoInstance; ///< last crash that hit it
    };

    /** A crash killed `r` on `inst` at `now`: retry it after a backoff
     *  or fail it. A hedge copy gets no retry; its original is the
     *  request of record. */
    void
    fail(const Request &r, std::uint32_t inst, std::uint64_t now)
    {
        if (r.hedge) {
            stats.hedgesLost += 1;
            return;
        }
        ReqState &st = rstate[r.id];
        if (st.done)
            return; // a hedge copy already completed it
        st.crashedOn = inst;
        stats.inflightFailed += 1;
        if (retry.enabled && r.attempt < retry.maxRetries) {
            const std::uint64_t backoff = retryBackoffNs(retry, r.attempt);
            if (retry.timeoutNs == 0 ||
                now + backoff <= r.arrivalCycle + retry.timeoutNs) {
                Request again = r;
                again.attempt += 1;
                retrySlots.push_back(again);
                pendingRetries += 1;
                stats.retryAttempts += 1;
                stats.retryBackoffNsTotal += backoff;
                events.push(now + backoff, Event::Kind::Retry, 0,
                            retrySlots.size() - 1);
                return;
            }
            stats.retryTimeouts += 1; // the wait alone blows the budget
        } else if (retry.enabled) {
            stats.retryExhausted += 1;
        }
        failTerminally(st);
    }

    void
    failTerminally(ReqState &st)
    {
        st.failed = true;
        failed += 1;
    }

    const std::vector<FaultEvent> timeline;
    const RetryPolicy retry;
    std::vector<AccelState> &accels;
    EventQueue &events;
    std::optional<std::uint64_t> lastRecoverAt;
    std::unordered_map<std::uint64_t, ReqState> rstate;
    std::vector<Request> retrySlots; ///< Retry stamp -> request
    std::vector<Request> hedgeSlots; ///< Hedge stamp -> duplicate
    std::vector<std::uint64_t> due;  ///< fault events fired this step
    std::uint64_t pendingRetries = 0; ///< scheduled, not yet fired
    std::uint64_t hedgedInQueue = 0;  ///< hedge copies in admission
    std::uint64_t failed = 0;
    FaultStats stats;
};

/**
 * The autoscaler mechanism of one run (runtime/autoscaler): the
 * policy, the instances' power lifecycle and the stats. A run builds
 * one only when the autoscaler is enabled, and the configured fleet is
 * then the pool; otherwise every instance stays Active.
 */
class Autoscaler
{
  public:
    Autoscaler(const AutoscalerConfig &cfg, std::vector<AccelState> &accels_,
               EventQueue &events_)
        : policy(cfg), accels(accels_), events(events_),
          poweredCount(cfg.initialInstances)
    {
        for (std::size_t i = cfg.initialInstances; i < accels.size(); ++i)
            accels[i].life = Life::Off;
        stats.peakProvisioned = cfg.initialInstances;
        events.push(cfg.evalIntervalCycles, Event::Kind::ScaleEval, 0,
                    ++evalGen);
    }

    /** Fire a ScaleEval or SpinUp entry, or return false if it is not
     *  the armed evaluation or its instance's current spin-up (a cancel
     *  or crash orphans that). An evaluation waits for evaluateDue, so
     *  the policy sees this instant's completions and crashes; a
     *  finished spin-up accepts work at once (power was counted at the
     *  decision). */
    bool
    fire(const Event &e)
    {
        if (e.kind == Event::Kind::ScaleEval) {
            if (e.stamp != evalGen)
                return false;
            evalDue = true;
            return true;
        }
        AccelState &a = accels[e.accel];
        if (a.life != Life::SpinningUp || a.lifeStamp != e.stamp)
            return false;
        a.life = Life::Active;
        return true;
    }

    /** A completion's latency, for the windowed p99 signal. */
    void noteLatency(std::uint64_t ns) { windowLat.push_back(ns); }

    /** `a` finished a batch: counted as drained if decommissioned. */
    void
    batchDone(const AccelState &a)
    {
        if (a.life == Life::Draining)
            stats.drainedBatches += 1;
    }

    /** `a` was serviced at `now`: a draining instance powers off the
     *  moment its pipeline empties. */
    void
    serviced(AccelState &a, std::uint64_t now)
    {
        if (a.life == Life::Draining && a.pipe.empty()) {
            a.life = Life::Off;
            notePower(now, -1);
        }
    }

    /** `a` crashed at `now`: a power loss, so the scale-up path doubles
     *  as crash replacement. Crashed hardware stays Off. */
    void
    powerLoss(AccelState &a, std::uint64_t now)
    {
        if (a.life == Life::Off)
            return;
        a.life = Life::Off;
        a.lifeStamp += 1; // orphan a pending SpinUp
        notePower(now, -1);
    }

    /**
     * Run the evaluation fired at `now`, if any: read the windowed
     * signals, decide, apply, re-arm. Scale-up resurrects a draining
     * instance (still powered, instantly Active) before powering a cold
     * one, which spins up first. Scale-down cancels a pending spin-up,
     * else retires the highest-index Active instance: off at once if
     * idle, else draining (see serviced()).
     */
    void
    evaluateDue(std::uint64_t now, std::uint64_t depth)
    {
        if (!evalDue)
            return;
        evalDue = false;
        const AutoscalerConfig &cfg = policy.config();
        std::uint64_t windowP99 = 0;
        if (!windowLat.empty()) {
            const std::size_t idx = std::min(
                (windowLat.size() * 99 + 99) / 100 - 1, windowLat.size() - 1);
            std::nth_element(windowLat.begin(),
                             windowLat.begin() +
                                 static_cast<std::ptrdiff_t>(idx),
                             windowLat.end());
            windowP99 = windowLat[idx];
        }
        windowLat.clear();
        const int action = policy.decide(now, depth, windowP99, provisioned());
        if (action > 0) {
            if (AccelState *draining = pick(Life::Draining, false)) {
                draining->life = Life::Active; // no power change
                stats.scaleUps += 1;
            } else if (AccelState *cold = pick(Life::Off, false)) {
                notePower(now, +1);
                cold->life = cfg.spinUpCycles == 0 ? Life::Active
                                                   : Life::SpinningUp;
                if (cfg.spinUpCycles > 0)
                    events.push(now + cfg.spinUpCycles, Event::Kind::SpinUp,
                                static_cast<std::uint32_t>(
                                    cold - accels.data()),
                                ++cold->lifeStamp);
                stats.scaleUps += 1;
            }
        } else if (action < 0) {
            if (AccelState *spinning = pick(Life::SpinningUp, true)) {
                spinning->life = Life::Off;
                spinning->lifeStamp += 1; // orphan the pending SpinUp
                notePower(now, -1);
                stats.scaleDowns += 1;
            } else if (AccelState *active = pick(Life::Active, true)) {
                active->life =
                    active->pipe.empty() ? Life::Off : Life::Draining;
                if (active->pipe.empty())
                    notePower(now, -1);
                stats.scaleDowns += 1;
            }
        }
        const std::uint32_t after = provisioned();
        stats.peakProvisioned = std::max(stats.peakProvisioned, after);
        stats.evals += 1;
        stats.timeline.samples.push_back(ScalingSample{
            now, depth, windowP99, after, static_cast<std::int64_t>(action)});
        events.push(now + cfg.evalIntervalCycles, Event::Kind::ScaleEval, 0,
                    ++evalGen);
    }

    AutoscalerStats
    finish(std::uint64_t end)
    {
        notePower(end, 0); // close the powered-instance integral
        stats.enabled = true;
        stats.minInstances = policy.config().minInstances;
        stats.maxInstances = policy.config().maxInstances;
        stats.finalProvisioned = provisioned();
        stats.timeline.bucketCycles = policy.config().evalIntervalCycles;
        return std::move(stats);
    }

  private:
    /** The policy's capacity: powered instances not on their way out
     *  (a draining instance no longer absorbs load). */
    std::uint32_t
    provisioned() const
    {
        std::uint32_t n = 0;
        for (const auto &a : accels)
            if (a.life == Life::Active || a.life == Life::SpinningUp)
                n += 1;
        return n;
    }

    /** The instance a vote acts on: the lowest-index one in `life` to
     *  scale up, the highest to scale down; never crashed hardware. */
    AccelState *
    pick(Life life, bool highest)
    {
        for (std::size_t n = 0; n < accels.size(); ++n) {
            AccelState &a = accels[highest ? accels.size() - 1 - n : n];
            if (a.life == life && !a.crashed)
                return &a;
        }
        return nullptr;
    }

    /** Powered-instance integral, advanced at every power transition.
     *  Spin-up and drain count: they burn power without serving, the
     *  reactive-scaling cost the traffic gate measures. */
    void
    notePower(std::uint64_t now, int delta)
    {
        stats.instanceCycles +=
            static_cast<std::uint64_t>(poweredCount) * (now - lastPowerChange);
        lastPowerChange = now;
        poweredCount =
            static_cast<std::uint32_t>(static_cast<int>(poweredCount) + delta);
    }

    AutoscalerPolicy policy;
    std::vector<AccelState> &accels;
    EventQueue &events;
    AutoscalerStats stats;
    std::uint32_t poweredCount;
    std::uint64_t lastPowerChange = 0;
    std::uint64_t evalGen = 0;
    bool evalDue = false;
    std::vector<std::uint64_t> windowLat; ///< latencies since last eval
};

/**
 * Wait-for-K batching of one run (BatcherConfig::targetK): the hold
 * timer, the groups held in the current dispatch pass, the hold-episode
 * count and, when cost-aware, the arrival cadence and the price each
 * hold is decided on (Batcher::holdForHead owns the rule). A run builds
 * one only when a head can hold: batching on, targetK > 1, and a
 * deadline (maxWaitCycles) or a price (costAware). Otherwise no Timer
 * entry exists and every batch dispatches at once.
 */
class WaitForK
{
  public:
    WaitForK(const Batcher &batcher_, PriceTable &prices_,
             const std::vector<AccelState> &accels_, EventQueue &events_,
             double reference_ghz)
        : batcher(batcher_), prices(prices_), accels(accels_),
          events(events_), referenceGHz(reference_ghz),
          priced(batcher_.config().costAware),
          want(std::min<std::size_t>(batcher_.config().targetK,
                                     batcher_.config().maxBatchSize))
    {}

    /** Does `r` belong to a group held this pass? A hold freezes only
     *  its leader's compatibility group: the members neither lead nor
     *  join batches until the group reaches K or the deadline passes,
     *  while every other group keeps dispatching around it. */
    bool
    inHeldGroup(const Request &r) const
    {
        for (const auto &h : heldLeaders)
            if (h.id == r.id || batcher.compatible(h, r))
                return true;
        return false;
    }

    /** Is a Timer entry the armed one? Nothing to apply: the dispatch
     *  pass re-probes every hold against the clock. */
    bool
    timerLive(const Event &e) const
    {
        return timerAt != kNever && e.stamp == timerGen;
    }

    /** Start a dispatch pass. Every pass re-decides every hold, so the
     *  timer first disarms (a hold resolved by new arrivals must not
     *  leave a stale event inflating the horizon; while no stage can
     *  accept, stage completions drive re-evaluation). */
    void
    beginPass()
    {
        timerAt = kNever;
        heldLeaders.clear();
    }

    /**
     * Hold the group led by `head` at `now` instead of dispatching it
     * undersized? Held-group members are excluded from the K count just
     * as formLedBy excludes them from the batch. A hold arms the timer
     * at its deadline and counts one episode per leader, however many
     * passes re-evaluate it.
     */
    bool
    holds(const AdmissionQueue &queue, const Request &head,
          std::uint64_t now, const std::function<bool(const Request &)> &held)
    {
        DispatchCost price;
        if (priced)
            price = priceOf(head, now);
        const BatchHold hold = batcher.holdForHead(
            queue, head, now, held, priced ? &price : nullptr);
        if (!hold.hold)
            return false;
        if (priced)
            costHolds += 1;
        if (countedHolds.insert(head.id).second) {
            batchHolds += 1;
            holdTrackingPeak = std::max(
                holdTrackingPeak,
                static_cast<std::uint64_t>(countedHolds.size()));
        }
        timerAt = std::min(timerAt, hold.until);
        heldLeaders.push_back(head);
        return true;
    }

    /** `batch` dispatched. Its members' hold episodes end: dropping
     *  their ids keeps the dedup set bounded by queue depth however long
     *  the trace runs (a re-queued id later starts a fresh, separately
     *  counted episode). A priced dispatch below K is booked. */
    void
    dispatched(const Batch &batch)
    {
        if (!countedHolds.empty())
            for (const auto &r : batch.requests)
                countedHolds.erase(r.id);
        if (priced && batch.size() < want)
            costDispatches += 1;
    }

    /** Does the current pass hold a group? */
    bool holding() const { return !heldLeaders.empty(); }

    /** End a dispatch pass: arm the timer at the earliest deadline of
     *  its holds. Re-arming or disarming bumps the generation, which
     *  orphans any queued entry. */
    void
    endPass()
    {
        if (timerAt == armedAt)
            return;
        timerGen += 1;
        armedAt = timerAt;
        if (timerAt != kNever)
            events.push(timerAt, Event::Kind::Timer, 0, timerGen);
    }

    /** Track the offered arrival process for the priced hold (drops
     *  included; retries and hedges are re-admissions, not arrivals,
     *  and never pass through here). */
    void
    noteArrival(const Request &r)
    {
        if (!priced)
            return;
        ArrivalCadence &c = cadence[r.networkId];
        if (c.count == 0)
            c.firstNs = r.arrivalCycle;
        c.lastNs = r.arrivalCycle;
        c.count += 1;
    }

    void
    finish(ServingReport &report) const
    {
        report.batchHolds = batchHolds;
        report.holdTrackingPeak = holdTrackingPeak;
        report.costHolds = costHolds;
        report.costDispatches = costDispatches;
    }

  private:
    struct ArrivalCadence
    {
        std::uint64_t count = 0;
        std::uint64_t firstNs = 0;
        std::uint64_t lastNs = 0;
    };

    /** Mean inter-arrival gap of one network's requests; 0 until two
     *  arrivals have been seen (no cadence, no priced hold). */
    std::uint64_t
    gapOf(std::uint32_t network_id) const
    {
        const auto it = cadence.find(network_id);
        if (it == cadence.end() || it->second.count < 2)
            return 0;
        return (it->second.lastNs - it->second.firstNs) /
               (it->second.count - 1);
    }

    /** Price one hold-vs-dispatch decision for a batch led by `head`
     *  from the lead accelerator's prices (class 0, in ns). The backlog
     *  is the committed back-end work on the least-loaded accepting
     *  instance; while it outlasts the head's mapping, holding forfeits
     *  no overlap, so a deeper run-ahead buffer makes holding cheaper
     *  exactly when the back-end is the bottleneck. */
    DispatchCost
    priceOf(const Request &head, std::uint64_t now)
    {
        DispatchCost price;
        const ServiceProfile &p =
            prices.profile(0, head.networkId, head.sizeBucket);
        price.weightLoadNs = cyclesToNs(p.weightLoadCycles, referenceGHz);
        price.mapNs = cyclesToNs(p.phases().mapCycles, referenceGHz);
        price.arrivalGapNs = gapOf(head.networkId);
        std::uint64_t backlog = kNever;
        for (const auto &acc : accels)
            if (acc.canAccept())
                backlog = std::min(backlog, acc.pipe.backendFreeAt(now) - now);
        price.backlogNs = backlog == kNever ? 0 : backlog;
        return price;
    }

    const Batcher &batcher;
    PriceTable &prices;
    const std::vector<AccelState> &accels;
    EventQueue &events;
    const double referenceGHz;
    const bool priced; ///< cost-aware: holds are priced, not timed
    const std::size_t want; ///< min(targetK, maxBatchSize)
    std::vector<Request> heldLeaders; ///< leaders held this pass
    /** Earliest hold deadline this pass; the armed one and its stamp. */
    std::uint64_t timerAt = kNever;
    std::uint64_t armedAt = kNever;
    std::uint64_t timerGen = 0;
    /** Leaders whose hold episodes were already counted. */
    std::unordered_set<std::uint64_t> countedHolds;
    std::map<std::uint32_t, ArrivalCadence> cadence;
    std::uint64_t batchHolds = 0;
    std::uint64_t holdTrackingPeak = 0;
    std::uint64_t costHolds = 0;
    std::uint64_t costDispatches = 0;
};

/**
 * Kernel-map cache booking of one run (runtime/map_cache): the cache,
 * each request's content key and the hit/miss purity rule on the
 * batcher, and per dispatch the hit classification, a hit's read-cost
 * clamp, the hit and miss counters, the saved-ns credit and the entries
 * a miss publishes. A run builds one only when the cache is enabled;
 * otherwise nothing is classified and no Pipeline publishes.
 */
class CacheBooking
{
  public:
    CacheBooking(const MapCacheConfig &cfg, PriceTable &prices_,
                 Batcher &batcher)
        : cache(cfg), prices(prices_)
    {
        // A hit's collapsed map phase and a miss's full mapping can
        // never share one dispatch price: keep batches hit-pure or
        // miss-pure (evaluated against the cache state at decision
        // time, like every other compatibility check).
        batcher.setExtraCompatibility(
            [this](const Request &a, const Request &b) {
                return cache.contains(keyOf(a)) == cache.contains(keyOf(b));
            });
    }
    /** The batcher's rule holds `this`. */
    CacheBooking(const CacheBooking &) = delete;
    CacheBooking &operator=(const CacheBooking &) = delete;

    /** The store a miss publishes into when mapped (Pipeline). */
    MapCache &store() { return cache; }

    const MapCacheStats &stats() const { return cache.stats(); }

    /** Is `batch` a hit batch? Classified at dispatch time: contents
     *  evolve as misses publish. The batcher's rule keeps batches
     *  hit-pure or miss-pure; the all-of scan is the honest check of
     *  that invariant. */
    bool
    hits(const Batch &batch)
    {
        for (const auto &r : batch.requests)
            if (!cache.contains(keyOf(r)))
                return false;
        return true;
    }

    /** A hit batch's phases from its full ones (ns): mapping collapses
     *  to streaming the cached maps back, clamped so a hit is never
     *  slower than the miss it avoids. */
    PhaseProfile
    hitPhases(PhaseProfile full, const Batch &batch) const
    {
        full.mapCycles = std::min(full.mapCycles, readNs(batch));
        return full;
    }

    /**
     * Book `batch`, dispatched to an instance of class `cls` clocked at
     * `freq_ghz` whose full batch mapping is `full_map_ns`. Recency,
     * frequency and bytes book per member. A hit batch credits once the
     * mapping it skipped, net of the clamped read cost, at the class's
     * nominal speed. A miss returns the entries it publishes when
     * mapped, priced against that class. cloudId 0 means "no content
     * identity" (hand-built traces): the miss counts but publishes no
     * map, so distinct geometries never alias one entry.
     */
    std::vector<std::pair<MapCacheKey, MapCacheEntry>>
    book(const Batch &batch, bool hit, std::size_t cls,
         std::uint64_t full_map_ns, double freq_ghz)
    {
        std::vector<std::pair<MapCacheKey, MapCacheEntry>> inserts;
        if (hit) {
            for (const auto &r : batch.requests)
                cache.recordHit(keyOf(r));
            cache.creditSavedCycles(full_map_ns -
                                    std::min(full_map_ns, readNs(batch)));
            return inserts;
        }
        for (const auto &r : batch.requests) {
            cache.recordMiss();
            if (r.cloudId == 0)
                continue;
            const ServiceProfile p =
                prices.profile(cls, r.networkId, r.sizeBucket);
            inserts.emplace_back(
                keyOf(r),
                MapCacheEntry{cyclesToNs(p.phases().mapCycles, freq_ghz),
                              p.mapBytes});
        }
        return inserts;
    }

  private:
    /** Keys take the per-network layer-config hash from the prices. */
    MapCacheKey
    keyOf(const Request &r)
    {
        return MapCacheKey{r.cloudId, r.networkId,
                           prices.layerHash(r.networkId)};
    }

    /** Modelled cost of streaming a batch's cached maps back. */
    std::uint64_t
    readNs(const Batch &batch) const
    {
        return cache.config().hitReadCycles *
               static_cast<std::uint64_t>(batch.size());
    }

    MapCache cache;
    PriceTable &prices;
};

} // namespace

ServingReport
FleetScheduler::run(std::vector<Request> arrivals) const
{
    std::stable_sort(arrivals.begin(), arrivals.end(), arrivalOrderBefore);
    VectorRequestSource source(std::move(arrivals));
    return run(source);
}

ServingReport
FleetScheduler::run(RequestSource &source) const
{
    ServingReport report;
    report.freqGHz = fleet.front().freqGHz;
    report.occupancy = toString(cfg.occupancy);
    report.runAheadDepth = cfg.runAheadDepth;
    report.costAware = cfg.batcher.costAware;

    AdmissionQueue queue(cfg.queueDepth, cfg.policy);
    Batcher batcher(cfg.batcher, bucketScales);

    PriceTable prices(model, fleet);

    // The cross-request kernel-map cache exists only when enabled; it
    // installs its hit/miss purity rule on the batcher as it is built.
    std::optional<CacheBooking> cache;
    if (cfg.mapCache.enabled)
        cache.emplace(cfg.mapCache, prices, batcher);

    std::vector<AccelState> accels;
    accels.reserve(fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        accels.push_back(AccelState{Pipeline(
            static_cast<std::uint32_t>(i), cfg.occupancy, cfg.runAheadDepth,
            cache ? &cache->store() : nullptr)});
        accels[i].pipe.usage.name = fleet[i].name + "#" + std::to_string(i);
        accels[i].pipe.usage.freqGHz = fleet[i].freqGHz;
    }
    // The event heap (see Event). Exactly one Arrival entry, the
    // source's next request, is outstanding; admission re-arms it.
    EventQueue events;
    bool arrivalQueued = false;
    if (source.peek() != nullptr) {
        events.push(source.peek()->arrivalCycle, Event::Kind::Arrival, 0,
                    0);
        arrivalQueued = true;
    }

    // The autoscaler and fault mechanisms exist only when configured;
    // each pushes its first events as it is built.
    std::optional<Autoscaler> scaler;
    if (cfg.autoscaler.enabled)
        scaler.emplace(cfg.autoscaler, accels, events);
    std::optional<FaultInjector> faults;
    if (auto timeline = materializeFaultEvents(cfg.faults, fleet.size());
        !timeline.empty() || cfg.retry.enabled)
        faults.emplace(std::move(timeline), cfg.retry, accels, events);

    // Reference prices per (network, bucket): class 0, the lead
    // accelerator, in ns — the SJF/EDF admission estimate and the
    // cost-aware prices. Relative ordering is what matters, and
    // network cost ratios are stable across classes.
    const double referenceGHz = fleet.front().freqGHz;

    // Wait-for-K exists only when a head can hold. Members of the
    // groups it holds this pass neither lead nor join a batch.
    std::optional<WaitForK> waitForK;
    std::function<bool(const Request &)> held;
    if (cfg.batcher.enabled && cfg.batcher.targetK > 1 &&
        (cfg.batcher.costAware || cfg.batcher.maxWaitCycles > 0)) {
        waitForK.emplace(batcher, prices, accels, events, referenceGHz);
        held = [&](const Request &r) { return waitForK->inHeldGroup(r); };
    }

    // Record a batch the back-end of instance `idx` just finished.
    const auto complete = [&](std::size_t idx, const InFlight &unit) {
        for (const auto &r : unit.batch.requests) {
            if (faults &&
                !faults->completes(r, static_cast<std::uint32_t>(idx)))
                continue;
            const std::uint64_t latency = unit.doneAt - r.arrivalCycle;
            report.latencyCycles.record(static_cast<double>(latency));
            report.completionCycles.push_back(unit.doneAt);
            if (r.deadlineCycle > 0 && unit.doneAt > r.deadlineCycle)
                report.deadlineMisses += 1;
            report.completed += 1;
            if (scaler)
                scaler->noteLatency(latency);
        }
        if (scaler)
            scaler->batchDone(accels[idx]);
    };

    // Apply every stage transition due at `now` on one instance.
    const auto service = [&](std::size_t idx, std::uint64_t now) {
        accels[idx].pipe.advance(now, events,
                                 [&](const InFlight &u) { complete(idx, u); });
        if (scaler)
            scaler->serviced(accels[idx], now);
    };

    // The dispatch being placed, priced per class in ns: one buffer
    // for the whole run.
    std::vector<std::optional<PhaseProfile>> classPhases(prices.classes());

    // Set when a pass stopped because no instance accepts while it held
    // no wait-for-K group (so the hold timer is disarmed). Until a
    // non-Arrival entry pops, nothing can make an instance accept, and
    // admission only lengthens a queue no instance can take from: every
    // pass would be a no-op, so it is skipped.
    bool fleetFull = false;
    const auto dispatch = [&](std::uint64_t now) {
        if (fleetFull)
            return;
        if (waitForK)
            waitForK->beginPass();
        while (!queue.empty()) {
            if (std::none_of(
                    accels.begin(), accels.end(),
                    [](const AccelState &a) { return a.canAccept(); })) {
                fleetFull = !waitForK || !waitForK->holding();
                break;
            }

            const Request *head = queue.peekEligible(held);
            if (head == nullptr)
                break; // everything queued belongs to a held group
            if (waitForK && waitForK->holds(queue, *head, now, held))
                continue; // other groups may still dispatch

            Batch batch = batcher.formLedBy(queue, *head, held);
            if (waitForK)
                waitForK->dispatched(batch);
            const bool hit = cache && cache->hits(batch);

            // Place on the accepting instance that finishes soonest.
            // Phases depend only on the accelerator class, so price once
            // per class per dispatch, converting to ns at the class's
            // own clock: the one point where the per-instance cycle
            // domain meets the global wall clock.
            std::fill(classPhases.begin(), classPhases.end(),
                      std::nullopt);
            std::size_t best = accels.size();
            std::uint64_t bestDone = kNever;
            PhaseProfile bestPhases;
            for (std::size_t i = 0; i < accels.size(); ++i) {
                if (!accels[i].canAccept())
                    continue;
                auto &memo = classPhases[prices.classOf(i)];
                if (!memo)
                    memo = phasesToNs(
                        prices.batchPhases(prices.classOf(i), batch),
                        fleet[i].freqGHz);
                PhaseProfile ph = accels[i].pipe.stagePhases(
                    hit ? cache->hitPhases(*memo, batch) : *memo);
                // Straggler windows stretch this instance's service
                // time (an effective frequency derate). The exact
                // ==1.0 comparison keeps the fault-free path free of
                // any float round-trip — byte-identity with the
                // reference engine depends on it.
                if (accels[i].slowdown != 1.0) {
                    ph.mapCycles = static_cast<std::uint64_t>(
                        std::llround(static_cast<double>(ph.mapCycles) *
                                     accels[i].slowdown));
                    ph.backendCycles = static_cast<std::uint64_t>(
                        std::llround(
                            static_cast<double>(ph.backendCycles) *
                            accels[i].slowdown));
                }
                // Exact completion were it placed here: mapping starts
                // now (the Mapping Unit is free), the back-end once it
                // has worked off its committed backlog.
                const std::uint64_t done =
                    std::max(now + ph.mapCycles,
                             accels[i].pipe.backendFreeAt(now)) +
                    ph.backendCycles;
                if (done < bestDone) {
                    bestDone = done;
                    best = i;
                    bestPhases = ph;
                }
            }

            InFlight unit;
            unit.phases = bestPhases;
            if (cache)
                unit.inserts = cache->book(
                    batch, hit, prices.classOf(best),
                    classPhases[prices.classOf(best)]->mapCycles,
                    fleet[best].freqGHz);
            report.batchSize.record(static_cast<double>(batch.size()));
            for (const auto &r : batch.requests)
                report.queueWaitCycles.record(
                    static_cast<double>(now - r.arrivalCycle));
            if (faults)
                faults->dispatched(batch, now);
            unit.batch = std::move(batch);
            accels[best].pipe.dispatch(std::move(unit), now, events);
            // Zero-length map phases move on at once (this is the
            // whole dispatch in the monolithic model).
            service(best, now);
        }
        if (waitForK)
            waitForK->endPass();
    };

    // Is there anything left to serve? Scaling and fault events on a
    // drained, idle simulation are dead, so it terminates and the
    // horizon is the work's, not the policy's.
    const auto hasWork = [&]() {
        return !queue.empty() || source.peek() != nullptr ||
               (faults && faults->retriesPending()) ||
               std::any_of(accels.begin(), accels.end(),
                           [](const AccelState &a) { return !a.pipe.empty(); });
    };

    // Apply one popped heap entry, or return false if it is stale: an
    // entry is live only while the batch stage, timer generation,
    // evaluation or spin-up it describes still exists unchanged (lazy
    // invalidation). Each entry is asked exactly once.
    std::vector<std::uint32_t> due; // instances with a stage transition
    const auto fire = [&](const Event &e) {
        switch (e.kind) {
          case Event::Kind::MapDone:
          case Event::Kind::RunDone:
            if (!accels[e.accel].pipe.stageLive(e))
                return false;
            due.push_back(e.accel);
            return true;
          case Event::Kind::Timer:
            return waitForK->timerLive(e);
          case Event::Kind::Arrival:
            arrivalQueued = false;
            return true;
          case Event::Kind::ScaleEval:
            // The recurring evaluation dies with the work, and once no
            // instance can ever serve again (crashed for good, the
            // stranded requests end as leftover).
            return hasWork() && (!faults || faults->fleetCanServe(e.at)) &&
                   scaler->fire(e);
          case Event::Kind::SpinUp:
            return hasWork() && scaler->fire(e);
          case Event::Kind::Fault:
          case Event::Kind::Retry:
          case Event::Kind::Hedge:
            return faults->fire(e, queue, hasWork);
        }
        return false;
    };

    std::uint64_t clock = 0;
    for (;;) {
        // One time step: pop the stale entries ahead of the first live
        // one, whose time is the step's (the heap's analogue of the
        // seed loop's min() rescan), then every other entry due at that
        // instant, live or stale, so all same-instant transitions apply
        // before dispatch decides — the seed serviced every instance
        // per iteration for the same reason.
        due.clear();
        bool live = false;
        while (!events.empty() && (!live || events.top().at <= clock)) {
            const Event e = events.top();
            events.pop();
            if (e.kind != Event::Kind::Arrival)
                fleetFull = false;
            if (fire(e) && !live) {
                live = true;
                clock = e.at;
            }
        }
        if (!live)
            break; // pipelines drained, no arrivals, no pending timer
        report.loopEvents += 1;

        // Stage transitions first, in instance order (the seed's sweep
        // order: same-instant completions record in index order), so
        // a request arriving now can reuse the capacity just freed.
        std::sort(due.begin(), due.end());
        due.erase(std::unique(due.begin(), due.end()), due.end());
        for (const std::uint32_t a : due)
            service(a, clock);

        // Faults, then scaling, land after the service sweep and
        // before dispatch: the policy sees the capacity loss (a crash
        // is a power loss), nothing is placed on dead hardware, a
        // zero-spin-up activation serves at once and a decommissioned
        // instance stops accepting first.
        if (faults)
            faults->applyDue(clock, [&](AccelState &down) {
                if (scaler)
                    scaler->powerLoss(down, clock);
            });
        if (scaler)
            scaler->evaluateDue(clock, queue.size());

        // Drain backlog onto freed stages before admitting, so a
        // same-cycle arrival is not dropped against queue space the
        // completion just made available.
        dispatch(clock);

        const Request *next = source.peek();
        for (; next != nullptr && next->arrivalCycle <= clock;
             next = source.peek()) {
            Request r = source.take();
            report.generated += 1;
            r.estimatedCycles = cyclesToNs(
                prices.profile(0, r.networkId, r.sizeBucket).totalCycles,
                referenceGHz);
            if (waitForK)
                waitForK->noteArrival(r);
            queue.push(r); // drop accounting lives in the queue
        }
        if (!arrivalQueued && next != nullptr) {
            events.push(next->arrivalCycle, Event::Kind::Arrival, 0, 0);
            arrivalQueued = true;
        }

        dispatch(clock);
    }

    report.horizonCycles = clock;
    report.admitted = queue.admitted();
    report.dropped = queue.dropped();
    report.leftoverQueued = queue.size();
    if (faults)
        faults->finish(report);
    if (waitForK)
        waitForK->finish(report);
    if (cache)
        report.mapCache = cache->stats();
    for (auto &acc : accels) {
        report.accelerators.push_back(acc.pipe.usage);
        report.runAheadStaged += acc.pipe.staged;
        report.runAheadPeakStaged =
            std::max(report.runAheadPeakStaged, acc.pipe.peakStaged);
    }
    if (scaler)
        report.autoscaler = scaler->finish(clock);
    return report;
}

} // namespace pointacc
