/**
 * @file
 * Content-addressed kernel-map cache shared across serving requests.
 *
 * PointAcc's Mapping Unit exists because kernel-map construction
 * (neighbor search, sorting, kernel mapping) dominates point cloud
 * inference — yet in a serving setting, repeated frames of one LiDAR
 * stream recompute identical maps on every request. Kernel maps are a
 * pure function of (cloud geometry, network layer configuration), so
 * the runtime can content-address them: a cache hit lets the two-stage
 * scheduler collapse the whole Mapping Unit front-end phase of a
 * dispatch into a (modelled) cache-read cost, and the back-end starts
 * as soon as that read completes. This is the serving-level analogue
 * of Mesorasi's delayed aggregation (decouple neighbor-map work from
 * MAC work so it can be hidden or skipped).
 *
 * Contract and invariants (fuzzed by test_runtime_properties):
 *  - keys are value-identities: equal MapCacheKey => identical kernel
 *    maps; the cache never compares geometry itself;
 *  - a hit is never slower than a miss: the scheduler clamps the
 *    modelled read cost into the full map phase (see CacheBooking in
 *    scheduler.cpp), so enabling the cache can only shorten a
 *    dispatch, never lengthen it;
 *  - capacity is enforced on every insert: size() <= capacityEntries
 *    always, with deterministic victim selection so equal seeds give
 *    byte-identical stats: LRU evicts the least recent entry, LFU the
 *    least used, then least recent (recency is a strictly increasing
 *    tick, so no two resident entries ever tie);
 *  - counters are conserved: every lookup the scheduler prices is
 *    counted exactly once as a hit or a miss, and every eviction is
 *    counted exactly once.
 */

#ifndef POINTACC_RUNTIME_MAP_CACHE_HPP
#define POINTACC_RUNTIME_MAP_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

namespace pointacc {

/**
 * Content address of one request's kernel maps: the cloud identity
 * (equal cloudId => identical geometry, e.g. a repeated frame of one
 * stream), the network, and a hash of the network's layer
 * configuration (two networks sharing an id across catalogs — or one
 * network whose layer stack changed — must not share map entries).
 * cloudId 0 is the "no content identity" default of hand-built
 * Requests: the scheduler counts such requests as misses but never
 * publishes their maps, so distinct geometries cannot alias one entry.
 */
struct MapCacheKey
{
    std::uint64_t cloudId = 0;
    std::uint32_t networkId = 0;
    std::uint64_t layerHash = 0;

    bool
    operator==(const MapCacheKey &o) const
    {
        return cloudId == o.cloudId && networkId == o.networkId &&
               layerHash == o.layerHash;
    }
};

/** Hash of a MapCacheKey for the cache's hashed lookup. */
struct MapCacheKeyHash
{
    std::size_t operator()(const MapCacheKey &key) const;
};

/** Victim-selection policies. */
enum class MapCacheEviction
{
    Lru, ///< evict the least recently used entry
    Lfu, ///< evict the least frequently used entry (ties: LRU)
};

std::string toString(MapCacheEviction policy);

/** Cache knobs (SchedulerConfig::mapCache). */
struct MapCacheConfig
{
    bool enabled = false;
    /** Maximum resident entries (one entry = one (cloud, network)
     *  kernel-map set); inserts beyond it evict. */
    std::size_t capacityEntries = 4096;
    MapCacheEviction eviction = MapCacheEviction::Lru;
    /** Modelled front-end cost of reading one request's cached maps
     *  back from the map store (per batch member). The scheduler
     *  clamps this into the full map phase, so a hit can never cost
     *  more than the mapping it replaces. */
    std::uint64_t hitReadCycles = 0;
};

/** What one cached kernel-map set is worth. */
struct MapCacheEntry
{
    /** Mapping-phase event-axis ns the inserting miss paid for these
     *  maps (informational; a hit's actual saving is priced against
     *  the instance it dispatches to — see recordHit). */
    std::uint64_t mapCycles = 0;
    /** Modelled size of the stored maps in bytes. */
    std::uint64_t mapBytes = 0;
};

/** Operator-facing counters, surfaced in ServingReport / JSON. */
struct MapCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    /** Kernel-map bytes whose recomputation a hit avoided. */
    std::uint64_t bytesSaved = 0;
    /** Mapping-phase event-axis ns hits removed from the schedule at
     *  nominal speed: the scheduler credits, once per hit batch, the
     *  batch-level mapping it skipped net of the clamped read cost
     *  (see creditSavedCycles), not a per-request approximation. Under
     *  a straggler window the schedule stretches the hit's phases by
     *  the instance's slowdown but the credit does not, so there it
     *  differs from the simulated schedule. */
    std::uint64_t cyclesSaved = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0
                   ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(total);
    }
};

/**
 * Bounded content-addressed store of kernel-map entries.
 *
 * Pure bookkeeping: the cache stores *costs*, not the maps themselves
 * (the serving simulator prices work, it does not execute it). The
 * scheduler drives it with the lookup/insert protocol:
 *   contains() -> price the dispatch -> recordHit()/recordMiss() ->
 *   insert() when the miss's mapping phase completes.
 * contains() is a pure query (no recency/counter mutation) so batch
 * formation may classify freely without skewing LRU order.
 */
class MapCache
{
  public:
    explicit MapCache(MapCacheConfig config);

    const MapCacheConfig &config() const { return cfg; }
    bool enabled() const { return cfg.enabled; }
    std::size_t size() const { return entries.size(); }
    const MapCacheStats &stats() const { return counters; }

    /** Pure lookup: does the key currently reside in the cache? */
    bool contains(const MapCacheKey &key) const;

    /**
     * Count a priced hit on `key` (which must be resident): bumps
     * recency/frequency and the hits / bytesSaved counters. Cycle
     * savings are *not* booked here — hits batch together, and the
     * schedule skips mapping at batch granularity, so the scheduler
     * credits the batch-level saving once via creditSavedCycles.
     */
    void recordHit(const MapCacheKey &key);

    /**
     * Credit `saved` event-axis ns to cyclesSaved: the batch-level
     * mapping a hit dispatch skipped, net of the clamped read cost,
     * priced against the class of the instance it dispatched to (a
     * heterogeneous fleet prices mapping differently per class, so the
     * saving is known only at dispatch time, not at insertion) at that
     * class's nominal speed, unstretched by any straggler slowdown.
     * Called once per hit batch, never per member.
     */
    void creditSavedCycles(std::uint64_t saved);

    /** Count a priced miss (no key state changes; insertion happens
     *  later, when the mapping phase actually completes). */
    void recordMiss();

    /**
     * Insert (or refresh) `key`. A new key may evict the policy's
     * victim; re-inserting a resident key only refreshes its entry
     * and recency (idempotent — concurrent in-flight misses of one
     * key must not double-count insertions).
     */
    void insert(const MapCacheKey &key, const MapCacheEntry &entry);

  private:
    /** Victim order: (uses, lastUse) under LFU, (0, lastUse) under
     *  LRU. lastUse is unique, so ranks are too. */
    using Rank = std::pair<std::uint64_t, std::uint64_t>;

    struct Node
    {
        MapCacheEntry entry;
        std::uint64_t lastUse = 0; ///< logical tick of last touch
        std::uint64_t uses = 0;    ///< hits since insertion
    };

    Rank rankOf(const Node &node) const;
    /** Stamp `node` with a fresh tick, add `uses` hits and move it to
     *  its new rank. */
    void touch(Node &node, std::uint64_t uses);
    void evictOne();

    MapCacheConfig cfg;
    std::unordered_map<MapCacheKey, Node, MapCacheKeyHash> entries;
    /** Every resident key by rank; the victim is the first. */
    std::map<Rank, MapCacheKey> order;
    MapCacheStats counters;
    /** Logical use clock: advanced per touch/insert; deterministic. */
    std::uint64_t tick = 0;
};

} // namespace pointacc

#endif // POINTACC_RUNTIME_MAP_CACHE_HPP
