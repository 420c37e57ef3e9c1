#include "runtime/map_cache.hpp"

#include "core/logging.hpp"

namespace pointacc {

std::size_t
MapCacheKeyHash::operator()(const MapCacheKey &key) const
{
    // splitmix64 finalizer over the mixed fields: cloud ids are dense
    // counters, so the low bits must depend on every input bit.
    std::uint64_t h = key.cloudId ^ (key.layerHash * 0x9e3779b97f4a7c15ULL) ^
                      (static_cast<std::uint64_t>(key.networkId) << 32);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(h ^ (h >> 31));
}

std::string
toString(MapCacheEviction policy)
{
    switch (policy) {
      case MapCacheEviction::Lru: return "lru";
      case MapCacheEviction::Lfu: return "lfu";
    }
    return "?";
}

MapCache::MapCache(MapCacheConfig config) : cfg(config)
{
    if (cfg.enabled && cfg.capacityEntries < 1)
        fatal("map cache capacity must be >= 1 when enabled");
}

bool
MapCache::contains(const MapCacheKey &key) const
{
    return entries.find(key) != entries.end();
}

void
MapCache::recordHit(const MapCacheKey &key)
{
    const auto it = entries.find(key);
    simAssert(it != entries.end(), "recordHit on a non-resident key");
    touch(it->second, 1);
    counters.hits += 1;
    counters.bytesSaved += it->second.entry.mapBytes;
}

void
MapCache::creditSavedCycles(std::uint64_t saved)
{
    counters.cyclesSaved += saved;
}

void
MapCache::recordMiss()
{
    counters.misses += 1;
}

void
MapCache::insert(const MapCacheKey &key, const MapCacheEntry &entry)
{
    const auto it = entries.find(key);
    if (it != entries.end()) {
        // Refresh, don't re-insert: two in-flight misses of one key
        // (e.g. the same frame dispatched to two instances before
        // either mapping finished) land here once each.
        it->second.entry = entry;
        touch(it->second, 0);
        return;
    }
    if (entries.size() >= cfg.capacityEntries)
        evictOne();
    Node node;
    node.entry = entry;
    node.lastUse = ++tick;
    order.emplace(rankOf(node), key);
    entries.emplace(key, node);
    counters.insertions += 1;
}

MapCache::Rank
MapCache::rankOf(const Node &node) const
{
    return {cfg.eviction == MapCacheEviction::Lfu ? node.uses : 0,
            node.lastUse};
}

void
MapCache::touch(Node &node, std::uint64_t uses)
{
    auto handle = order.extract(rankOf(node));
    node.lastUse = ++tick;
    node.uses += uses;
    handle.key() = rankOf(node);
    order.insert(std::move(handle));
}

void
MapCache::evictOne()
{
    simAssert(!order.empty(), "evicting from an empty map cache");
    const auto victim = order.begin();
    entries.erase(victim->second);
    order.erase(victim);
    counters.evictions += 1;
}

} // namespace pointacc
