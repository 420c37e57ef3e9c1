#include "runtime/queue.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "core/logging.hpp"

namespace pointacc {

std::string
toString(QueuePolicy policy)
{
    switch (policy) {
      case QueuePolicy::Fifo: return "fifo";
      case QueuePolicy::Sjf: return "sjf";
      case QueuePolicy::Edf: return "edf";
    }
    return "?";
}

namespace {

/** Primary ranking key per policy; ties always break on (arrival, id),
 *  exactly the seed's ranksBefore order. */
std::uint64_t
policyKey(QueuePolicy policy, const Request &r)
{
    switch (policy) {
      case QueuePolicy::Fifo:
        return 0; // arrival order == (arrival, id) order
      case QueuePolicy::Sjf:
        return r.estimatedCycles;
      case QueuePolicy::Edf:
        // 0 means best-effort: rank behind every deadlined request.
        return r.deadlineCycle == 0 ? ~0ULL : r.deadlineCycle;
    }
    return 0;
}

/** One index entry. `slot` is where the request sits in the slab and
 *  `seq` its push sequence number: an entry is stale (lazily deleted)
 *  once that slot no longer carries the same sequence number — the
 *  request left, or the slot was freed and reused. */
struct Entry
{
    std::uint64_t key = 0;
    std::uint64_t arrival = 0;
    std::uint64_t id = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;

    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>
    rank() const
    {
        return {key, arrival, id};
    }
};

struct RankLess
{
    bool
    operator()(const Entry &a, const Entry &b) const
    {
        return a.rank() < b.rank();
    }
};

/**
 * Rank-ordered index over one class's queued entries, in the shape the
 * policy fixes:
 *
 *  - ring (FIFO): a rank-sorted deque with lazy tombstones. On the
 *    scheduler's path pushes arrive in nondecreasing (arrival, id)
 *    order, so insertion is an O(1) append; removals just free their
 *    slab slot and are skipped — pruned off the front when a merge
 *    opens the ring, compacted away on push — afterwards. Out-of-order
 *    pushes (a crash retry re-entering with its original arrival) fall
 *    back to a sorted insert.
 *  - tree (SJF/EDF): an ordered set keyed (policy key, arrival, id)
 *    with O(log depth) insert/erase and eager deletion (no
 *    tombstones). Chosen over a d-ary heap because selection must
 *    traverse entries *in rank order under per-item predicates* — a
 *    heap only exposes its top.
 */
struct OrderIndex
{
    std::deque<Entry> ring;
    std::set<Entry, RankLess> tree;
    std::size_t liveCount = 0;
};

/** What a merge visitor does with the entry it is shown. */
enum class Step
{
    Skip, ///< leave it queued and continue
    Take, ///< remove it from the queue and continue
    Stop, ///< end the merge
};

constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

/**
 * Request id -> slab slot, open-addressed with linear probing and
 * backward-shift deletion (no tombstones), kept at most half full.
 */
class IdTable
{
  public:
    std::size_t size() const { return count; }

    /** Slot of `id`, or kNoSlot. */
    std::uint32_t
    find(std::uint64_t id) const
    {
        for (std::size_t i = home(id);; i = (i + 1) & mask) {
            if (cells[i].slot == kNoSlot || cells[i].id == id)
                return cells[i].slot;
        }
    }

    /** Map `id` to `slot`; false, changing nothing, if `id` is in. */
    bool
    insert(std::uint64_t id, std::uint32_t slot)
    {
        if (2 * (count + 1) > cells.size())
            grow();
        std::size_t i = home(id);
        for (; cells[i].slot != kNoSlot; i = (i + 1) & mask)
            if (cells[i].id == id)
                return false;
        cells[i] = Cell{id, slot};
        count += 1;
        return true;
    }

    /** Remove `id`, which must be present. Later cells of its probe
     *  run shift back into the hole, so every lookup still finds its
     *  id before the first empty cell. */
    void
    erase(std::uint64_t id)
    {
        std::size_t hole = home(id);
        while (cells[hole].id != id || cells[hole].slot == kNoSlot)
            hole = (hole + 1) & mask;
        for (std::size_t j = (hole + 1) & mask; cells[j].slot != kNoSlot;
             j = (j + 1) & mask) {
            // A cell may fill the hole unless its home lies in the
            // cyclic range (hole, j].
            if (((j - home(cells[j].id)) & mask) >= ((j - hole) & mask)) {
                cells[hole] = cells[j];
                hole = j;
            }
        }
        cells[hole].slot = kNoSlot;
        count -= 1;
    }

  private:
    struct Cell
    {
        std::uint64_t id = 0;
        std::uint32_t slot = kNoSlot; ///< kNoSlot marks an empty cell
    };

    /** Fibonacci hashing: the product's top bits. A window of dense
     *  ids (the generator's) lands almost evenly spread, so probe runs
     *  stay short; a hedge id's bit 63 flips the top index bit, so it
     *  never shares its original's probe start. */
    std::size_t
    home(std::uint64_t id) const
    {
        return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >>
                                        (64 - bits));
    }

    void
    grow()
    {
        bits += 1;
        std::vector<Cell> old(std::size_t{1} << bits);
        old.swap(cells);
        mask = cells.size() - 1;
        count = 0;
        for (const Cell &c : old)
            if (c.slot != kNoSlot)
                insert(c.id, c.slot);
    }

    unsigned bits = 4; ///< log2 of the cell count
    std::vector<Cell> cells = std::vector<Cell>(std::size_t{1} << bits);
    std::size_t mask = cells.size() - 1;
    std::size_t count = 0;
};

} // namespace

struct AdmissionQueue::Impl
{
    /** A slab slot: a queued request and its push sequence number, or
     *  seq 0 while the slot is on the free list. */
    struct Slot
    {
        Request r;
        std::uint64_t seq = 0;
    };

    /** One open class index inside a merge, positioned on its next
     *  live entry `at` (nullptr once exhausted). */
    struct Cursor
    {
        OrderIndex *ix = nullptr;
        std::set<Entry, RankLess>::iterator ti;
        std::size_t ri = 0;
        const Entry *at = nullptr;
    };

    explicit Impl(QueuePolicy p)
        : policy(p), treeMode(p != QueuePolicy::Fifo)
    {
    }

    const QueuePolicy policy;
    const bool treeMode;
    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeSlots;
    IdTable ids; ///< queued request id -> slot
    std::uint64_t seqCounter = 0;
    std::map<std::pair<std::uint32_t, std::uint32_t>, OrderIndex> classes;
    /** Cursor storage reused across merges (no allocation per pick). */
    std::vector<Cursor> cursors;

    Entry
    entryOf(std::uint32_t slot) const
    {
        const Slot &s = slots[slot];
        return Entry{policyKey(policy, s.r), s.r.arrivalCycle, s.r.id,
                     s.seq, slot};
    }

    /** Is `e` still queued (not a ring tombstone)? */
    bool
    live(const Entry &e) const
    {
        return slots[e.slot].seq == e.seq;
    }

    OrderIndex &
    classOf(const Request &r)
    {
        return classes[{r.networkId, r.sizeBucket}];
    }

    void
    insertItem(const Request &r)
    {
        const std::uint32_t slot =
            freeSlots.empty() ? static_cast<std::uint32_t>(slots.size())
                              : freeSlots.back();
        simAssert(ids.insert(r.id, slot),
                  "admission queue requires unique request ids");
        if (freeSlots.empty())
            slots.emplace_back();
        else
            freeSlots.pop_back();
        slots[slot] = Slot{r, ++seqCounter};
        const Entry e = entryOf(slot);
        OrderIndex &ix = classOf(r);
        if (treeMode) {
            ix.tree.insert(e);
        } else if (ix.ring.empty() || !(e.rank() < ix.ring.back().rank())) {
            ix.ring.push_back(e);
        } else {
            // Out-of-order push: sorted insert keeps the ring a valid
            // rank order at O(depth) for this push.
            ix.ring.insert(std::lower_bound(ix.ring.begin(), ix.ring.end(),
                                            e, RankLess{}),
                           e);
        }
        ix.liveCount += 1;
        // Bound tombstone buildup: rebuild a ring once more than half
        // of it is dead. Push never runs inside a merge, so no cursor
        // holds ring positions here.
        if (!treeMode && ix.ring.size() >= 2 * ix.liveCount + 64) {
            std::deque<Entry> keep;
            for (const auto &k : ix.ring)
                if (live(k))
                    keep.push_back(k);
            ix.ring.swap(keep);
        }
    }

    /** Free a queued request's slot (its ring entry becomes a
     *  tombstone; a tree entry the caller erases). */
    void
    release(std::uint32_t slot)
    {
        ids.erase(slots[slot].r.id);
        slots[slot].seq = 0;
        freeSlots.push_back(slot);
    }

    /** Remove the queued request in `slot`. */
    void
    removeSlot(std::uint32_t slot)
    {
        OrderIndex &ix = classOf(slots[slot].r);
        if (treeMode)
            ix.tree.erase(entryOf(slot));
        ix.liveCount -= 1;
        release(slot);
    }

    /** Add `ix` to the next merge. An index with nothing live is
     *  skipped (its ring emptied outright); otherwise the ring's dead
     *  prefix is dropped so the cursor starts on a live entry. */
    void
    open(OrderIndex &ix)
    {
        if (ix.liveCount == 0) {
            ix.ring.clear();
            return;
        }
        Cursor c;
        c.ix = &ix;
        c.ti = ix.tree.begin();
        if (treeMode) {
            settle(c);
        } else {
            while (!live(ix.ring.front()))
                ix.ring.pop_front();
            c.at = &ix.ring.front();
        }
        cursors.push_back(c);
    }

    /** Move `c` onto its next live entry at or after its position. */
    void
    settle(Cursor &c)
    {
        c.at = nullptr;
        if (treeMode) {
            if (c.ti != c.ix->tree.end())
                c.at = &*c.ti;
            return;
        }
        for (; c.ri < c.ix->ring.size(); ++c.ri) {
            if (live(c.ix->ring[c.ri])) {
                c.at = &c.ix->ring[c.ri];
                return;
            }
        }
    }

    /**
     * The one traversal: show `visit` the live entries of the opened
     * indexes in rank order, merged across indexes, acting on each
     * Step. Each index is sorted by the total rank (key, arrival, id),
     * so the merged sequence is exactly the queue's global rank order.
     * Predicates are fixed for the duration of a merge, so a skipped
     * entry never needs a second look. Consumes the opened cursors.
     */
    template <class Visit>
    void
    merge(Visit &&visit)
    {
        for (;;) {
            Cursor *best = nullptr;
            for (Cursor &c : cursors)
                if (c.at != nullptr &&
                    (best == nullptr || c.at->rank() < best->at->rank()))
                    best = &c;
            if (best == nullptr)
                break;
            const std::uint32_t slot = best->at->slot;
            const Step step = visit(slots[slot].r);
            if (step == Step::Stop)
                break;
            if (step == Step::Take) {
                best->ix->liveCount -= 1;
                release(slot);
                if (treeMode)
                    best->ti = best->ix->tree.erase(best->ti);
                else
                    best->ri += 1;
            } else if (treeMode) {
                ++best->ti;
            } else {
                best->ri += 1;
            }
            settle(*best);
        }
        cursors.clear();
    }
};

AdmissionQueue::AdmissionQueue(std::size_t max_depth, QueuePolicy policy)
    : impl(std::make_unique<Impl>(policy)), maxDepth(max_depth)
{
}

AdmissionQueue::~AdmissionQueue() = default;
AdmissionQueue::AdmissionQueue(AdmissionQueue &&) noexcept = default;
AdmissionQueue &
AdmissionQueue::operator=(AdmissionQueue &&) noexcept = default;

std::size_t
AdmissionQueue::size() const
{
    return impl->ids.size();
}

bool
AdmissionQueue::push(const Request &r)
{
    if (size() >= maxDepth) {
        numDropped += 1;
        return false;
    }
    impl->insertItem(r);
    numAdmitted += 1;
    return true;
}

bool
AdmissionQueue::pushUncounted(const Request &r)
{
    if (size() >= maxDepth)
        return false; // shed, but never a second `dropped`
    impl->insertItem(r);
    return true;
}

const Request *
AdmissionQueue::peekEligible(
    const std::function<bool(const Request &)> &excluded) const
{
    for (auto &kv : impl->classes)
        impl->open(kv.second);
    const Request *found = nullptr;
    impl->merge([&](const Request &r) {
        if (excluded && excluded(r))
            return Step::Skip;
        found = &r;
        return Step::Stop;
    });
    return found;
}

std::vector<Request>
AdmissionQueue::popLedByBuckets(
    const Request &head, const std::vector<std::uint32_t> &buckets,
    const std::function<bool(const Request &, const Request &)> &extra,
    std::size_t max_count,
    const std::function<bool(const Request &)> &excluded)
{
    simAssert(max_count >= 1, "popLedByBuckets needs max_count >= 1");
    const std::uint32_t slot = impl->ids.find(head.id);
    simAssert(slot != kNoSlot, "popLedByBuckets head is not queued");

    const Request lead = impl->slots[slot].r; // `head` may be in the slab
    std::vector<Request> out;
    out.reserve(max_count);
    out.push_back(lead);
    impl->removeSlot(slot);
    if (max_count == 1)
        return out;

    // Candidate class sub-queues: (lead's network) x allowed buckets,
    // each opened once — two cursors over one index would invalidate
    // each other on erase.
    for (auto b = buckets.begin(); b != buckets.end(); ++b) {
        const auto it = impl->classes.find({lead.networkId, *b});
        if (it != impl->classes.end() &&
            std::find(buckets.begin(), b, *b) == b)
            impl->open(it->second);
    }
    impl->merge([&](const Request &r) {
        if (out.size() >= max_count)
            return Step::Stop;
        if ((extra && !extra(lead, r)) || (excluded && excluded(r)))
            return Step::Skip;
        out.push_back(r);
        return Step::Take;
    });
    return out;
}

void
AdmissionQueue::visitClass(
    std::uint32_t network_id, std::uint32_t bucket,
    const std::function<bool(const Request &)> &fn) const
{
    const auto it = impl->classes.find({network_id, bucket});
    if (it == impl->classes.end())
        return;
    impl->open(it->second);
    impl->merge([&](const Request &r) {
        return fn(r) ? Step::Skip : Step::Stop;
    });
}

} // namespace pointacc
