#include "runtime/queue.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
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

/** One index entry. `seq` is the push sequence number: an entry is
 *  stale (lazily deleted) when the id is gone from the live table or
 *  was re-enqueued with a newer sequence number. */
struct Entry
{
    std::uint64_t key = 0;
    std::uint64_t arrival = 0;
    std::uint64_t id = 0;
    std::uint64_t seq = 0;

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
 *    order, so insertion is an O(1) append; removals just die in the
 *    live table and are skipped — pruned off the front when a merge
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

} // namespace

struct AdmissionQueue::Impl
{
    struct Stored
    {
        Request r;
        std::uint64_t seq = 0;
    };
    using LiveMap = std::unordered_map<std::uint64_t, Stored>;

    /** One open class index inside a merge, positioned on its next
     *  live entry `at` (nullptr once exhausted). A ring cursor also
     *  keeps that entry's live-table slot, which its liveness check
     *  already found. */
    struct Cursor
    {
        OrderIndex *ix = nullptr;
        std::set<Entry, RankLess>::iterator ti;
        std::size_t ri = 0;
        const Entry *at = nullptr;
        LiveMap::iterator item;
    };

    explicit Impl(QueuePolicy p)
        : policy(p), treeMode(p != QueuePolicy::Fifo)
    {
    }

    const QueuePolicy policy;
    const bool treeMode;
    LiveMap live;
    std::uint64_t seqCounter = 0;
    std::map<std::pair<std::uint32_t, std::uint32_t>, OrderIndex> classes;
    /** Cursor storage reused across merges (no allocation per pick). */
    std::vector<Cursor> cursors;

    Entry
    entryOf(const Stored &s) const
    {
        return Entry{policyKey(policy, s.r), s.r.arrivalCycle, s.r.id,
                     s.seq};
    }

    /** Live-table slot of `e`, or live.end() for a ring tombstone (the
     *  id left, or was re-enqueued under a newer sequence number). */
    LiveMap::iterator
    find(const Entry &e)
    {
        const auto it = live.find(e.id);
        return it != live.end() && it->second.seq == e.seq ? it
                                                           : live.end();
    }

    OrderIndex &
    classOf(const Request &r)
    {
        return classes[{r.networkId, r.sizeBucket}];
    }

    void
    insertItem(const Request &r)
    {
        const std::uint64_t seq = ++seqCounter;
        const auto ins = live.emplace(r.id, Stored{r, seq});
        simAssert(ins.second,
                  "admission queue requires unique request ids");
        const Entry e = entryOf(ins.first->second);
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
                if (find(k) != live.end())
                    keep.push_back(k);
            ix.ring.swap(keep);
        }
    }

    /** Remove a queued request by id (ring mode leaves a tombstone). */
    void
    removeById(std::uint64_t id)
    {
        const auto it = live.find(id);
        simAssert(it != live.end(), "removal of unqueued request");
        OrderIndex &ix = classOf(it->second.r);
        if (treeMode)
            ix.tree.erase(entryOf(it->second));
        ix.liveCount -= 1;
        live.erase(it);
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
            while ((c.item = find(ix.ring.front())) == live.end())
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
            c.item = find(c.ix->ring[c.ri]);
            if (c.item != live.end()) {
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
            const auto item =
                treeMode ? live.find(best->at->id) : best->item;
            const Step step = visit(item->second.r);
            if (step == Step::Stop)
                break;
            if (step == Step::Take) {
                best->ix->liveCount -= 1;
                live.erase(item);
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
    return impl->live.size();
}

bool
AdmissionQueue::push(const Request &r)
{
    if (impl->live.size() >= maxDepth) {
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
    if (impl->live.size() >= maxDepth)
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
    const Request lead = head; // copy: `head` may point into the queue
    const auto stored = impl->live.find(lead.id);
    simAssert(stored != impl->live.end(),
              "popLedByBuckets head is not queued");

    std::vector<Request> out;
    out.reserve(max_count);
    out.push_back(stored->second.r);
    impl->removeById(lead.id);
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
