/**
 * @file
 * Bounded admission queue with pluggable dequeue policies, indexed for
 * O(log depth) operation.
 *
 * Requests that arrive while every accelerator is busy wait here. The
 * queue is bounded: a fleet under sustained overload must shed load
 * somewhere, and an explicit drop counter at admission is the honest
 * place (unbounded queues make every overloaded experiment look fine
 * until the latency numbers are read). Three dequeue policies:
 *
 *  - FIFO: arrival order, the fairness baseline;
 *  - SJF: shortest estimated service first, the throughput/mean-latency
 *    optimizer (estimates come from the scheduler's profiled cost
 *    model at admission);
 *  - EDF: earliest absolute deadline first; best-effort requests (no
 *    deadline) rank behind all deadlined ones.
 *
 * The seed implementation scanned a flat vector per selection —
 * O(depth) per pop with O(depth) mid-vector erases, which dominated
 * million-request simulations. The policy is fixed at
 * construction. Queued requests live in a slab of slots recycled
 * through a free list, and each is held by exactly one order index:
 * the sub-queue of its (networkId, sizeBucket) class, sorted by the
 * policy's rank (see queue.cpp). Index entries carry (slot, push
 * sequence number), so telling a live entry from a tombstone is one
 * array compare; a flat open-addressed id -> slot table serves only
 * the uniqueness check and the batch head's lookup. A class index is
 * either
 *
 *  - a ring (FIFO): a rank-ordered deque with lazy tombstones — pushes
 *    arrive in rank order on the scheduler's path, so admission is an
 *    O(1) append — or
 *  - a tree (SJF/EDF): an ordered set with O(log depth) insert/erase.
 *
 * Selection is one rank-order merge over class indexes: the head pick
 * (peekEligible) merges every class, batch formation (popLedByBuckets)
 * merges only the head's network x allowed buckets, and the wait-for-K
 * probe (visitClass) walks a single class. The merge drops the dead
 * prefix of every ring it opens, so the FIFO head stays an O(classes)
 * read however many requests have left the queue.
 *
 * Every ranking is the total order (policy key, arrival cycle, id) the
 * seed used, and each class index is sorted by it, so the merge visits
 * entries in exactly the seed's pop order — including every tie-break;
 * tests/test_runtime_properties.cpp fuzzes pop-for-pop equivalence
 * against the preserved seed queue (runtime/reference.hpp).
 *
 * Contract and invariants (fuzzed by test_runtime_properties via the
 * scheduler): size() never exceeds the depth limit; admitted() +
 * dropped() counts every push exactly once, so the serving report's
 * conservation identity (generated = admitted + dropped) holds; every
 * policy's ranking is total and deterministic (ties always break on
 * arrival cycle, then id), so equal seeds replay byte-identically.
 * Request ids must be unique among queued items (the workload
 * generator's ids are; enqueuing a duplicate id asserts).
 */

#ifndef POINTACC_RUNTIME_QUEUE_HPP
#define POINTACC_RUNTIME_QUEUE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/workload.hpp"

namespace pointacc {

/** Dequeue orderings. */
enum class QueuePolicy
{
    Fifo, ///< first come, first served
    Sjf,  ///< shortest (estimated) job first
    Edf,  ///< earliest deadline first; best-effort last
};

std::string toString(QueuePolicy policy);

/** Bounded admission queue with drop accounting. */
class AdmissionQueue
{
  public:
    /** `policy` ranks every selection for the queue's lifetime. */
    AdmissionQueue(std::size_t max_depth, QueuePolicy policy);
    ~AdmissionQueue();

    AdmissionQueue(AdmissionQueue &&) noexcept;
    AdmissionQueue &operator=(AdmissionQueue &&) noexcept;

    /** Admit or drop (queue full). Returns true when admitted. */
    bool push(const Request &r);

    /**
     * Admit without touching the admitted/dropped counters, or return
     * false (again uncounted) when the queue is full. This is the
     * re-admission path for crash retries and hedged duplicates
     * (runtime/faults): each offered request is counted exactly once
     * at its first push, so the conservation identity generated =
     * admitted + dropped keeps holding however many times a request
     * re-enters — a shed retry is the scheduler's `failed` terminal
     * state, never a second `dropped`.
     */
    bool pushUncounted(const Request &r);

    bool empty() const { return size() == 0; }
    std::size_t size() const;
    std::size_t depthLimit() const { return maxDepth; }

    /**
     * Best-ranked request that `excluded` (empty = none) does not
     * reject, or nullptr when every queued request is excluded. The
     * scheduler uses this to skip over wait-for-K held groups so a
     * held head never blocks dispatchable traffic behind it. The
     * pointer is valid until the queue is next modified.
     */
    const Request *
    peekEligible(const std::function<bool(const Request &)> &excluded)
        const;

    /**
     * Batch formation over class sub-queues: pop `head` (which must be
     * queued) plus up to `max_count - 1` followers drawn only from the
     * (head.networkId, bucket) sub-queues for the listed `buckets`, in
     * rank order across those classes, accepting a follower r only
     * when `extra(head, r)` (empty = always) holds and `excluded(r)`
     * (empty = never) does not. With `buckets` = every bucket whose
     * size ratio the batcher allows, this selects exactly the
     * followers a scan of the whole queue under the batcher's
     * compatibility rule would — without visiting other networks'
     * entries.
     */
    std::vector<Request>
    popLedByBuckets(const Request &head,
                    const std::vector<std::uint32_t> &buckets,
                    const std::function<bool(const Request &,
                                             const Request &)> &extra,
                    std::size_t max_count,
                    const std::function<bool(const Request &)> &excluded);

    /**
     * Visit every queued request of class (networkId, sizeBucket) in
     * rank order; `fn` returns false to stop early. The batcher's
     * wait-for-K probe counts group members this way.
     */
    void visitClass(std::uint32_t network_id, std::uint32_t bucket,
                    const std::function<bool(const Request &)> &fn) const;

    std::uint64_t admitted() const { return numAdmitted; }
    std::uint64_t dropped() const { return numDropped; }

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
    std::size_t maxDepth;
    std::uint64_t numAdmitted = 0;
    std::uint64_t numDropped = 0;
};

} // namespace pointacc

#endif // POINTACC_RUNTIME_QUEUE_HPP
