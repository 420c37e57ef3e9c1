/**
 * @file
 * Probe executor: the thread pool behind planner probes, bench sweep
 * matrices, the sharded property suites and perfbench's serving shards.
 *
 * Each task is an independent deterministic simulation of milliseconds
 * to seconds, so ProbeExecutor is one FIFO of tasks behind one mutex
 * and one condition variable:
 *
 *  - idle workers pull the front task, so a worker stuck behind one
 *    expensive probe strands none of the work queued after it;
 *  - a thread blocked in Future::get() runs queued tasks from the
 *    front until its own task is done, then sleeps on the condition
 *    variable, which every enqueue and every completion notifies — so
 *    nested waits make progress even on a single-worker pool;
 *  - map() returns results in submission order, whatever order the
 *    tasks finished in (the merge behind every byte-identical output);
 *  - a throwing task's exception is rethrown by Future::get();
 *  - threadCount() == 0 is inline mode: submit() runs the task on the
 *    caller — the serial baseline the differential gates compare
 *    parallel runs against, with zero threads created.
 *
 * Determinism contract: the executor schedules *when* tasks run,
 * never *what they compute* — tasks must not share mutable state
 * (SimServiceModel's memo is internally synchronized for exactly this
 * reason), and consumers must merge in submission order, not
 * completion order. Under that contract a parallel sweep is
 * byte-identical to the serial one, which bench_serving, bench_simperf
 * and the property suite all enforce with differential gates.
 */

#ifndef POINTACC_RUNTIME_EXECUTOR_HPP
#define POINTACC_RUNTIME_EXECUTOR_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace pointacc {

class ProbeExecutor
{
  public:
    /** @param thread_count  worker threads to spawn; 0 = inline mode
     *  (no threads, submit() executes on the caller). */
    explicit ProbeExecutor(std::size_t thread_count);

    /** Runs every submitted task, then joins the workers. */
    ~ProbeExecutor();

    ProbeExecutor(const ProbeExecutor &) = delete;
    ProbeExecutor &operator=(const ProbeExecutor &) = delete;

    /** Worker threads to use when the caller asks for "auto":
     *  hardware_concurrency, floored at 1. */
    static std::size_t defaultThreads();

    /** Resolve a --threads style knob: 0 = auto (defaultThreads()),
     *  1 = serial inline mode, N = N workers. */
    static std::size_t resolveThreads(std::size_t requested);

    std::size_t threadCount() const { return threads.size(); }

    /** Tasks executed so far (all modes). */
    std::uint64_t executed() const { return numExecuted.load(); }

    template <class T> class Future;

    /** Submit a callable; returns a typed future. In inline mode the
     *  task runs before submit returns. */
    template <class F, class T = std::invoke_result_t<F>>
    Future<T>
    submit(F fn)
    {
        static_assert(!std::is_reference_v<T>,
                      "tasks must return by value");
        Future<T> fut;
        fut.owner = this;
        fut.state = std::make_shared<typename Future<T>::State>();
        auto state = fut.state;
        fut.task = enqueue([state, fn = std::move(fn)]() mutable {
            try {
                if constexpr (std::is_void_v<T>) {
                    fn();
                    state->value.emplace();
                } else {
                    state->value.emplace(fn());
                }
            } catch (...) {
                state->error = std::current_exception();
            }
        });
        return fut;
    }

    /**
     * Run every task and return the results in submission order —
     * the deterministic-merge primitive: result[i] is task[i]'s value
     * however the workers interleaved. Rethrows the first (by task
     * order) failed task's exception after all tasks finished.
     */
    template <class T>
    std::vector<T>
    map(std::vector<std::function<T()>> tasks)
    {
        std::vector<Future<T>> futures;
        futures.reserve(tasks.size());
        for (auto &task : tasks)
            futures.push_back(submit(std::move(task)));
        std::vector<T> results;
        results.reserve(futures.size());
        for (auto &f : futures)
            results.push_back(f.get());
        return results;
    }

  private:
    /** One queued task: the erased work plus its completion flag. */
    struct Task
    {
        std::function<void()> run;
        bool done = false; ///< guarded by `mutex`
    };

    std::shared_ptr<Task> enqueue(std::function<void()> run);
    /** Pop and run the front task. `lock` holds `mutex` on entry and
     *  on return; it is released while the task runs. */
    void runFront(std::unique_lock<std::mutex> &lock);
    void workerLoop();
    void waitFor(const Task &task);

    std::mutex mutex;
    /** Notified on every enqueue and every completion. */
    std::condition_variable cv;
    std::deque<std::shared_ptr<Task>> queue; ///< guarded by `mutex`
    bool stopping = false;                   ///< guarded by `mutex`
    std::atomic<std::uint64_t> numExecuted{0};
    /** Last: the workers use every member above. */
    std::vector<std::thread> threads;

  public:
    /** Handle to a submitted task's result. get() blocks — helping
     *  run queued tasks while any are queued — then returns the value
     *  or rethrows the task's exception. */
    template <class T> class Future
    {
      public:
        T
        get()
        {
            owner->waitFor(*task);
            if (state->error)
                std::rethrow_exception(state->error);
            if constexpr (!std::is_void_v<T>)
                return std::move(*state->value);
        }

      private:
        friend class ProbeExecutor;
        /** void tasks store a monostate so State stays one shape. */
        using Stored =
            std::conditional_t<std::is_void_v<T>, std::monostate, T>;
        struct State
        {
            std::optional<Stored> value;
            std::exception_ptr error;
        };
        std::shared_ptr<State> state;
        std::shared_ptr<Task> task;
        ProbeExecutor *owner = nullptr;
    };
};

} // namespace pointacc

#endif // POINTACC_RUNTIME_EXECUTOR_HPP
