/**
 * @file
 * ProbeExecutor implementation. See executor.hpp for the contract.
 * Every sleeper, worker or waiter, re-checks its predicate under the
 * mutex that enqueue and completion publish through, so no wakeup can
 * be lost. Workers exit only when stopping and the queue is empty, so
 * the destructor runs every queued task before its joins return: a
 * dropped Future still has its side effects run.
 */

#include "runtime/executor.hpp"

namespace pointacc {

ProbeExecutor::ProbeExecutor(std::size_t thread_count)
{
    threads.reserve(thread_count);
    for (std::size_t i = 0; i < thread_count; ++i)
        threads.emplace_back([this] { workerLoop(); });
}

ProbeExecutor::~ProbeExecutor()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    cv.notify_all();
    for (auto &t : threads)
        t.join();
}

std::size_t
ProbeExecutor::defaultThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t
ProbeExecutor::resolveThreads(std::size_t requested)
{
    const std::size_t n = requested == 0 ? defaultThreads() : requested;
    // One thread of parallelism is just the caller: inline mode.
    return n <= 1 ? 0 : n;
}

std::shared_ptr<ProbeExecutor::Task>
ProbeExecutor::enqueue(std::function<void()> run)
{
    auto task = std::make_shared<Task>();
    task->run = std::move(run);
    std::unique_lock<std::mutex> lock(mutex);
    queue.push_back(task);
    if (threads.empty()) {
        // Inline mode: execute on the caller, before submit returns.
        runFront(lock);
        return task;
    }
    lock.unlock();
    cv.notify_all();
    return task;
}

void
ProbeExecutor::runFront(std::unique_lock<std::mutex> &lock)
{
    const std::shared_ptr<Task> task = std::move(queue.front());
    queue.pop_front();
    lock.unlock();
    task->run();
    task->run = nullptr; // release captures eagerly
    numExecuted.fetch_add(1);
    lock.lock();
    task->done = true;
    cv.notify_all();
}

void
ProbeExecutor::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        cv.wait(lock, [this] { return stopping || !queue.empty(); });
        if (queue.empty())
            return; // stopping, and nothing is left to run
        runFront(lock);
    }
}

void
ProbeExecutor::waitFor(const Task &task)
{
    // Help while waiting: run queued tasks (possibly the awaited one)
    // instead of only sleeping, so nested get() calls cannot deadlock
    // the pool.
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        cv.wait(lock, [&] { return task.done || !queue.empty(); });
        if (task.done)
            return;
        runFront(lock);
    }
}

} // namespace pointacc
