// Unit suite for the probe executor (src/runtime/executor.hpp), one
// FIFO of tasks under one lock. Covers the contract points every
// consumer leans on: deterministic submission-order merge, no queued
// work stranded behind a blocked worker or a missed wakeup, exception
// propagation with pool survival, and inline serial mode.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/executor.hpp"

namespace {

using pointacc::ProbeExecutor;

TEST(ProbeExecutor, MapReturnsResultsInSubmissionOrder)
{
    ProbeExecutor pool(3);
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 64; ++i) {
        tasks.push_back([i] {
            // Reverse-staggered sleeps so completion order is roughly
            // the opposite of submission order.
            std::this_thread::sleep_for(
                std::chrono::microseconds((64 - i) * 20));
            return i * i;
        });
    }
    const std::vector<int> results = pool.map(std::move(tasks));
    ASSERT_EQ(results.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
    EXPECT_EQ(pool.executed(), 64u);
}

TEST(ProbeExecutor, MapIsDeterministicAcrossRepeatsAndThreadCounts)
{
    // The merge contract behind every byte-identical gate: the same
    // task list produces the same result vector for any pool size.
    auto runWith = [](std::size_t threads) {
        ProbeExecutor pool(threads);
        std::vector<std::function<int()>> tasks;
        for (int i = 0; i < 40; ++i)
            tasks.push_back([i] { return 1000 + i * 7; });
        return pool.map(std::move(tasks));
    };
    const std::vector<int> serial = runWith(0);
    for (std::size_t threads : {1u, 2u, 4u})
        EXPECT_EQ(runWith(threads), serial) << "threads=" << threads;
}

TEST(ProbeExecutor, BlockedWorkerDoesNotStrandQueuedWork)
{
    // Task 0 blocks whichever worker takes it until `release` is set —
    // and only task 2, queued behind it, sets it. The schedule can
    // therefore only terminate if another thread takes task 2 while
    // task 0 still holds its worker.
    ProbeExecutor pool(2);
    std::atomic<bool> release{false};
    auto blocker = pool.submit([&release] {
        while (!release.load())
            std::this_thread::yield();
        return 0;
    });
    auto filler1 = pool.submit([] { return 1; });
    auto unblocker = pool.submit([&release] {
        release.store(true);
        return 2;
    });
    auto filler2 = pool.submit([] { return 3; });
    EXPECT_EQ(blocker.get(), 0);
    EXPECT_EQ(filler1.get(), 1);
    EXPECT_EQ(unblocker.get(), 2);
    EXPECT_EQ(filler2.get(), 3);
}

TEST(ProbeExecutor, IdleWorkerWakesForEverySubmission)
{
    // Each task goes to an idle one-worker pool and is awaited by
    // spinning on its side effect, never through get(), so only the
    // worker can run it: a worker that misses the enqueue's wakeup
    // strands the task until the next submission, which never comes.
    constexpr int kSubmissions = 5000;
    std::atomic<int> ran{0};
    ProbeExecutor pool(1);
    for (int i = 0; i < kSubmissions; ++i) {
        pool.submit([&ran] { ran.fetch_add(1); });
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(1);
        while (ran.load() <= i) {
            ASSERT_LT(std::chrono::steady_clock::now(), deadline)
                << "submission " << i << " not run within 1 s";
            std::this_thread::yield();
        }
    }
}

TEST(ProbeExecutor, TaskExceptionPropagatesAndPoolSurvives)
{
    ProbeExecutor pool(2);
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("probe exploded"); });
    auto good = pool.submit([] { return 17; });
    EXPECT_THROW(
        {
            try {
                bad.get();
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "probe exploded");
                throw;
            }
        },
        std::runtime_error);
    // The pool is still functional after a task threw.
    EXPECT_EQ(good.get(), 17);
    EXPECT_EQ(pool.submit([] { return 5; }).get(), 5);
}

TEST(ProbeExecutor, MapRethrowsFirstFailureBySubmissionOrder)
{
    ProbeExecutor pool(2);
    std::vector<std::function<int()>> tasks;
    tasks.push_back([] { return 1; });
    tasks.push_back([]() -> int { throw std::invalid_argument("first"); });
    tasks.push_back([]() -> int { throw std::runtime_error("second"); });
    EXPECT_THROW(pool.map(std::move(tasks)), std::invalid_argument);
}

TEST(ProbeExecutor, InlineModeRunsOnCallerWithNoThreads)
{
    ProbeExecutor pool(0);
    EXPECT_EQ(pool.threadCount(), 0u);
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id ran{};
    auto fut = pool.submit([&ran] {
        ran = std::this_thread::get_id();
        return 42;
    });
    // Inline mode executes during submit: the result is ready and ran
    // on the calling thread.
    EXPECT_EQ(ran, caller);
    EXPECT_EQ(fut.get(), 42);
    EXPECT_EQ(pool.executed(), 1u);
}

TEST(ProbeExecutor, ResolveThreadsMapsKnobToPoolSize)
{
    // 0 = auto (never less than one thread of parallelism), 1 = serial
    // inline mode, N>1 = N workers.
    EXPECT_GE(ProbeExecutor::resolveThreads(0) + 1, 1u);
    EXPECT_EQ(ProbeExecutor::resolveThreads(1), 0u);
    EXPECT_EQ(ProbeExecutor::resolveThreads(4), 4u);
    EXPECT_GE(ProbeExecutor::defaultThreads(), 1u);
}

TEST(ProbeExecutor, DestructorDrainsQueuedTasks)
{
    // Submitted-but-unconsumed tasks still run before the pool dies:
    // dropping a Future must not drop its side effects.
    std::atomic<int> ran{0};
    {
        ProbeExecutor pool(2);
        for (int i = 0; i < 32; ++i)
            pool.submit([&ran] { ran.fetch_add(1); });
    }
    EXPECT_EQ(ran.load(), 32);
}

TEST(ProbeExecutor, NestedGetInsideTaskDoesNotDeadlock)
{
    // A task that submits and waits on subtasks exercises the
    // help-while-waiting path even on a single-worker pool.
    ProbeExecutor pool(1);
    auto outer = pool.submit([&pool] {
        auto a = pool.submit([] { return 3; });
        auto b = pool.submit([] { return 4; });
        return a.get() * b.get();
    });
    EXPECT_EQ(outer.get(), 12);
}

TEST(ProbeExecutor, ManySmallTasksAggregateCorrectly)
{
    ProbeExecutor pool(4);
    std::vector<std::function<long()>> tasks;
    for (long i = 1; i <= 500; ++i)
        tasks.push_back([i] { return i; });
    const std::vector<long> results = pool.map(std::move(tasks));
    const long sum = std::accumulate(results.begin(), results.end(), 0L);
    EXPECT_EQ(sum, 500L * 501L / 2L);
    EXPECT_EQ(pool.executed(), 500u);
}

} // namespace
