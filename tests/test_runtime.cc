/** @file Unit tests for the runtime substrate (pool, logging). */
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/logging.h"
#include "src/runtime/stopwatch.h"
#include "src/runtime/thread_pool.h"

namespace shredder {
namespace {

TEST(ThreadPool, ExecutesAllTasks)
{
    ThreadPool pool(3);
    std::atomic<int> counter{0};
    for (int i = 0; i < 50; ++i) {
        pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, SizeDefaultsToHardware)
{
    ThreadPool pool;
    EXPECT_GE(pool.size(), 1u);
}

TEST(ParallelFor, CoversRangeExactlyOnce)
{
    std::vector<std::atomic<int>> hits(200);
    parallel_for(0, 200, [&](std::int64_t i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(ParallelFor, EmptyAndSingleRanges)
{
    int count = 0;
    parallel_for(5, 5, [&](std::int64_t) { ++count; });
    EXPECT_EQ(count, 0);
    parallel_for(5, 6, [&](std::int64_t i) {
        EXPECT_EQ(i, 5);
        ++count;
    });
    EXPECT_EQ(count, 1);
}

TEST(ParallelFor, GrainForcesSerial)
{
    // With grain >= n the loop runs inline on the calling thread.
    const auto tid = std::this_thread::get_id();
    bool all_same_thread = true;
    parallel_for(0, 10, [&](std::int64_t) {
        if (std::this_thread::get_id() != tid) {
            all_same_thread = false;
        }
    }, /*grain=*/100);
    EXPECT_TRUE(all_same_thread);
}

TEST(ParallelFor, RunsInlineOnAPoolWorker)
{
    // Called from a worker of any pool (here a serving-style pool of
    // two), the loop stays on that worker: the global pool's threads
    // are outside the caller's thread budget.
    ThreadPool pool(2);
    std::thread::id worker;
    std::vector<std::thread::id> ran_on(64);
    pool.submit([&] {
        worker = std::this_thread::get_id();
        parallel_for(0, 64, [&](std::int64_t i) {
            ran_on[static_cast<std::size_t>(i)] =
                std::this_thread::get_id();
        });
    });
    pool.wait_idle();
    for (const std::thread::id& id : ran_on) {
        EXPECT_EQ(id, worker);
    }
}

TEST(ParallelFor, ComputesCorrectSum)
{
    std::vector<double> parts(1000);
    parallel_for(0, 1000, [&](std::int64_t i) {
        parts[static_cast<std::size_t>(i)] = static_cast<double>(i);
    });
    const double total =
        std::accumulate(parts.begin(), parts.end(), 0.0);
    EXPECT_DOUBLE_EQ(total, 999.0 * 1000.0 / 2.0);
}

TEST(ParallelFor, ConcurrentCallersOutliveTheirChunks)
{
    // Each call's completion state lives on its caller's stack. Many
    // tiny calls from several threads at once make the last chunk of
    // one call race its caller's return; a chunk still touching that
    // stack after the return aborts or corrupts the next call (ASan
    // with detect_stack_use_after_return reports it directly). Bounded
    // by calls and by wall time so sanitizer builds stay quick.
    constexpr int kThreads = 3;
    constexpr int kMaxCalls = 200000;
    constexpr double kMaxSeconds = 3.0;
    std::vector<std::int64_t> calls(kThreads, 0);
    std::vector<std::int64_t> wrong(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&calls, &wrong, t] {
            const Stopwatch clock;
            auto& done = calls[static_cast<std::size_t>(t)];
            while (done < kMaxCalls && clock.seconds() < kMaxSeconds) {
                std::atomic<int> sum{0};
                parallel_for(0, 4, [&sum](std::int64_t i) {
                    sum.fetch_add(static_cast<int>(i) + 1);
                });
                if (sum.load() != 10) {
                    ++wrong[static_cast<std::size_t>(t)];
                }
                ++done;
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_GT(calls[static_cast<std::size_t>(t)], 0) << t;
        EXPECT_EQ(wrong[static_cast<std::size_t>(t)], 0) << t;
    }
}

TEST(Logging, LevelFilterRoundTrip)
{
    const LogLevel prev = log_level();
    set_log_level(LogLevel::kSilent);
    EXPECT_EQ(log_level(), LogLevel::kSilent);
    inform("this must not crash while silenced");
    set_log_level(prev);
}

TEST(Stopwatch, MeasuresElapsedTime)
{
    Stopwatch sw;
    const double t0 = sw.seconds();
    EXPECT_GE(t0, 0.0);
    sw.reset();
    EXPECT_LT(sw.seconds(), 1.0);
    EXPECT_GE(sw.milliseconds(), 0.0);
}

TEST(LoggingDeath, RequireFailureExitsWithOne)
{
    // The global ThreadPool's workers are alive by the time the death
    // tests run; the default "fast" style forks with those threads'
    // locks potentially held and deadlocks the child. "threadsafe"
    // re-executes the binary instead.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        [] {
            SHREDDER_REQUIRE(false, "user error path");
        }(),
        ::testing::ExitedWithCode(1), "user error path");
}

TEST(LoggingDeath, CheckFailureAborts)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        [] {
            SHREDDER_CHECK(1 == 2, "internal bug path");
        }(),
        "check failed");
}

}  // namespace
}  // namespace shredder
