/**
 * @file
 * Implementation of the thread pool and parallel_for.
 */
#include "src/runtime/thread_pool.h"

#include <algorithm>
#include <utility>

#include "src/runtime/logging.h"

namespace shredder {

namespace {

thread_local bool t_in_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(unsigned num_threads)
{
    if (num_threads == 0) {
        num_threads = std::max(1u, std::thread::hardware_concurrency());
    }
    workers_.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_task_.notify_all();
    for (auto& w : workers_) {
        if (w.joinable()) {
            w.join();
        }
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        SHREDDER_CHECK(!stop_, "submit() on a stopping ThreadPool");
        tasks_.push(std::move(task));
        ++in_flight_;
    }
    cv_task_.notify_one();
}

void
ThreadPool::wait_idle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

ThreadPool&
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

bool
ThreadPool::in_worker()
{
    return t_in_pool_worker;
}

void
ThreadPool::worker_loop()
{
    t_in_pool_worker = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (stop_ && tasks_.empty()) {
                return;
            }
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --in_flight_;
            if (in_flight_ == 0) {
                cv_idle_.notify_all();
            }
        }
    }
}

void
parallel_for(std::int64_t begin, std::int64_t end,
             const std::function<void(std::int64_t)>& fn, std::int64_t grain)
{
    const std::int64_t n = end - begin;
    if (n <= 0) {
        return;
    }
    // A pool worker runs the loop itself: its pool's thread budget
    // already covers it, and waiting on chunks queued behind other work
    // would idle it. Chunking never changes what an iteration computes.
    ThreadPool* const pool = n > grain && !ThreadPool::in_worker()
                                 ? &ThreadPool::global()
                                 : nullptr;
    const std::int64_t workers =
        pool != nullptr ? static_cast<std::int64_t>(pool->size()) : 1;
    if (workers <= 1) {
        for (std::int64_t i = begin; i < end; ++i) {
            fn(i);
        }
        return;
    }
    const std::int64_t chunks = std::min<std::int64_t>(workers, n);
    const std::int64_t chunk = (n + chunks - 1) / chunks;
    // The synchronization state lives on the caller's stack, so the last
    // chunk must be done with it before the caller can return: it
    // decrements and notifies while holding `done_mutex`, and the caller
    // cannot see zero until that lock is released.
    std::int64_t remaining = (n + chunk - 1) / chunk;
    std::mutex done_mutex;
    std::condition_variable done_cv;
    for (std::int64_t lo = begin; lo < end; lo += chunk) {
        const std::int64_t hi = std::min(end, lo + chunk);
        pool->submit([lo, hi, &fn, &remaining, &done_mutex, &done_cv] {
            for (std::int64_t i = lo; i < hi; ++i) {
                fn(i);
            }
            std::lock_guard<std::mutex> lock(done_mutex);
            if (--remaining == 0) {
                done_cv.notify_all();
            }
        });
    }
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&remaining] { return remaining == 0; });
}

}  // namespace shredder
