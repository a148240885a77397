/**
 * @file
 * A small fixed-size thread pool with a `parallel_for` helper.
 *
 * Used by the tensor/NN substrates to parallelize batch-level work
 * (e.g. im2col + GEMM per sample) across the available cores. The pool
 * is deliberately simple: a shared task queue guarded by a mutex — our
 * tasks are coarse (milliseconds), so queue contention is negligible.
 */
#ifndef SHREDDER_RUNTIME_THREAD_POOL_H
#define SHREDDER_RUNTIME_THREAD_POOL_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace shredder {

/**
 * Fixed-size worker pool executing `std::function<void()>` tasks.
 *
 * Construction spawns the workers; destruction drains outstanding tasks
 * and joins. Thread-safe for concurrent submission.
 */
class ThreadPool
{
  public:
    /**
     * Create a pool.
     *
     * @param num_threads Worker count; 0 means hardware concurrency.
     */
    explicit ThreadPool(unsigned num_threads = 0);

    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /** Enqueue a task for asynchronous execution. */
    void submit(std::function<void()> task);

    /** Block until all submitted tasks have finished. */
    void wait_idle();

    /**
     * Process-wide shared pool (lazily constructed, sized to the
     * machine). Use this instead of creating pools per call site.
     */
    static ThreadPool& global();

    /**
     * True when the calling thread is a pool worker (of any pool).
     * `parallel_for` uses this to run inline instead of fanning out
     * from a worker, which would leave the submitting worker idle while
     * its chunks queue behind it, on threads its pool never budgeted.
     */
    static bool in_worker();

  private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable cv_task_;
    std::condition_variable cv_idle_;
    std::uint64_t in_flight_ = 0;
    bool stop_ = false;
};

/**
 * Run `fn(i)` for every `i` in `[begin, end)` using the global pool.
 *
 * Iterations are split into contiguous chunks, one per worker. The
 * caller blocks until all iterations complete. Degenerates to a serial
 * loop on the calling thread when the range is small, the pool has one
 * worker, or the caller is itself a pool worker (of any pool) — so a
 * served batch stays on the shard worker that took it, and the global
 * pool is never built from one.
 *
 * @param begin   First index (inclusive).
 * @param end     Last index (exclusive).
 * @param fn      Callable invoked as `fn(int64_t index)`.
 * @param grain   Minimum iterations per chunk before parallelizing.
 */
void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& fn,
                  std::int64_t grain = 1);

}  // namespace shredder

#endif  // SHREDDER_RUNTIME_THREAD_POOL_H
