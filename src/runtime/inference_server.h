/**
 * @file
 * Batched cloud-side inference dispatcher (one serving endpoint).
 *
 * A deployed Shredder service receives a stream of independent
 * requests, each carrying one to-be-noised intermediate activation
 * captured at the cutting point on an edge device. Running the cloud
 * half R once per request wastes the batch efficiency of the GEMM
 * kernels, so the server fuses concurrent requests into batches:
 *
 *   submit(a) ──► request queue ──► dispatcher (forms batches of up
 *   to `max_batch`, holding the door for stragglers — a fixed
 *   `batch_timeout_ms`, or an SLO-bounded adaptive window chosen per
 *   batch by a `BatchController` from the EWMA arrival rate and the
 *   queue depth when `adaptive_batching` is on)
 *   ──► thread pool (applies the endpoint's `NoisePolicy` per request,
 *   runs `SplitModel::cloud_forward` on the fused batch, scatters the
 *   logits back) ──► per-request completion callback.
 *
 * Every request travels one path: the callback `submit` /
 * `submit_quantized`. The future-returning forms are thin wrappers
 * that resolve a promise from the callback; the network front door
 * (src/net/server.h) uses the callbacks directly, so the worker that
 * finishes a batch also hands each response to its connection.
 *
 * The noise mechanism is pluggable: the server executes whatever
 * `NoisePolicy` it was built with — no noise, replay from a stored
 * collection, fresh draws from a fitted distribution, or a fixed
 * tensor (see noise_policy.h). Policies derive each request's noise
 * from `noise_seed(policy seed, request id)`, so draws touch no shared
 * RNG state and a replay with the same seed and ids reproduces the
 * exact per-request noise assignment regardless of batch composition
 * or thread timing. `PrivacyMeter::measure_policy` measures through
 * the same policy objects, so the measured mechanism is bit-for-bit
 * the served one.
 *
 * Layer execution is stateless (`nn::ExecutionContext`): weights are
 * shared read-only and every in-flight batch runs `cloud_forward`
 * against its own pooled context, so up to `max_concurrent_batches`
 * cloud forwards proceed *simultaneously* on one set of parameters —
 * no per-forward model mutex, no model replication. Several servers
 * (or a live noise trainer) may even share one `SplitModel`, each
 * bringing their own contexts. A server runs its batches on a
 * `ThreadPool` its caller owns, and several servers may share one —
 * how `ServingEngine` hosts many endpoints on one shard's workers.
 *
 * Malformed or post-shutdown submits fail their own future with a
 * typed `ServingError` (see serving_error.h); the server itself never
 * dies for a bad request.
 *
 * Latency/throughput accounting uses `Stopwatch`: per-batch queue and
 * execution latency plus aggregate requests/sec are available from
 * `stats()` at any time.
 */
#ifndef SHREDDER_RUNTIME_INFERENCE_SERVER_H
#define SHREDDER_RUNTIME_INFERENCE_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/admission.h"
#include "src/runtime/batch_controller.h"
#include "src/nn/execution_context.h"
#include "src/runtime/noise_policy.h"
#include "src/runtime/serving_error.h"
#include "src/runtime/stopwatch.h"
#include "src/runtime/thread_pool.h"
#include "src/split/split_model.h"
#include "src/tensor/gemm.h"
#include "src/tensor/quantize.h"
#include "src/tensor/rng.h"
#include "src/tensor/tensor.h"

namespace shredder {
namespace runtime {

/**
 * How one request ends. On success `error` is null and `output` holds
 * the sample's logits (rank 1); on failure `error` is the typed reason
 * and `output` is empty. Called exactly once per submit: on the
 * submitting thread when the request is rejected up front (shape,
 * shutdown, admission), otherwise on the pool worker that ran its
 * batch. It must not throw, and should be quick — later requests of
 * the same batch wait for it.
 */
using Completion =
    std::function<void(Tensor output, const ServingError* error)>;

/**
 * A promise-backed `Completion` and the future it resolves: the
 * future-returning submits are exactly this plus the callback submit.
 */
struct PromisedCompletion
{
    std::future<Tensor> future;
    Completion done;
};

/** Build a `PromisedCompletion` (a fresh promise and its future). */
PromisedCompletion promised_completion();

/**
 * Per-endpoint serving knobs: everything one `InferenceServer` reads,
 * plus the two the `ServingEngine` resolves around it (`wire_dtype`,
 * `shard`). The manifest keys of docs/DEPLOYMENT.md map onto these
 * fields one to one.
 */
struct EndpointConfig
{
    /** Max requests fused into one cloud forward. */
    std::int64_t max_batch = 8;
    /**
     * How long the dispatcher waits for stragglers once it holds at
     * least one request and fewer than `max_batch`. 0 = ship
     * immediately (latency-optimal, throughput-pessimal). Ignored
     * when `adaptive_batching` is on — the controller picks the
     * window per batch instead.
     */
    double batch_timeout_ms = 1.0;
    /**
     * SLO-aware adaptive straggler window: replace the fixed
     * `batch_timeout_ms` with a per-batch deadline computed by a
     * `BatchController` from the EWMA arrival rate and the queue
     * depth, bounded by `slo_ms` (see batch_controller.h). The
     * controller's live decisions are visible in `ServerStats`.
     */
    bool adaptive_batching = false;
    /** Adaptive mode: queue-delay budget (ms) the batcher may add. */
    double slo_ms = 5.0;
    /** Adaptive mode: EWMA weight of the newest inter-arrival gap. */
    double ewma_alpha = 0.2;
    /**
     * Cloud forwards allowed in flight at once — the size of the
     * server's `ExecutionContext` pool. 0 = one per worker thread of
     * the pool it runs on. Values above the worker count buy nothing
     * (a context without a thread is idle); values below it throttle
     * the pool.
     */
    std::int64_t max_concurrent_batches = 0;
    /**
     * Per-sample activation shape at the cut (rank 1–3). When set
     * (rank > 0) it fixes the server's shape contract at
     * construction. When unset, the contract comes from the policy's
     * `noise_shape()`, or — with neither — is adopted from the first
     * submitted request, which the server cannot validate against
     * the model: production deployments should pin it here or serve
     * with a shaped policy. Bundle-backed endpoints pin it from the
     * bundle.
     */
    Shape sample_shape{};
    /**
     * Transport dtype clients of this endpoint are expected to use
     * (`WireDtype::kI8` → 4× fewer activation bytes on the wire).
     * Unset defers to the bundle's `wire_dtype` hint (cold-start
     * endpoints) or fp32. Advisory and read by the engine only: the
     * endpoint still accepts any dtype via `submit_quantized`; this
     * value drives tooling (shredder_serve's table, the TCP server's
     * expectations).
     */
    std::optional<WireDtype> wire_dtype{};
    /**
     * Feed int8 wire activations straight into an int8 GEMM for the
     * first cloud layer (dequant fused into the epilogue, the
     * policy's additive noise fused into the packing pass) instead of
     * dequantizing to fp32 first. Engaged per batch only when every
     * precondition holds — the layer at the cut is `nn::Linear`
     * (optionally behind a `Flatten`), the policy is additive, the
     * sample shape was pinned at construction, and every request in
     * the batch arrived int8-quantized; anything else silently takes
     * the dequantize→fp32 path, so the knob is always safe to set.
     * Unset defers to the bundle's hint (cold-start endpoints) or
     * false. `ServerStats::int8_direct_batches` shows whether it
     * engaged.
     */
    std::optional<bool> int8_compute{};
    /**
     * Pool shard this endpoint executes on: a shard name ("shard1")
     * or bare index ("1"). Empty = round-robin over the engine's
     * shards at registration. An unknown shard throws `kBadBundle`
     * from registration (it is a deployment-config error). Read by
     * the engine only.
     */
    std::string shard{};
    /**
     * Token-bucket admission rate in requests/second; 0 disables.
     * Over-limit submits fail their own future with `kRateLimited`
     * (typed backpressure) — queued and in-flight work is never
     * affected. See admission.h for the bucket semantics.
     */
    double rate_limit_qps = 0.0;
    /**
     * Token-bucket capacity; <= 0 defaults to one second of allowance
     * (`max(1, rate_limit_qps)`). Read only when `rate_limit_qps` is
     * set.
     */
    double rate_limit_burst = 0.0;
    /**
     * Cap on requests admitted but not yet answered (queued plus
     * executing); 0 disables. Submits over the cap fail with
     * `kAdmissionReject`. Distinct from the rate limit: this bounds
     * standing queue depth, the bucket bounds arrival rate.
     */
    std::int64_t max_in_flight = 0;
};

/** Aggregate serving statistics (see `InferenceServer::stats`). */
struct ServerStats
{
    /**
     * Queue-wait histogram bucket count. Bucket `i` counts requests
     * whose queue wait was ≤ 2^i µs (so bucket 0 is ≤ 1 µs, bucket 10
     * ≈ 1 ms, bucket 20 ≈ 1 s); the last bucket absorbs overflow.
     * Mean queue wait hides the tail the batcher inflicts — the
     * histogram is what `queue_wait_percentile_ms` and the open-loop
     * bench read p95/p99 from.
     */
    static constexpr int kQueueWaitBuckets = 28;

    std::int64_t requests = 0;       ///< Requests completed.
    std::int64_t batches = 0;        ///< Batches executed.
    double busy_ms = 0.0;            ///< Σ per-batch execution time.
    double queue_ms = 0.0;           ///< Σ per-request queue wait.
    double wall_seconds = 0.0;       ///< Server lifetime so far.
    std::int64_t max_batch_seen = 0; ///< Largest batch executed.

    /** Per-request queue waits, log-bucketed (see kQueueWaitBuckets). */
    std::int64_t queue_wait_hist[kQueueWaitBuckets] = {};

    // Batch-controller observability (meaningful under
    // `adaptive_batching`; the fixed-timeout dispatcher still counts
    // full vs timer dispatches).
    double ewma_interarrival_ms = 0.0; ///< Arrival EWMA at last dispatch.
    double last_deadline_ms = 0.0;     ///< Straggler window last chosen.
    std::int64_t full_dispatches = 0;  ///< Batches shipped at max_batch.
    /** Requests that arrived in quantized wire encoding. */
    std::int64_t quantized_requests = 0;
    /** Batches served by the int8 direct-consume GEMM path. */
    std::int64_t int8_direct_batches = 0;
    /** Submits rejected by the token-bucket rate limit. */
    std::int64_t rate_limited = 0;
    /** Submits rejected by the in-flight cap. */
    std::int64_t admission_rejected = 0;
    /** Gauge: requests admitted but not yet answered, at snapshot. */
    std::int64_t in_flight = 0;
    /**
     * Batches shipped below the ceiling — the straggler window ran out
     * (including a zero-width "ship now" decision) or shutdown drained
     * the queue. Together with `full_dispatches` this partitions all
     * dispatches.
     */
    std::int64_t deadline_dispatches = 0;

    /** Mean requests fused per batch. */
    double mean_batch_size() const
    {
        return batches > 0
                   ? static_cast<double>(requests) /
                         static_cast<double>(batches)
                   : 0.0;
    }

    /** Mean execution latency of one batch, ms. */
    double mean_batch_latency_ms() const
    {
        return batches > 0 ? busy_ms / static_cast<double>(batches) : 0.0;
    }

    /** Mean queue wait of one request, ms. */
    double mean_queue_wait_ms() const
    {
        return requests > 0 ? queue_ms / static_cast<double>(requests)
                            : 0.0;
    }

    /** Completed requests per wall-clock second. */
    double requests_per_sec() const
    {
        return wall_seconds > 0.0
                   ? static_cast<double>(requests) / wall_seconds
                   : 0.0;
    }

    /**
     * Queue-wait percentile (ms) read from the histogram: the upper
     * bound of the bucket where the cumulative count crosses `p` ∈
     * [0, 1] — conservative (an over-estimate by at most one bucket
     * width). 0 when no requests completed yet.
     */
    double queue_wait_percentile_ms(double p) const;

    /** Fold another snapshot's histogram into this one. */
    void merge_queue_wait_hist(const ServerStats& other)
    {
        for (int i = 0; i < kQueueWaitBuckets; ++i) {
            queue_wait_hist[i] += other.queue_wait_hist[i];
        }
    }

    /** The histogram bucket a queue wait of `ms` falls into. */
    static int queue_wait_bucket(double ms);
};

/** See file comment. */
class InferenceServer
{
  public:
    /**
     * Serve `model`'s cloud half under `policy`.
     *
     * @param model   Split view of the frozen network; the server runs
     *                its cloud half (read-only — the model may be
     *                shared with other servers or measurement code).
     *                Must outlive the server.
     * @param policy  Noise mechanism applied to every request before
     *                the cloud forward (borrowed; must outlive the
     *                server — `ServingEngine` keeps its policies on
     *                shared_ptr for exactly this reason).
     * @param config  Serving knobs (`wire_dtype` and `shard` are the
     *                engine's and unread here).
     * @param pool    Workers that execute the batches (borrowed; must
     *                outlive the server, and may be shared with other
     *                servers).
     */
    InferenceServer(split::SplitModel& model, const NoisePolicy& policy,
                    const EndpointConfig& config, ThreadPool& pool);

    /** Drains outstanding requests, then stops the workers. */
    ~InferenceServer();

    InferenceServer(const InferenceServer&) = delete;
    InferenceServer& operator=(const InferenceServer&) = delete;

    /**
     * Enqueue one request with an auto-assigned id
     * (`kAutoIdBase + n` for the n-th auto submit, so
     * single-threaded submission is replayable and never collides
     * with explicit ids).
     *
     * @param activation One sample's activation at the cutting point —
     *                   any shape whose element count matches the
     *                   cut's per-sample activation size.
     * @return Future resolving to that sample's logits (rank-1).
     *         Resolves to a `ServingError` (`kInvalidShape` for a
     *         malformed request, `kShutdown` for a submit after
     *         `shutdown` began). Requests accepted before shutdown
     *         are always served: `shutdown` drains the queue.
     */
    std::future<Tensor> submit(Tensor activation);

    /**
     * Enqueue one request under a caller-chosen id. The id only
     * selects the request's noise draw (`noise_seed(seed, id)`),
     * making the assignment independent of submission interleaving —
     * multi-threaded clients that pass stable ids get bit-identical
     * noise on every replay. Reusing an id reuses its draw, so keep
     * ids unique and below `kAutoIdBase` (auto-assigned ids live in
     * the upper half-space, so the two schemes never share a draw).
     */
    std::future<Tensor> submit(Tensor activation, std::uint64_t request_id);

    /**
     * Enqueue one request whose activation arrived in wire encoding
     * (src/tensor/quantize.h) — the path the network front door takes
     * for `wire_dtype=int8|int16` endpoints. Semantically equivalent
     * to dequantizing on the edge of the server and calling `submit`:
     * the endpoint's noise policy still applies per request id. When
     * the server was built with `int8_compute` and the batch
     * qualifies, the int8 payload feeds the first cloud layer's GEMM
     * directly instead.
     *
     * A kF32-encoded tensor is accepted (decoded to the fp32 path); a
     * payload whose byte count disagrees with shape × dtype fails the
     * future with `kInvalidShape`.
     */
    std::future<Tensor> submit_quantized(QuantizedTensor activation,
                                         std::uint64_t request_id);

    /**
     * The callback form of `submit(activation, request_id)` — the one
     * request path every other submit wraps. `done` runs exactly once
     * (see `Completion`); rejections reach it before this returns.
     */
    void submit(Tensor activation, std::uint64_t request_id,
                Completion done);

    /** The callback form of `submit_quantized` (see `submit` above). */
    void submit_quantized(QuantizedTensor activation,
                          std::uint64_t request_id, Completion done);

    /** Blocking convenience wrapper around `submit`. */
    Tensor infer(const Tensor& activation);

    /**
     * Stop accepting new requests, serve everything already queued,
     * and wait for the last batch to finish. Idempotent; called by
     * the destructor. Never blocks on other servers sharing the pool:
     * completion is tracked per server, not via pool idleness.
     */
    void shutdown();

    /** True until `shutdown` begins. */
    bool running() const;

    /** Snapshot of the aggregate counters. */
    ServerStats stats() const;

    /** The noise mechanism this server executes. */
    const NoisePolicy& policy() const { return policy_; }

    /**
     * Per-sample activation shape the server expects (no batch dim).
     * Rank 0 until fixed — by the policy's noise shape at
     * construction, or by the first submitted request otherwise.
     */
    Shape sample_shape() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return sample_shape_;
    }

    /** Contexts available for concurrent cloud forwards. */
    std::int64_t max_concurrent_batches() const
    {
        return static_cast<std::int64_t>(contexts_.size());
    }

    /**
     * Auto-assigned request ids are `kAutoIdBase + n` for the n-th
     * auto submit, keeping them disjoint from well-behaved explicit
     * ids (callers should stay below this base): two distinct
     * requests must never silently share a noise draw.
     */
    static constexpr std::uint64_t kAutoIdBase = 1ULL << 63;

  private:
    struct Request
    {
        Tensor activation;         ///< Set when !is_quantized.
        QuantizedTensor quantized; ///< Set when is_quantized.
        bool is_quantized = false;
        Completion done;       ///< Receives the logits or the failure.
        std::uint64_t id = 0;  ///< Selects the noise draw.
        Stopwatch queued;      ///< Started at submit time.
    };

    /** Shared fp32 submit path; has_id=false auto-assigns the id. */
    void submit_impl(Tensor activation, bool has_id,
                     std::uint64_t request_id, Completion done);

    /**
     * Validate + enqueue a built request (its `done` is set).
     * `shape`/`numel` describe the incoming activation in either
     * encoding. Wakes the dispatcher only when its wait can end: the
     * queue became non-empty or reached `max_batch`.
     */
    void enqueue(Request request, const Shape& shape, std::int64_t numel,
                 bool has_id, std::uint64_t request_id);

    /**
     * Inspect the cloud half at construction: under `int8_compute`,
     * when the cut lands on `nn::Linear` (optionally behind a
     * `Flatten`) and the policy is additive, snapshot the layer's
     * int8 weights and record where the tail forward resumes
     * (`int8_ready_`). Leaves the flag false when the topology or
     * policy disqualifies the path; fp32 batches never take it.
     */
    void prepare_direct_path();

    /** The int8 direct-consume batch body (see execute_batch). */
    Tensor forward_batch_int8(const std::vector<Request>& batch,
                              std::int64_t n);

    /** Dispatcher loop: form batches, hand them to the pool. */
    void dispatch_loop();

    /** Execute one formed batch on a pool worker. */
    void execute_batch(std::vector<Request> batch);

    /** Block until a pooled context is free, then take it. */
    nn::ExecutionContext* acquire_context();

    /** Return a context taken with `acquire_context`. */
    void release_context(nn::ExecutionContext* ctx);

    split::SplitModel& model_;
    const NoisePolicy& policy_;  ///< The mechanism (borrowed).
    EndpointConfig config_;
    Shape sample_shape_;        ///< Per-sample activation shape.
    std::int64_t sample_size_;  ///< Elements per activation.

    // The int8 direct path (prepare_direct_path; immutable after
    // construction, so batch workers read it lock-free).
    bool int8_ready_ = false;
    std::int64_t tail_begin_ = 0;      ///< First layer after the GEMM.
    std::int64_t direct_out_features_ = 0;  ///< Linear's out width.
    S8Weights s8_weights_;
    const float* direct_bias_ = nullptr;  ///< Linear's bias (or null).

    ThreadPool& pool_;  ///< Executes the batches (borrowed).
    std::thread dispatcher_;
    std::mutex shutdown_mutex_;  ///< join() must run exactly once.

    /**
     * Guards queue_, accepting_, ids, the lazily-fixed shape, and the
     * adaptive controller (arrival updates happen on the submit path,
     * deadline reads on the dispatcher — both already hold this).
     */
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Request> queue_;
    bool accepting_ = true;
    bool stop_dispatcher_ = false;
    std::uint64_t next_request_id_ = 0;
    BatchController controller_;
    /** Admission token bucket; mutated under `mutex_` (clock-free). */
    TokenBucket bucket_;
    /**
     * Gauge of requests admitted but not yet answered. Incremented
     * under `mutex_` on the submit path (so cap checks serialize with
     * each other); decremented on batch workers just before each
     * completion runs — atomic so the decrement needs no queue lock.
     * A momentarily stale read can only under-admit, never over-admit.
     */
    std::atomic<std::int64_t> in_flight_requests_{0};

    /**
     * Batches handed to the pool but not yet finished. Shutdown waits
     * on THIS count (not pool idleness), so a server sharing a pool
     * with busy siblings still shuts down as soon as its own work is
     * done.
     */
    std::int64_t inflight_batches_ = 0;
    std::mutex inflight_mutex_;
    std::condition_variable inflight_cv_;

    /**
     * Pool of per-batch execution contexts — the whole concurrency
     * story: each in-flight batch owns one while it runs, weights are
     * never written, so no model mutex exists anywhere.
     */
    std::vector<std::unique_ptr<nn::ExecutionContext>> contexts_;
    std::vector<nn::ExecutionContext*> free_contexts_;
    std::mutex ctx_mutex_;
    std::condition_variable ctx_cv_;

    mutable std::mutex stats_mutex_;
    ServerStats stats_;
    Stopwatch lifetime_;
};

}  // namespace runtime
}  // namespace shredder

#endif  // SHREDDER_RUNTIME_INFERENCE_SERVER_H
