/**
 * @file
 * Implementation of the batched inference server (see header).
 */
#include "src/runtime/inference_server.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "src/nn/flatten.h"
#include "src/nn/linear.h"
#include "src/runtime/logging.h"

namespace shredder {
namespace runtime {

namespace {

/** Prepend a batch dimension to a per-sample shape. */
Shape
batched_shape(const Shape& sample, std::int64_t n)
{
    switch (sample.rank()) {
      case 1: return Shape({n, sample[0]});
      case 2: return Shape({n, sample[0], sample[1]});
      case 3: return Shape({n, sample[0], sample[1], sample[2]});
      default:
        SHREDDER_PANIC("cannot batch per-sample activation of rank ",
                       sample.rank());
    }
}

}  // namespace

PromisedCompletion
promised_completion()
{
    auto promise = std::make_shared<std::promise<Tensor>>();
    PromisedCompletion result;
    result.future = promise->get_future();
    result.done = [promise](Tensor output, const ServingError* error) {
        if (error != nullptr) {
            promise->set_exception(std::make_exception_ptr(*error));
        } else {
            promise->set_value(std::move(output));
        }
    };
    return result;
}

int
ServerStats::queue_wait_bucket(double ms)
{
    // Bucket i covers waits ≤ 2^i µs; the last bucket absorbs the
    // rest. A linear scan beats a log() call at these sizes and runs
    // off the hot path anyway (once per request, under stats_mutex_).
    double upper_us = 1.0;
    for (int i = 0; i < kQueueWaitBuckets - 1; ++i) {
        if (ms * 1e3 <= upper_us) {
            return i;
        }
        upper_us *= 2.0;
    }
    return kQueueWaitBuckets - 1;
}

double
ServerStats::queue_wait_percentile_ms(double p) const
{
    std::int64_t total = 0;
    for (const std::int64_t count : queue_wait_hist) {
        total += count;
    }
    if (total == 0) {
        return 0.0;
    }
    const double target = p * static_cast<double>(total);
    std::int64_t cumulative = 0;
    double upper_us = 1.0;
    for (int i = 0; i < kQueueWaitBuckets; ++i) {
        cumulative += queue_wait_hist[i];
        if (static_cast<double>(cumulative) >= target) {
            return upper_us * 1e-3;
        }
        upper_us *= 2.0;
    }
    return upper_us * 1e-3;
}

InferenceServer::InferenceServer(split::SplitModel& model,
                                 const NoisePolicy& policy,
                                 const EndpointConfig& config,
                                 ThreadPool& pool)
    : model_(model),
      policy_(policy),
      config_(config),
      sample_size_(0),
      pool_(pool),
      controller_(BatchControllerConfig{config.slo_ms, config.ewma_alpha}),
      bucket_(config.rate_limit_qps, config.rate_limit_burst)
{
    SHREDDER_REQUIRE(config_.max_batch >= 1,
                     "max_batch must be positive, got ",
                     config_.max_batch);
    SHREDDER_REQUIRE(config_.max_concurrent_batches >= 0,
                     "max_concurrent_batches must be >= 0, got ",
                     config_.max_concurrent_batches);
    SHREDDER_REQUIRE(config_.max_in_flight >= 0,
                     "max_in_flight must be >= 0, got ",
                     config_.max_in_flight);
    SHREDDER_REQUIRE(config_.rate_limit_qps >= 0.0,
                     "rate_limit_qps must be >= 0, got ",
                     config_.rate_limit_qps);
    const Shape policy_shape = policy_.noise_shape();
    if (config_.sample_shape.rank() > 0) {
        sample_shape_ = config_.sample_shape;
    } else if (policy_shape.rank() > 0) {
        sample_shape_ = policy_shape;
    }
    if (sample_shape_.rank() > 0) {
        // Setup-time user error: a contract that cannot grow a batch
        // dimension would otherwise abort on a pool worker later.
        SHREDDER_REQUIRE(sample_shape_.rank() <= 3,
                         "per-sample activation shape must have rank "
                         "1-3, got ", sample_shape_.to_string());
        sample_size_ = sample_shape_.numel();
        if (policy_shape.rank() > 0) {
            SHREDDER_REQUIRE(
                policy_shape.numel() == sample_size_,
                "policy noise (", policy_shape.to_string(),
                ") does not match the configured per-sample shape ",
                sample_shape_.to_string());
        }
    }

    // One execution context per concurrent batch: the contexts, not
    // the model, carry all per-forward state.
    const std::int64_t n_ctx =
        config_.max_concurrent_batches > 0
            ? config_.max_concurrent_batches
            : static_cast<std::int64_t>(pool_.size());
    contexts_.reserve(static_cast<std::size_t>(n_ctx));
    free_contexts_.reserve(static_cast<std::size_t>(n_ctx));
    for (std::int64_t i = 0; i < n_ctx; ++i) {
        contexts_.push_back(std::make_unique<nn::ExecutionContext>());
        // Serving never back-propagates: skip the per-layer activation
        // caches (one full tensor copy per layer per batch otherwise).
        contexts_.back()->set_retain_activations(false);
        free_contexts_.push_back(contexts_.back().get());
    }

    prepare_direct_path();

    dispatcher_ = std::thread([this] { dispatch_loop(); });
}

void
InferenceServer::prepare_direct_path()
{
    // All preconditions are structural and known at construction; a
    // batch additionally requires every request to arrive int8.
    if (!config_.int8_compute.value_or(false) || !policy_.additive() ||
        sample_size_ == 0) {
        return;
    }
    nn::Sequential& net = model_.network();
    std::int64_t idx = model_.cut();
    if (idx < net.size() &&
        dynamic_cast<nn::Flatten*>(&net.layer(idx)) != nullptr) {
        ++idx;
    }
    if (idx >= net.size()) {
        return;
    }
    auto* linear = dynamic_cast<nn::Linear*>(&net.layer(idx));
    if (linear == nullptr || linear->in_features() != sample_size_ ||
        linear->in_features() > kS8MaxK) {
        return;
    }
    direct_bias_ =
        linear->has_bias() ? linear->bias().value.data() : nullptr;
    direct_out_features_ = linear->out_features();
    tail_begin_ = idx + 1;
    s8_weights_ = prepare_s8_weights(linear->weight().value.data(),
                                     linear->out_features(),
                                     linear->in_features());
    int8_ready_ = true;
}

InferenceServer::~InferenceServer() { shutdown(); }

std::future<Tensor>
InferenceServer::submit(Tensor activation)
{
    PromisedCompletion promised = promised_completion();
    submit_impl(std::move(activation), /*has_id=*/false, 0,
                std::move(promised.done));
    return std::move(promised.future);
}

std::future<Tensor>
InferenceServer::submit(Tensor activation, std::uint64_t request_id)
{
    PromisedCompletion promised = promised_completion();
    submit(std::move(activation), request_id, std::move(promised.done));
    return std::move(promised.future);
}

std::future<Tensor>
InferenceServer::submit_quantized(QuantizedTensor activation,
                                  std::uint64_t request_id)
{
    PromisedCompletion promised = promised_completion();
    submit_quantized(std::move(activation), request_id,
                     std::move(promised.done));
    return std::move(promised.future);
}

void
InferenceServer::submit(Tensor activation, std::uint64_t request_id,
                        Completion done)
{
    submit_impl(std::move(activation), /*has_id=*/true, request_id,
                std::move(done));
}

void
InferenceServer::submit_impl(Tensor activation, bool has_id,
                             std::uint64_t request_id, Completion done)
{
    Request request;
    const Shape shape = activation.shape();
    const std::int64_t numel = activation.size();
    request.activation = std::move(activation);
    request.done = std::move(done);
    enqueue(std::move(request), shape, numel, has_id, request_id);
}

void
InferenceServer::submit_quantized(QuantizedTensor activation,
                                  std::uint64_t request_id, Completion done)
{
    if (static_cast<std::int64_t>(activation.data.size()) !=
        activation.size() * dtype_bytes(activation.dtype)) {
        const ServingError error(
            ServingErrorCode::kInvalidShape,
            "quantized payload byte count does not match shape " +
                activation.shape.to_string() + " of " +
                to_string(activation.dtype));
        done(Tensor(), &error);
        return;
    }
    if (activation.dtype == WireDtype::kF32) {
        // A kF32 wire tensor IS the fp32 activation — serve it on the
        // plain path (dequantize is a straight copy here).
        submit_impl(dequantize(activation), /*has_id=*/true, request_id,
                    std::move(done));
        return;
    }
    Request request;
    const Shape shape = activation.shape;
    const std::int64_t numel = activation.size();
    request.quantized = std::move(activation);
    request.is_quantized = true;
    request.done = std::move(done);
    enqueue(std::move(request), shape, numel, /*has_id=*/true, request_id);
}

void
InferenceServer::enqueue(Request request, const Shape& shape,
                         std::int64_t numel, bool has_id,
                         std::uint64_t request_id)
{
    // A bad request must fail its own completion, never the server:
    // other clients' in-flight work stays alive. Rejections run the
    // callback outside every lock.
    const auto reject = [&request](ServingErrorCode code,
                                   const std::string& why) {
        const ServingError error(code, why);
        request.done(Tensor(), &error);
    };

    std::unique_lock<std::mutex> lock(mutex_);
    if (!accepting_) {
        lock.unlock();
        reject(ServingErrorCode::kShutdown, "submit after shutdown");
        return;
    }
    if (sample_size_ == 0) {
        // No policy/config shape to dictate the contract: adopt the
        // first request's shape. Only rank 1–3 can grow a batch
        // dimension (Shape::kMaxRank is 4).
        if (shape.rank() < 1 || shape.rank() > 3) {
            lock.unlock();
            reject(ServingErrorCode::kInvalidShape,
                   "per-sample activation must have rank 1-3, got " +
                       shape.to_string());
            return;
        }
        sample_shape_ = shape;
        sample_size_ = numel;
    }
    if (numel != sample_size_) {
        const std::int64_t expected = sample_size_;
        lock.unlock();
        reject(ServingErrorCode::kInvalidShape,
               "activation size " + std::to_string(numel) +
                   " does not match the cut's per-sample size " +
                   std::to_string(expected));
        return;
    }

    // Admission control, still under mutex_ so checks serialize with
    // other submits. The cap check precedes the bucket so a
    // cap-rejected request does not also burn a token. Rejections are
    // typed backpressure through the request's own completion —
    // queued and executing work is never affected.
    if (config_.max_in_flight > 0 &&
        in_flight_requests_.load(std::memory_order_relaxed) >=
            config_.max_in_flight) {
        {
            std::lock_guard<std::mutex> stats_lock(stats_mutex_);
            ++stats_.admission_rejected;
        }
        lock.unlock();
        reject(ServingErrorCode::kAdmissionReject,
               "endpoint at max_in_flight=" +
                   std::to_string(config_.max_in_flight));
        return;
    }
    if (bucket_.enabled() && !bucket_.try_take(lifetime_.milliseconds())) {
        {
            std::lock_guard<std::mutex> stats_lock(stats_mutex_);
            ++stats_.rate_limited;
        }
        lock.unlock();
        reject(ServingErrorCode::kRateLimited,
               "endpoint rate limit " +
                   std::to_string(config_.rate_limit_qps) +
                   " qps exceeded");
        return;
    }
    in_flight_requests_.fetch_add(1, std::memory_order_relaxed);

    request.id = has_id ? request_id : kAutoIdBase + next_request_id_++;
    queue_.push_back(std::move(request));
    const auto depth = static_cast<std::int64_t>(queue_.size());
    // Feed the arrival-rate EWMA (cheap; kept current even under the
    // fixed-timeout dispatcher so stats always show the traffic rate).
    controller_.on_arrival(lifetime_.milliseconds());
    lock.unlock();
    // The dispatcher sleeps for exactly two things: a first request,
    // and — inside a straggler window — a full batch. No other depth
    // can end its wait, so those arrivals skip the wakeup and the
    // context switch it costs.
    if (depth == 1 || depth == config_.max_batch) {
        cv_.notify_one();
    }
}

Tensor
InferenceServer::infer(const Tensor& activation)
{
    return submit(activation).get();
}

bool
InferenceServer::running() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return accepting_;
}

void
InferenceServer::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        accepting_ = false;
        stop_dispatcher_ = true;
    }
    cv_.notify_all();
    {
        // Serialize concurrent shutdown callers (e.g. an explicit
        // shutdown racing the destructor): join() may run only once.
        std::lock_guard<std::mutex> lock(shutdown_mutex_);
        if (dispatcher_.joinable()) {
            dispatcher_.join();
        }
    }
    // The dispatcher is gone, so inflight_batches_ only decreases now.
    // Waiting on OUR counter (instead of pool_.wait_idle()) keeps a
    // shared-pool shutdown from blocking on sibling servers' traffic.
    std::unique_lock<std::mutex> lock(inflight_mutex_);
    inflight_cv_.wait(lock, [this] { return inflight_batches_ == 0; });
}

ServerStats
InferenceServer::stats() const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ServerStats snapshot = stats_;
    snapshot.wall_seconds = lifetime_.seconds();
    snapshot.in_flight =
        in_flight_requests_.load(std::memory_order_relaxed);
    return snapshot;
}

void
InferenceServer::dispatch_loop()
{
    for (;;) {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] {
            return !queue_.empty() || stop_dispatcher_;
        });
        if (queue_.empty()) {
            // stop_dispatcher_ is set and everything is drained.
            return;
        }
        // Hold the door for stragglers so batches fill up — unless we
        // are draining for shutdown, where latency wins. The window is
        // the fixed config knob, or (adaptive mode) the controller's
        // per-batch decision: predicted fill time under the current
        // arrival rate, bounded by the SLO, zero when traffic is too
        // sparse for waiting to pay.
        double window_ms = config_.batch_timeout_ms;
        if (config_.adaptive_batching) {
            window_ms = controller_.deadline_ms(
                static_cast<std::int64_t>(queue_.size()),
                config_.max_batch);
        }
        if (static_cast<std::int64_t>(queue_.size()) < config_.max_batch &&
            window_ms > 0.0 && !stop_dispatcher_) {
            const auto timeout =
                std::chrono::duration<double, std::milli>(window_ms);
            const auto deadline = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::
                                               duration>(timeout);
            cv_.wait_until(lock, deadline, [this] {
                return static_cast<std::int64_t>(queue_.size()) >=
                           config_.max_batch ||
                       stop_dispatcher_;
            });
        }
        const double ewma_snapshot = controller_.ewma_interarrival_ms();
        const std::int64_t n = std::min<std::int64_t>(
            static_cast<std::int64_t>(queue_.size()), config_.max_batch);
        std::vector<Request> batch;
        batch.reserve(static_cast<std::size_t>(n));
        for (std::int64_t i = 0; i < n; ++i) {
            batch.push_back(std::move(queue_.front()));
            queue_.pop_front();
        }
        lock.unlock();

        // Expose the scheduling decision (window chosen, rate estimate,
        // why the batch shipped) so benches and tests can see the
        // controller act without instrumenting the dispatcher.
        {
            std::lock_guard<std::mutex> stats_lock(stats_mutex_);
            stats_.last_deadline_ms = window_ms;
            stats_.ewma_interarrival_ms = ewma_snapshot;
            // The two counters partition all dispatches: a batch ships
            // either at the ceiling or because its window ran out
            // (including a zero-width "ship now" window).
            if (n >= config_.max_batch) {
                ++stats_.full_dispatches;
            } else {
                ++stats_.deadline_dispatches;
            }
        }

        {
            std::lock_guard<std::mutex> inflight_lock(inflight_mutex_);
            ++inflight_batches_;
        }
        // shared_ptr because std::function requires copyable closures.
        auto shared =
            std::make_shared<std::vector<Request>>(std::move(batch));
        pool_.submit([this, shared]() mutable {
            execute_batch(std::move(*shared));
            // Notify UNDER the mutex: a shutdown() waiter may destroy
            // this server the moment the predicate holds, so the
            // worker must be done touching the cv before the waiter
            // can observe inflight_batches_ == 0.
            std::lock_guard<std::mutex> inflight_lock(inflight_mutex_);
            --inflight_batches_;
            inflight_cv_.notify_all();
        });
    }
}

nn::ExecutionContext*
InferenceServer::acquire_context()
{
    std::unique_lock<std::mutex> lock(ctx_mutex_);
    ctx_cv_.wait(lock, [this] { return !free_contexts_.empty(); });
    nn::ExecutionContext* ctx = free_contexts_.back();
    free_contexts_.pop_back();
    return ctx;
}

void
InferenceServer::release_context(nn::ExecutionContext* ctx)
{
    {
        std::lock_guard<std::mutex> lock(ctx_mutex_);
        free_contexts_.push_back(ctx);
    }
    ctx_cv_.notify_one();
}

void
InferenceServer::execute_batch(std::vector<Request> batch)
{
    const auto n = static_cast<std::int64_t>(batch.size());
    if (n == 0) {
        return;
    }
    double queue_wait_ms = 0.0;
    std::vector<int> wait_buckets;
    wait_buckets.reserve(batch.size());
    for (const Request& request : batch) {
        const double wait_ms = request.queued.milliseconds();
        queue_wait_ms += wait_ms;
        wait_buckets.push_back(ServerStats::queue_wait_bucket(wait_ms));
    }

    Stopwatch execution;
    std::int64_t quantized_count = 0;
    bool direct = int8_ready_;
    for (const Request& request : batch) {
        quantized_count += request.is_quantized ? 1 : 0;
        direct = direct && request.is_quantized &&
                 request.quantized.dtype == WireDtype::kI8;
    }

    Tensor logits;
    if (direct) {
        logits = forward_batch_int8(batch, n);
    } else {
        Tensor fused(batched_shape(sample_shape_, n));
        for (std::int64_t i = 0; i < n; ++i) {
            float* row = fused.data() + i * sample_size_;
            const Request& request = batch[static_cast<std::size_t>(i)];
            if (request.is_quantized) {
                // Wire-encoded request on the general path: decode to
                // fp32, then run the policy exactly as for a plain
                // request — quantization distorted the activation on
                // the wire, the mechanism itself is unchanged.
                const Tensor decoded = dequantize(request.quantized);
                const float* src = decoded.data();
                std::copy(src, src + sample_size_, row);
                policy_.apply_into(decoded, request.id, row);
            } else {
                const float* src = request.activation.data();
                std::copy(src, src + sample_size_, row);
                // The policy adds request `id`'s noise in place on the
                // fused row — id-derived draws, so concurrent batches
                // sample lock-free and a replay reproduces the
                // assignment.
                policy_.apply_into(request.activation, request.id, row);
            }
        }

        // The forward runs against a pooled per-batch context: weights
        // are read-only, so batches on other workers proceed
        // concurrently.
        nn::ExecutionContext* ctx = acquire_context();
        logits = model_.cloud_forward(fused, *ctx, nn::Mode::kEval);
        release_context(ctx);
    }
    SHREDDER_CHECK(logits.shape().rank() == 2 && logits.shape()[0] == n,
                   "cloud forward returned ", logits.shape().to_string(),
                   " for a batch of ", n);

    // Account the batch BEFORE running the completions: a caller that
    // observes its answer must see its own request in stats().
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.requests += n;
        stats_.batches += 1;
        stats_.busy_ms += execution.milliseconds();
        stats_.queue_ms += queue_wait_ms;
        stats_.max_batch_seen = std::max(stats_.max_batch_seen, n);
        stats_.quantized_requests += quantized_count;
        stats_.int8_direct_batches += direct ? 1 : 0;
        for (const int bucket : wait_buckets) {
            ++stats_.queue_wait_hist[bucket];
        }
    }

    const std::int64_t classes = logits.shape()[1];
    for (std::int64_t i = 0; i < n; ++i) {
        Tensor row(Shape({classes}));
        std::copy(logits.data() + i * classes,
                  logits.data() + (i + 1) * classes, row.data());
        // Release the admission slot BEFORE the completion runs: a
        // caller holding its answer may submit again at once and must
        // not meet its own stale slot at the in-flight cap.
        in_flight_requests_.fetch_sub(1, std::memory_order_relaxed);
        batch[static_cast<std::size_t>(i)].done(std::move(row), nullptr);
    }
}

Tensor
InferenceServer::forward_batch_int8(const std::vector<Request>& batch,
                                    std::int64_t n)
{
    // The first cloud layer consumes the int8 wire payloads directly:
    // per-row pointers + affine codes feed gemm_s8, which fuses the
    // policy's additive noise into its packing pass and dequantizes in
    // the epilogue. The tail of the cloud half then runs fp32 as
    // usual.
    std::vector<const std::int8_t*> a_rows(static_cast<std::size_t>(n));
    std::vector<float> a_scale(static_cast<std::size_t>(n));
    std::vector<std::int32_t> a_zp(static_cast<std::size_t>(n));
    std::vector<const float*> a_noise(static_cast<std::size_t>(n));
    // Additive policies: apply(0, id) IS the noise row (bit-identical
    // to what apply_into would have added on the fp32 path).
    const Tensor zeros = Tensor::zeros(sample_shape_);
    std::vector<Tensor> noise_rows;
    noise_rows.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
        const Request& request = batch[static_cast<std::size_t>(i)];
        noise_rows.push_back(policy_.apply(zeros, request.id));
        a_rows[static_cast<std::size_t>(i)] = request.quantized.i8();
        a_scale[static_cast<std::size_t>(i)] = request.quantized.scale;
        a_zp[static_cast<std::size_t>(i)] = request.quantized.zero_point;
        a_noise[static_cast<std::size_t>(i)] =
            noise_rows.back().data();
    }

    Tensor first(Shape({n, direct_out_features_}));
    gemm_s8(n, direct_out_features_, sample_size_, a_rows.data(),
            a_scale.data(), a_zp.data(), a_noise.data(),
            s8_weights_.data.data(), s8_weights_.scale,
            s8_weights_.colsum.data(), direct_bias_, first.data());

    nn::ExecutionContext* ctx = acquire_context();
    Tensor logits = model_.network().forward_range(
        first, tail_begin_, -1, *ctx, nn::Mode::kEval);
    release_context(ctx);
    return logits;
}

}  // namespace runtime
}  // namespace shredder
