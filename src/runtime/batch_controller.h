/**
 * @file
 * SLO-aware adaptive batch-timeout controller.
 *
 * The dispatcher's fixed straggler window is a blunt knob: too short
 * and batches ship half-empty (throughput lost to per-batch
 * overhead), too long and every request eats the window as queue wait
 * — BENCH_server.json shows `queue_wait_ms` dominating
 * `batch_exec_ms` by 2-3 orders of magnitude at every operating
 * point. This controller replaces the constant with a decision made
 * per batch from two observables:
 *
 *  - an EWMA of request inter-arrival time (how fast is traffic
 *    coming?), updated on every enqueue, and
 *  - the current queue depth (how much of the batch is already here?).
 *
 * The dispatch deadline is the *predicted time for the remaining
 * batch slots to fill*, clamped to the configured SLO bound:
 *
 *   predicted = (max_batch − depth) × ewma_interarrival
 *   deadline  = predicted ≥ slo_ms ? 0 : min(predicted, slo_ms)
 *
 * Under bursts (tiny inter-arrival) the predicted fill time is small,
 * so the dispatcher holds the door just long enough to ship full
 * batches. Under sparse traffic (inter-arrival at or beyond the SLO)
 * waiting cannot fill the batch within budget, so the controller
 * ships immediately — latency-optimal exactly when batching cannot
 * pay. In between, the wait is capped by `slo_ms`, which is therefore
 * a hard bound on the queueing delay the batcher itself ever adds.
 *
 * The controller is deliberately clock-free: callers pass timestamps
 * in (`now_ms` from any monotonic source), so unit tests drive it
 * with a scripted fake clock and the server drives it from its
 * `Stopwatch`. It carries no locking — the inference server mutates
 * it under the same mutex that guards the request queue.
 */
#ifndef SHREDDER_RUNTIME_BATCH_CONTROLLER_H
#define SHREDDER_RUNTIME_BATCH_CONTROLLER_H

#include <cstdint>

namespace shredder {
namespace runtime {

/** Controller knobs (see file comment for the decision rule). */
struct BatchControllerConfig
{
    /**
     * Queue-delay budget (ms): the dispatch deadline never exceeds
     * this, so it bounds the latency the batcher adds to any request.
     */
    double slo_ms = 5.0;
    /**
     * EWMA weight of the newest inter-arrival observation in (0, 1].
     * Higher adapts faster but tracks noise; 1.0 means "trust only
     * the latest gap".
     */
    double ewma_alpha = 0.2;
};

/** See file comment. */
class BatchController
{
  public:
    explicit BatchController(const BatchControllerConfig& config = {});

    /**
     * Record one request arrival at `now_ms` (any monotonic
     * millisecond clock; only differences matter). Call under the
     * same lock that guards the request queue.
     */
    void on_arrival(double now_ms);

    /**
     * The straggler window (ms ≥ 0) the dispatcher should hold a
     * partial batch of `queue_depth` requests open for, given the
     * batch ceiling. Never exceeds `slo_ms`; 0 means ship now.
     */
    double deadline_ms(std::int64_t queue_depth,
                       std::int64_t max_batch) const;

    /** Current inter-arrival EWMA (ms). */
    double ewma_interarrival_ms() const { return ewma_interarrival_ms_; }

    /** Arrivals observed so far. */
    std::int64_t arrivals() const { return arrivals_; }

    /** The configuration in force. */
    const BatchControllerConfig& config() const { return config_; }

  private:
    BatchControllerConfig config_;
    double ewma_interarrival_ms_;
    double last_arrival_ms_ = 0.0;
    std::int64_t arrivals_ = 0;
};

}  // namespace runtime
}  // namespace shredder

#endif  // SHREDDER_RUNTIME_BATCH_CONTROLLER_H
