/**
 * @file
 * Deterministic tests for the SLO-aware adaptive batch controller.
 *
 * The controller is clock-free (callers pass `now_ms`), so every
 * scenario here is a scripted arrival trace on a fake clock — no
 * sleeps, no flakiness: sparse traffic must ship immediately, bursts
 * must hold the door just long enough to fill the batch, and no
 * decision may ever exceed the configured SLO bound. The adaptive
 * path through the real `InferenceServer` is exercised at the end
 * under genuine concurrency (this file carries the `contract` label,
 * so CI reruns it under TSan).
 */
#include <atomic>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/models/zoo.h"
#include "src/runtime/batch_controller.h"
#include "src/runtime/inference_server.h"
#include "src/runtime/noise_policy.h"
#include "src/runtime/thread_pool.h"
#include "src/split/split_model.h"
#include "src/tensor/tensor.h"

namespace shredder {
namespace {

using runtime::BatchController;
using runtime::BatchControllerConfig;
using runtime::ServerStats;

BatchControllerConfig
config(double slo_ms = 5.0, double alpha = 0.2)
{
    BatchControllerConfig cfg;
    cfg.slo_ms = slo_ms;
    cfg.ewma_alpha = alpha;
    return cfg;
}

/** Feed arrivals at a constant `gap_ms`, starting at `t0`. */
double
drive(BatchController& controller, double t0, double gap_ms, int n)
{
    double t = t0;
    for (int i = 0; i < n; ++i) {
        controller.on_arrival(t);
        t += gap_ms;
    }
    return t;
}

TEST(BatchController, IdleServerStartsLatencyOptimal)
{
    // Before any traffic the inter-arrival estimate defaults to the
    // SLO itself, so the very first request never waits: predicted
    // fill time (remaining × slo) ≥ slo → ship now.
    BatchController controller(config(5.0));
    EXPECT_DOUBLE_EQ(controller.ewma_interarrival_ms(), 5.0);
    EXPECT_DOUBLE_EQ(controller.deadline_ms(1, 8), 0.0);
}

TEST(BatchController, SparseArrivalsShipImmediately)
{
    // Ten requests 10 ms apart with a 5 ms SLO: the batch cannot fill
    // within budget at this rate, so waiting buys partial fill at full
    // latency cost — the deadline must collapse to zero.
    BatchController controller(config(5.0));
    drive(controller, 0.0, 10.0, 10);
    EXPECT_GT(controller.ewma_interarrival_ms(), 5.0);
    EXPECT_DOUBLE_EQ(controller.deadline_ms(1, 8), 0.0);
    EXPECT_DOUBLE_EQ(controller.deadline_ms(7, 8), 0.0);
}

TEST(BatchController, BurstHoldsTheDoorForPredictedFillTime)
{
    // A 0.1 ms-gap burst: the EWMA converges toward 0.1 ms and the
    // deadline equals the predicted fill time for the remaining slots.
    BatchController controller(config(5.0));
    drive(controller, 0.0, 0.1, 200);
    const double ewma = controller.ewma_interarrival_ms();
    EXPECT_NEAR(ewma, 0.1, 0.05);

    const double d1 = controller.deadline_ms(1, 8);
    EXPECT_NEAR(d1, 7.0 * ewma, 1e-12);
    EXPECT_GT(d1, 0.0);
}

TEST(BatchController, DeadlineShrinksAsTheBatchFills)
{
    // Same rate, deeper queue → fewer remaining slots → shorter wait;
    // a full batch waits exactly zero. This is the "grows toward
    // max_batch under bursts" behavior seen from the deadline's side.
    BatchController controller(config(5.0));
    drive(controller, 0.0, 0.1, 200);
    double previous = controller.deadline_ms(1, 8);
    for (std::int64_t depth = 2; depth < 8; ++depth) {
        const double d = controller.deadline_ms(depth, 8);
        EXPECT_LT(d, previous) << "depth " << depth;
        previous = d;
    }
    EXPECT_DOUBLE_EQ(controller.deadline_ms(8, 8), 0.0);
    EXPECT_DOUBLE_EQ(controller.deadline_ms(9, 8), 0.0);  // over-full
}

TEST(BatchController, NeverExceedsSloBound)
{
    // Sweep rates from pathological bursts to idle trickles and every
    // queue depth: no decision may exceed the SLO — it is the hard
    // ceiling on batcher-added queueing delay.
    for (const double gap : {0.0, 0.01, 0.3, 0.7, 1.0, 4.9, 5.0, 50.0}) {
        BatchController controller(config(5.0));
        drive(controller, 0.0, gap, 50);
        for (std::int64_t depth = 0; depth <= 10; ++depth) {
            const double d = controller.deadline_ms(depth, 8);
            EXPECT_GE(d, 0.0) << "gap " << gap << " depth " << depth;
            EXPECT_LE(d, 5.0) << "gap " << gap << " depth " << depth;
        }
    }
}

TEST(BatchController, EwmaTracksRateChanges)
{
    // Sparse → burst → sparse: the estimate must follow with the
    // configured inertia, and the deadline decision must flip
    // accordingly (ship-now → hold-the-door → ship-now).
    BatchController controller(config(5.0, 0.2));
    double t = drive(controller, 0.0, 10.0, 20);
    EXPECT_DOUBLE_EQ(controller.deadline_ms(1, 8), 0.0);

    t = drive(controller, t, 0.05, 100);
    EXPECT_LT(controller.ewma_interarrival_ms(), 0.5);
    EXPECT_GT(controller.deadline_ms(1, 8), 0.0);

    drive(controller, t, 20.0, 40);
    EXPECT_GT(controller.ewma_interarrival_ms(), 5.0);
    EXPECT_DOUBLE_EQ(controller.deadline_ms(1, 8), 0.0);
}

TEST(BatchController, ZeroGapsCountAsBursts)
{
    // Monotonic clocks can return identical timestamps for
    // back-to-back submits; those zero gaps are legitimate burst
    // evidence and must pull the estimate down, not divide-by-zero.
    BatchController controller(config(5.0, 0.5));
    for (int i = 0; i < 30; ++i) {
        controller.on_arrival(1.0);  // same instant, 30 times
    }
    EXPECT_LT(controller.ewma_interarrival_ms(), 1e-4);
    const double d = controller.deadline_ms(4, 8);
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1e-3);
}

TEST(BatchController, AlphaOneTrustsOnlyTheLatestGap)
{
    BatchController controller(config(5.0, 1.0));
    controller.on_arrival(0.0);
    controller.on_arrival(10.0);
    EXPECT_DOUBLE_EQ(controller.ewma_interarrival_ms(), 10.0);
    controller.on_arrival(10.5);
    EXPECT_DOUBLE_EQ(controller.ewma_interarrival_ms(), 0.5);
}

TEST(BatchController, RejectsNonsenseConfig)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    BatchControllerConfig bad_slo = config();
    bad_slo.slo_ms = -1.0;
    EXPECT_DEATH(BatchController{bad_slo}, "slo_ms");

    BatchControllerConfig bad_alpha = config();
    bad_alpha.ewma_alpha = 0.0;
    EXPECT_DEATH(BatchController{bad_alpha}, "ewma_alpha");

    BatchControllerConfig big_alpha = config();
    big_alpha.ewma_alpha = 1.5;
    EXPECT_DEATH(BatchController{big_alpha}, "ewma_alpha");
}

// -- Queue-wait histogram (the stats the controller is judged by) ---------

TEST(ServerStats, QueueWaitBucketsAreMonotoneLog2)
{
    // Bucket i covers waits ≤ 2^i µs.
    EXPECT_EQ(ServerStats::queue_wait_bucket(0.0), 0);
    EXPECT_EQ(ServerStats::queue_wait_bucket(0.001), 0);   // 1 µs
    EXPECT_EQ(ServerStats::queue_wait_bucket(0.002), 1);   // 2 µs
    EXPECT_EQ(ServerStats::queue_wait_bucket(1.0), 10);    // 1024 µs
    EXPECT_EQ(ServerStats::queue_wait_bucket(1e9),
              ServerStats::kQueueWaitBuckets - 1);  // overflow bucket
    int previous = 0;
    for (double ms = 1e-3; ms < 1e5; ms *= 3.0) {
        const int bucket = ServerStats::queue_wait_bucket(ms);
        EXPECT_GE(bucket, previous);
        previous = bucket;
    }
}

TEST(ServerStats, QueueWaitPercentileReadsBucketUpperBound)
{
    ServerStats stats;
    EXPECT_DOUBLE_EQ(stats.queue_wait_percentile_ms(0.95), 0.0);  // empty

    // 90 waits in bucket 10 (≤ 1.024 ms), 10 in bucket 12 (≤ 4.096 ms).
    stats.queue_wait_hist[10] = 90;
    stats.queue_wait_hist[12] = 10;
    EXPECT_DOUBLE_EQ(stats.queue_wait_percentile_ms(0.5), 1.024);
    EXPECT_DOUBLE_EQ(stats.queue_wait_percentile_ms(0.9), 1.024);
    EXPECT_DOUBLE_EQ(stats.queue_wait_percentile_ms(0.95), 4.096);
    EXPECT_DOUBLE_EQ(stats.queue_wait_percentile_ms(1.0), 4.096);

    ServerStats other;
    other.queue_wait_hist[12] = 5;
    stats.merge_queue_wait_hist(other);
    EXPECT_EQ(stats.queue_wait_hist[12], 15);
}

// -- The adaptive path through the real server (contract: TSan-clean) -----

TEST(BatchControllerContract, AdaptiveServerServesConcurrentTraffic)
{
    // Submits from several threads while the dispatcher consults the
    // controller per batch: every future must complete, the dispatch
    // decisions must surface in stats, and no decision may exceed the
    // SLO. Run under TSan by the contract CI job.
    Rng rng(23);
    auto net = models::make_lenet(rng);
    const std::int64_t cut = split::conv_cut_points(*net).back();
    split::SplitModel model(*net, cut);
    const Shape act = model.activation_shape(Shape({1, 28, 28}));
    const Shape per_sample({act[1], act[2], act[3]});

    runtime::EndpointConfig cfg;
    cfg.max_batch = 4;
    cfg.adaptive_batching = true;
    cfg.slo_ms = 2.0;
    ThreadPool pool(2);
    runtime::NoNoisePolicy policy;
    runtime::InferenceServer server(model, policy, cfg, pool);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 16;
    std::vector<std::thread> threads;
    std::atomic<int> completed{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng thread_rng(100 + static_cast<std::uint64_t>(t));
            for (int i = 0; i < kPerThread; ++i) {
                const Tensor a = Tensor::normal(per_sample, thread_rng);
                const Tensor logits = server.submit(a).get();
                if (logits.size() > 0) {
                    ++completed;
                }
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(completed.load(), kThreads * kPerThread);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests, kThreads * kPerThread);
    EXPECT_GE(stats.last_deadline_ms, 0.0);
    EXPECT_LE(stats.last_deadline_ms, cfg.slo_ms);
    EXPECT_GT(stats.ewma_interarrival_ms, 0.0);
    // Every batch ships either full or on a deadline/ship-now
    // decision; the two counters partition all dispatches.
    EXPECT_EQ(stats.full_dispatches + stats.deadline_dispatches,
              stats.batches);
    EXPECT_GT(stats.batches, 0);
    // The histogram saw every request.
    std::int64_t hist_total = 0;
    for (const std::int64_t count : stats.queue_wait_hist) {
        hist_total += count;
    }
    EXPECT_EQ(hist_total, kThreads * kPerThread);
    server.shutdown();
}

}  // namespace
}  // namespace shredder
