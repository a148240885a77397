/** @file Tests for the batched, concurrent inference server. */
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/noise_collection.h"
#include "src/models/zoo.h"
#include "src/runtime/inference_server.h"
#include "src/runtime/noise_policy.h"
#include "src/runtime/serving_error.h"
#include "src/runtime/thread_pool.h"
#include "src/split/split_model.h"
#include "src/tensor/ops.h"
#include "tests/test_util.h"

namespace shredder {
namespace {

using runtime::EndpointConfig;
using runtime::InferenceServer;
using runtime::NoNoisePolicy;
using runtime::ReplayPolicy;
using runtime::ServingError;
using runtime::ServingErrorCode;

/** Replay root seed of the tests that do not pin their own. */
constexpr std::uint64_t kSeed = 0xC0FFEE;

/** Expect `future` to fail with a specific `ServingError` code. */
void
expect_code(std::future<Tensor>& future, ServingErrorCode expected)
{
    try {
        future.get();
        ADD_FAILURE() << "expected ServingError "
                      << runtime::to_string(expected);
    } catch (const ServingError& e) {
        EXPECT_EQ(e.code(), expected) << e.what();
    } catch (const std::exception& e) {
        ADD_FAILURE() << "expected ServingError, got " << e.what();
    }
}

/** LeNet cut at its last conv point, plus matching activations. */
struct Fixture
{
    explicit Fixture(std::uint64_t seed = 17)
        : rng(seed), net(models::make_lenet(rng)),
          cut(split::conv_cut_points(*net).back()), model(*net, cut),
          act_shape(model.activation_shape(Shape({1, 28, 28})))
    {
    }

    /** One random per-sample activation (batch dim stripped). */
    Tensor
    sample_activation()
    {
        Shape per_sample({act_shape[1], act_shape[2], act_shape[3]});
        return Tensor::normal(per_sample, rng);
    }

    /** A collection of `n` stored noise tensors at the cut's shape. */
    core::NoiseCollection
    collection(int n)
    {
        core::NoiseCollection c;
        Shape per_sample({act_shape[1], act_shape[2], act_shape[3]});
        for (int i = 0; i < n; ++i) {
            core::NoiseSample s;
            s.noise = Tensor::normal(per_sample, rng);
            c.add(std::move(s));
        }
        return c;
    }

    /** Serial reference forward of one per-sample activation. */
    Tensor
    direct_forward(const Tensor& a, nn::ExecutionContext& ctx)
    {
        return model.cloud_forward(a.reshaped(act_shape), ctx,
                                   nn::Mode::kEval);
    }

    Rng rng;
    std::unique_ptr<nn::Sequential> net;
    std::int64_t cut;
    split::SplitModel model;
    Shape act_shape;  ///< Batched ([1, C, H, W]).
};

TEST(InferenceServer, MatchesDirectCloudForward)
{
    Fixture fx;
    NoNoisePolicy policy;
    EndpointConfig cfg;
    cfg.max_batch = 4;
    ThreadPool pool(1);
    InferenceServer server(fx.model, policy, cfg, pool);

    nn::ExecutionContext ctx;
    for (int i = 0; i < 5; ++i) {
        const Tensor a = fx.sample_activation();
        const Tensor served = server.infer(a);
        const Tensor direct = fx.direct_forward(a, ctx);
        ASSERT_EQ(served.shape().rank(), 1);
        ASSERT_EQ(served.size(), direct.size());
        testing::expect_tensors_near(
            served, direct.reshaped(served.shape()), 1e-6,
            "served vs direct");
    }
}

TEST(InferenceServer, BatchedEqualsSequential)
{
    Fixture fx;
    // A single stored noise tensor makes per-request draws
    // deterministic, so batched and sequential runs see identical
    // noise regardless of batch composition.
    core::NoiseCollection coll = fx.collection(1);
    ReplayPolicy policy(coll, kSeed);

    std::vector<Tensor> activations;
    for (int i = 0; i < 12; ++i) {
        activations.push_back(fx.sample_activation());
    }

    // Sequential reference: batch size 1.
    ThreadPool pool(1);
    std::vector<Tensor> sequential;
    {
        EndpointConfig cfg;
        cfg.max_batch = 1;
        cfg.batch_timeout_ms = 0.0;
        InferenceServer server(fx.model, policy, cfg, pool);
        for (const Tensor& a : activations) {
            sequential.push_back(server.infer(a));
        }
    }

    // Batched run: everything submitted up front, fused into batches.
    EndpointConfig cfg;
    cfg.max_batch = 5;
    cfg.batch_timeout_ms = 20.0;
    InferenceServer server(fx.model, policy, cfg, pool);
    std::vector<std::future<Tensor>> futures;
    for (const Tensor& a : activations) {
        futures.push_back(server.submit(a));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const Tensor batched = futures[i].get();
        testing::expect_tensors_near(batched, sequential[i], 1e-5,
                                     "batched vs sequential");
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.requests, 12);
    EXPECT_LT(stats.batches, 12);  // fusion actually happened
    EXPECT_LE(stats.max_batch_seen, 5);
}

TEST(InferenceServer, PerRequestNoiseIsApplied)
{
    Fixture fx;
    core::NoiseCollection coll = fx.collection(1);
    const Tensor a = fx.sample_activation();

    ReplayPolicy replay(coll, kSeed);
    EndpointConfig noisy_cfg;
    noisy_cfg.max_batch = 1;
    ThreadPool noisy_pool(1);
    InferenceServer noisy(fx.model, replay, noisy_cfg, noisy_pool);
    NoNoisePolicy no_noise;
    ThreadPool clean_pool(1);
    InferenceServer clean(fx.model, no_noise, {}, clean_pool);

    const Tensor with_noise = noisy.infer(a);
    const Tensor without = clean.infer(a);
    // The noise tensor is non-trivial, so logits must differ.
    EXPECT_GT(ops::max_abs_diff(with_noise, without), 1e-4);

    // And it must equal the hand-noised forward.
    nn::ExecutionContext ctx;
    const Tensor direct =
        fx.direct_forward(ops::add(a, coll.get(0).noise), ctx);
    testing::expect_tensors_near(
        with_noise, direct.reshaped(with_noise.shape()), 1e-6,
        "noised served vs hand-noised direct");
}

TEST(InferenceServer, ConcurrentSubmitIsSafe)
{
    Fixture fx;
    core::NoiseCollection coll = fx.collection(3);
    ReplayPolicy policy(coll, kSeed);
    EndpointConfig cfg;
    cfg.max_batch = 8;
    cfg.batch_timeout_ms = 1.0;
    ThreadPool pool(1);
    InferenceServer server(fx.model, policy, cfg, pool);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 6;
    std::vector<std::thread> submitters;
    std::vector<std::vector<std::future<Tensor>>> futures(kThreads);
    std::vector<Tensor> inputs;
    for (int t = 0; t < kThreads; ++t) {
        inputs.push_back(fx.sample_activation());
    }
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                futures[static_cast<std::size_t>(t)].push_back(
                    server.submit(inputs[static_cast<std::size_t>(t)]));
            }
        });
    }
    for (auto& thread : submitters) {
        thread.join();
    }
    for (auto& per_thread : futures) {
        for (auto& f : per_thread) {
            const Tensor logits = f.get();
            EXPECT_EQ(logits.shape().rank(), 1);
            EXPECT_FALSE(logits.has_nonfinite());
        }
    }
    EXPECT_EQ(server.stats().requests, kThreads * kPerThread);
}

// ---------------------------------------------------------------------
// Concurrent execution on shared weights (the stateless-layer story)
// ---------------------------------------------------------------------

TEST(InferenceServer, ConcurrentStressBitExactVsSerial)
{
    // A few hundred requests from several client threads, executed by
    // several workers with several in-flight forwards on ONE model —
    // every result must be BIT-EXACT against a serial
    // `SplitModel::cloud_forward` with the same noise draw.
    // max_batch = 1 keeps the served and serial code paths identical
    // (same GEMM shapes), so any deviation at all means the concurrent
    // forwards corrupted each other's state.
    Fixture fx;
    core::NoiseCollection coll = fx.collection(3);
    const std::uint64_t seed = 0xFEEDFACEULL;
    ReplayPolicy policy(coll, seed);
    EndpointConfig cfg;
    cfg.max_batch = 1;
    cfg.batch_timeout_ms = 0.0;
    cfg.max_concurrent_batches = 4;
    ThreadPool pool(4);
    InferenceServer server(fx.model, policy, cfg, pool);
    EXPECT_EQ(server.max_concurrent_batches(), 4);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 75;  // 300 requests total
    std::vector<std::vector<Tensor>> acts(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kPerThread; ++i) {
            acts[static_cast<std::size_t>(t)].push_back(
                fx.sample_activation());
        }
    }

    std::vector<std::vector<std::future<Tensor>>> futures(kThreads);
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                // Stable per-request ids pin the noise assignment no
                // matter how the client threads interleave.
                const auto id = static_cast<std::uint64_t>(
                    t * kPerThread + i);
                futures[static_cast<std::size_t>(t)].push_back(
                    server.submit(
                        acts[static_cast<std::size_t>(t)]
                            [static_cast<std::size_t>(i)],
                        id));
            }
        });
    }
    for (auto& c : clients) {
        c.join();
    }

    nn::ExecutionContext serial_ctx;
    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kPerThread; ++i) {
            const Tensor got =
                futures[static_cast<std::size_t>(t)]
                       [static_cast<std::size_t>(i)].get();
            const auto id =
                static_cast<std::uint64_t>(t * kPerThread + i);
            // Reproduce the server's draw offline via the pure seed
            // function, then the serial forward.
            Rng draw_rng(runtime::noise_seed(seed, id));
            const Tensor& noise = coll.draw(draw_rng).noise;
            const Tensor expected = fx.direct_forward(
                ops::add(acts[static_cast<std::size_t>(t)]
                             [static_cast<std::size_t>(i)],
                         noise),
                serial_ctx);
            testing::expect_tensors_near(
                got, expected.reshaped(got.shape()), 0.0,
                "concurrent vs serial bit-exactness");
        }
    }
    EXPECT_EQ(server.stats().requests, kThreads * kPerThread);
}

TEST(InferenceServer, ConcurrentBatchedAgreesWithSerial)
{
    // Same concurrency, but with real batch fusion (max_batch 8).
    // Fused GEMMs take different (batch-size dependent) kernel paths
    // than batch-1 forwards, so the comparison uses a numeric
    // tolerance; state corruption would blow far past it.
    Fixture fx;
    core::NoiseCollection coll = fx.collection(2);
    const std::uint64_t seed = 0xABCDEFULL;
    ReplayPolicy policy(coll, seed);
    EndpointConfig cfg;
    cfg.max_batch = 8;
    cfg.batch_timeout_ms = 1.0;
    cfg.max_concurrent_batches = 2;
    ThreadPool pool(2);
    InferenceServer server(fx.model, policy, cfg, pool);

    constexpr int kRequests = 200;
    std::vector<Tensor> acts;
    for (int i = 0; i < kRequests; ++i) {
        acts.push_back(fx.sample_activation());
    }
    std::vector<std::thread> clients;
    std::vector<std::vector<std::future<Tensor>>> per_client(2);
    for (int t = 0; t < 2; ++t) {
        clients.emplace_back([&, t] {
            for (int i = t; i < kRequests; i += 2) {
                per_client[static_cast<std::size_t>(t)].push_back(
                    server.submit(acts[static_cast<std::size_t>(i)],
                                  static_cast<std::uint64_t>(i)));
            }
        });
    }
    for (auto& c : clients) {
        c.join();
    }

    nn::ExecutionContext serial_ctx;
    for (int t = 0; t < 2; ++t) {
        int i = t;
        for (auto& f : per_client[static_cast<std::size_t>(t)]) {
            const Tensor got = f.get();
            Rng draw_rng(runtime::noise_seed(
                seed, static_cast<std::uint64_t>(i)));
            const Tensor& noise = coll.draw(draw_rng).noise;
            const Tensor expected = fx.direct_forward(
                ops::add(acts[static_cast<std::size_t>(i)], noise),
                serial_ctx);
            testing::expect_tensors_near(
                got, expected.reshaped(got.shape()), 1e-5,
                "concurrent batched vs serial");
            i += 2;
        }
    }
}

TEST(InferenceServer, ReplaySeedReproducesNoiseAssignment)
{
    // §2.5 deployment replay: the same root seed and request ids must
    // reproduce the exact per-request noise assignment — and thus
    // bit-identical logits — across server instances.
    Fixture fx;
    core::NoiseCollection coll = fx.collection(4);
    std::vector<Tensor> acts;
    for (int i = 0; i < 40; ++i) {
        acts.push_back(fx.sample_activation());
    }

    const auto run = [&](std::uint64_t seed) {
        EndpointConfig cfg;
        cfg.max_batch = 1;  // identical kernel paths across runs
        cfg.batch_timeout_ms = 0.0;
        ThreadPool pool(2);
        ReplayPolicy policy(coll, seed);
        InferenceServer server(fx.model, policy, cfg, pool);
        std::vector<std::future<Tensor>> futures;
        for (const Tensor& a : acts) {
            futures.push_back(server.submit(a));  // auto ids 0, 1, 2, …
        }
        std::vector<Tensor> out;
        for (auto& f : futures) {
            out.push_back(f.get());
        }
        return out;
    };

    const std::vector<Tensor> first = run(0xD06F00DULL);
    const std::vector<Tensor> replay = run(0xD06F00DULL);
    const std::vector<Tensor> other = run(0x0DDBA11ULL);

    bool any_differs_across_seeds = false;
    for (std::size_t i = 0; i < acts.size(); ++i) {
        testing::expect_tensors_near(first[i], replay[i], 0.0,
                                     "same-seed replay");
        if (ops::max_abs_diff(first[i], other[i]) > 0.0) {
            any_differs_across_seeds = true;
        }
    }
    // A different root seed permutes the assignment (4 stored tensors
    // over 40 requests: some request must land on a different draw).
    EXPECT_TRUE(any_differs_across_seeds);

    // The assignment is also predictable offline, request by request:
    // the n-th auto-submitted request draws under kAutoIdBase + n.
    nn::ExecutionContext ctx;
    for (std::size_t i = 0; i < acts.size(); ++i) {
        Rng draw_rng(runtime::noise_seed(
            0xD06F00DULL,
            InferenceServer::kAutoIdBase + static_cast<std::uint64_t>(i)));
        const Tensor expected = fx.direct_forward(
            ops::add(acts[i], coll.draw(draw_rng).noise), ctx);
        testing::expect_tensors_near(
            first[i], expected.reshaped(first[i].shape()), 0.0,
            "offline replay of the draw");
    }
}

TEST(InferenceServer, SharedModelAcrossServersIsSafe)
{
    // Two servers on ONE SplitModel — the exact pattern the old
    // per-server model mutex could not protect (its scope was one
    // server). Stateless layers make it safe by construction.
    Fixture fx;
    NoNoisePolicy policy;
    EndpointConfig cfg;
    cfg.max_batch = 2;
    ThreadPool pool_a(2);
    ThreadPool pool_b(2);
    InferenceServer server_a(fx.model, policy, cfg, pool_a);
    InferenceServer server_b(fx.model, policy, cfg, pool_b);

    std::vector<Tensor> acts;
    for (int i = 0; i < 32; ++i) {
        acts.push_back(fx.sample_activation());
    }
    std::vector<std::future<Tensor>> fa, fb;
    for (const Tensor& a : acts) {
        fa.push_back(server_a.submit(a));
        fb.push_back(server_b.submit(a));
    }
    nn::ExecutionContext ctx;
    for (std::size_t i = 0; i < acts.size(); ++i) {
        const Tensor direct = fx.direct_forward(acts[i], ctx);
        const Tensor ya = fa[i].get();
        const Tensor yb = fb[i].get();
        testing::expect_tensors_near(ya, direct.reshaped(ya.shape()),
                                     1e-5, "server A vs direct");
        testing::expect_tensors_near(yb, direct.reshaped(yb.shape()),
                                     1e-5, "server B vs direct");
    }
}

// ---------------------------------------------------------------------
// Lifecycle and contract checks
// ---------------------------------------------------------------------

TEST(InferenceServer, ShutdownWithEmptyQueueIsClean)
{
    Fixture fx;
    NoNoisePolicy policy;
    ThreadPool pool(1);
    InferenceServer server(fx.model, policy, {}, pool);
    EXPECT_TRUE(server.running());
    server.shutdown();
    EXPECT_FALSE(server.running());
    server.shutdown();  // idempotent
    const auto stats = server.stats();
    EXPECT_EQ(stats.requests, 0);
    EXPECT_EQ(stats.batches, 0);
}

TEST(InferenceServer, ShutdownDrainsQueuedRequests)
{
    Fixture fx;
    NoNoisePolicy policy;
    EndpointConfig cfg;
    cfg.max_batch = 4;
    cfg.batch_timeout_ms = 50.0;  // requests are queued at shutdown
    ThreadPool pool(1);
    InferenceServer server(fx.model, policy, cfg, pool);
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < 6; ++i) {
        futures.push_back(server.submit(fx.sample_activation()));
    }
    server.shutdown();
    for (auto& f : futures) {
        EXPECT_NO_THROW({
            const Tensor logits = f.get();
            EXPECT_EQ(logits.size(), 10);
        });
    }
}

TEST(InferenceServer, WrongSizeSubmitFailsOnlyThatFuture)
{
    Fixture fx;
    core::NoiseCollection coll = fx.collection(1);
    ReplayPolicy policy(coll, kSeed);
    EndpointConfig cfg;
    cfg.max_batch = 1;
    ThreadPool pool(1);
    InferenceServer server(fx.model, policy, cfg, pool);

    auto bad = server.submit(Tensor::zeros(Shape({3})));
    expect_code(bad, ServingErrorCode::kInvalidShape);
    // The server survives and keeps serving well-formed requests.
    const Tensor logits = server.infer(fx.sample_activation());
    EXPECT_EQ(logits.size(), 10);
}

TEST(InferenceServer, Rank4FirstSubmitIsRejectedCleanly)
{
    // Without a collection the first request fixes the shape; a
    // rank-4 (already batched) tensor cannot grow a batch dim.
    Fixture fx;
    NoNoisePolicy policy;
    ThreadPool pool(1);
    InferenceServer server(fx.model, policy, {}, pool);
    auto bad = server.submit(
        Tensor::zeros(Shape({1, fx.act_shape[1], fx.act_shape[2],
                             fx.act_shape[3]})));
    expect_code(bad, ServingErrorCode::kInvalidShape);
    // A rank-3 per-sample activation then works.
    const Tensor logits = server.infer(fx.sample_activation());
    EXPECT_EQ(logits.size(), 10);
}

TEST(InferenceServer, ConfiguredShapePinsTheContract)
{
    // With the contract pinned at construction, even the FIRST
    // request cannot smuggle in a bogus size (the lazy-adoption
    // footgun the config field exists to close).
    Fixture fx;
    NoNoisePolicy policy;
    EndpointConfig cfg;
    cfg.sample_shape =
        Shape({fx.act_shape[1], fx.act_shape[2], fx.act_shape[3]});
    ThreadPool pool(1);
    InferenceServer server(fx.model, policy, cfg, pool);
    auto bad = server.submit(Tensor::zeros(Shape({7})));
    expect_code(bad, ServingErrorCode::kInvalidShape);
    const Tensor logits = server.infer(fx.sample_activation());
    EXPECT_EQ(logits.size(), 10);
}

TEST(InferenceServerDeath, Rank4CollectionRejectedAtConstruction)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Fixture fx;
    core::NoiseCollection coll;
    core::NoiseSample sample;
    sample.noise = Tensor::zeros(Shape(
        {1, fx.act_shape[1], fx.act_shape[2], fx.act_shape[3]}));
    coll.add(std::move(sample));
    ReplayPolicy policy(coll, kSeed);
    EXPECT_EXIT(
        {
            ThreadPool pool(1);
            InferenceServer server(fx.model, policy, {}, pool);
        },
        ::testing::ExitedWithCode(1), "rank 1-3");
}

TEST(InferenceServer, SubmitAfterShutdownFailsTheFuture)
{
    Fixture fx;
    NoNoisePolicy policy;
    ThreadPool pool(1);
    InferenceServer server(fx.model, policy, {}, pool);
    server.shutdown();
    auto future = server.submit(fx.sample_activation());
    // ServingError derives from std::runtime_error (old-style callers
    // keep working), but carries the typed code new callers branch on.
    EXPECT_THROW(
        {
            auto second = server.submit(fx.sample_activation());
            second.get();
        },
        std::runtime_error);
    expect_code(future, ServingErrorCode::kShutdown);
}

TEST(InferenceServer, StatsTrackLatencyAndThroughput)
{
    Fixture fx;
    NoNoisePolicy policy;
    EndpointConfig cfg;
    cfg.max_batch = 2;
    ThreadPool pool(1);
    InferenceServer server(fx.model, policy, cfg, pool);
    for (int i = 0; i < 4; ++i) {
        server.infer(fx.sample_activation());
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.requests, 4);
    EXPECT_GE(stats.batches, 2);
    EXPECT_GT(stats.busy_ms, 0.0);
    EXPECT_GT(stats.wall_seconds, 0.0);
    EXPECT_GT(stats.requests_per_sec(), 0.0);
    EXPECT_GE(stats.mean_batch_size(), 1.0);
}

}  // namespace
}  // namespace shredder
