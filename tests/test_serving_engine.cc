/**
 * @file
 * Tests for the multi-endpoint `ServingEngine`: several models under
 * several noise policies on one shared worker pool, typed
 * `ServingError` codes, per-endpoint and aggregate stats, and the
 * policy-equivalence guarantees (engine ↔ policy server ↔ offline
 * replay recipe).
 */
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/noise_collection.h"
#include "src/core/noise_distribution.h"
#include "src/models/zoo.h"
#include "src/runtime/inference_server.h"
#include "src/runtime/noise_policy.h"
#include "src/runtime/serving_engine.h"
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
using runtime::SamplePolicy;
using runtime::ServingEngine;
using runtime::ServingEngineConfig;
using runtime::ServingError;
using runtime::ServingErrorCode;
using runtime::noise_seed;

/** Two independently initialized LeNets cut at the last conv point. */
struct Fixture
{
    explicit Fixture(std::uint64_t seed = 23)
        : rng(seed), net_a(models::make_lenet(rng)),
          net_b(models::make_lenet(rng)),
          cut(split::conv_cut_points(*net_a).back()),
          model_a(*net_a, cut), model_b(*net_b, cut),
          act_shape(model_a.activation_shape(Shape({1, 28, 28})))
    {
    }

    Shape
    per_sample() const
    {
        return Shape({act_shape[1], act_shape[2], act_shape[3]});
    }

    Tensor
    sample_activation()
    {
        return Tensor::normal(per_sample(), rng);
    }

    core::NoiseCollection
    collection(int n)
    {
        core::NoiseCollection c;
        for (int i = 0; i < n; ++i) {
            core::NoiseSample s;
            s.noise = Tensor::normal(per_sample(), rng);
            c.add(std::move(s));
        }
        return c;
    }

    Tensor
    direct_forward(split::SplitModel& model, const Tensor& a,
                   nn::ExecutionContext& ctx)
    {
        return model.cloud_forward(a.reshaped(act_shape), ctx,
                                   nn::Mode::kEval);
    }

    Rng rng;
    std::unique_ptr<nn::Sequential> net_a;
    std::unique_ptr<nn::Sequential> net_b;
    std::int64_t cut;
    split::SplitModel model_a;
    split::SplitModel model_b;
    Shape act_shape;  ///< Batched ([1, C, H, W]).
};

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

// ---------------------------------------------------------------------
// The acceptance path: many models × many policies, one engine
// ---------------------------------------------------------------------

TEST(ServingEngine, TwoModelsTwoPoliciesServedConcurrently)
{
    // One engine hosts model A under replay and model B under
    // distribution sampling, with concurrent client threads. Every
    // result must be BIT-EXACT against the offline recipe for its
    // endpoint's policy (max_batch 1 keeps kernel paths identical to
    // the serial reference).
    Fixture fx;
    const core::NoiseCollection coll = fx.collection(4);
    const core::NoiseDistribution dist =
        core::NoiseDistribution::fit(coll);
    const std::uint64_t replay_seed = 0x5117ULL;
    const std::uint64_t sample_seed = 0x5118ULL;

    ServingEngineConfig ec;
    ec.threads_per_shard = 2;
    ServingEngine engine(ec);
    EndpointConfig ep;
    ep.max_batch = 1;
    ep.batch_timeout_ms = 0.0;
    ep.max_concurrent_batches = 2;
    engine.register_endpoint(
        "a-replay", fx.model_a,
        std::make_shared<ReplayPolicy>(coll, replay_seed), ep);
    engine.register_endpoint(
        "b-sample", fx.model_b,
        std::make_shared<SamplePolicy>(dist, sample_seed), ep);
    EXPECT_TRUE(engine.has_endpoint("a-replay"));
    EXPECT_TRUE(engine.has_endpoint("b-sample"));
    EXPECT_EQ(engine.endpoint_names().size(), 2u);
    EXPECT_EQ(engine.policy("a-replay").name(), "replay");
    EXPECT_EQ(engine.policy("b-sample").name(), "sample");

    constexpr int kPerEndpoint = 30;
    std::vector<Tensor> acts;
    for (int i = 0; i < kPerEndpoint; ++i) {
        acts.push_back(fx.sample_activation());
    }

    std::vector<std::future<Tensor>> fa(kPerEndpoint), fb(kPerEndpoint);
    std::thread client_a([&] {
        for (int i = 0; i < kPerEndpoint; ++i) {
            fa[static_cast<std::size_t>(i)] = engine.submit(
                "a-replay", acts[static_cast<std::size_t>(i)],
                static_cast<std::uint64_t>(i));
        }
    });
    std::thread client_b([&] {
        for (int i = 0; i < kPerEndpoint; ++i) {
            fb[static_cast<std::size_t>(i)] = engine.submit(
                "b-sample", acts[static_cast<std::size_t>(i)],
                static_cast<std::uint64_t>(i));
        }
    });
    client_a.join();
    client_b.join();

    nn::ExecutionContext ctx;
    for (int i = 0; i < kPerEndpoint; ++i) {
        const auto id = static_cast<std::uint64_t>(i);
        const Tensor& a = acts[static_cast<std::size_t>(i)];

        const Tensor got_a = fa[static_cast<std::size_t>(i)].get();
        Rng replay_rng(noise_seed(replay_seed, id));
        const Tensor want_a = fx.direct_forward(
            fx.model_a, ops::add(a, coll.draw(replay_rng).noise), ctx);
        testing::expect_tensors_near(
            got_a, want_a.reshaped(got_a.shape()), 0.0,
            "endpoint a-replay vs offline replay");

        const Tensor got_b = fb[static_cast<std::size_t>(i)].get();
        Rng sample_rng(noise_seed(sample_seed, id));
        const Tensor want_b = fx.direct_forward(
            fx.model_b, ops::add(a, dist.sample(sample_rng)), ctx);
        testing::expect_tensors_near(
            got_b, want_b.reshaped(got_b.shape()), 0.0,
            "endpoint b-sample vs offline sample");
    }

    // Per-endpoint and aggregate accounting line up.
    EXPECT_EQ(engine.stats("a-replay").requests, kPerEndpoint);
    EXPECT_EQ(engine.stats("b-sample").requests, kPerEndpoint);
    EXPECT_EQ(engine.stats().requests, 2 * kPerEndpoint);
    EXPECT_GT(engine.stats().requests_per_sec(), 0.0);
}

TEST(ServingEngine, SameModelUnderTwoPoliciesSharesWeights)
{
    // The replay-vs-sample A/B on ONE SplitModel: stateless layers
    // make two endpoints on the same weights safe by construction.
    Fixture fx;
    const core::NoiseCollection coll = fx.collection(2);
    ServingEngine engine;
    engine.register_endpoint("replay", fx.model_a,
                             std::make_shared<ReplayPolicy>(coll, 7));
    engine.register_endpoint(
        "clean", fx.model_a, std::make_shared<NoNoisePolicy>());

    nn::ExecutionContext ctx;
    for (int i = 0; i < 8; ++i) {
        const Tensor a = fx.sample_activation();
        const Tensor clean = engine.infer("clean", a);
        const Tensor direct = fx.direct_forward(fx.model_a, a, ctx);
        testing::expect_tensors_near(
            clean, direct.reshaped(clean.shape()), 1e-5,
            "clean endpoint vs direct");
        // Replay differs (noise is non-trivial).
        const Tensor noisy = engine.infer("replay", a);
        EXPECT_GT(ops::max_abs_diff(noisy, clean), 1e-4);
    }
}

// ---------------------------------------------------------------------
// Policy equivalence (the API-redesign safety net)
// ---------------------------------------------------------------------

TEST(ServingEngine, ReplayPolicyBitExactAcrossServerEngineAndOffline)
{
    // Two servings of the same requests must agree BIT-EXACTLY:
    //  1. an InferenceServer built on ReplayPolicy directly,
    //  2. a ServingEngine endpoint with the same policy,
    // and both must equal the offline draw recipe.
    Fixture fx;
    const core::NoiseCollection coll = fx.collection(3);
    const std::uint64_t seed = 0xFEEDULL;
    constexpr int kRequests = 24;

    std::vector<Tensor> acts;
    for (int i = 0; i < kRequests; ++i) {
        acts.push_back(fx.sample_activation());
    }

    const auto collect = [&](auto&& submit_fn) {
        std::vector<std::future<Tensor>> futures;
        futures.reserve(acts.size());
        for (int i = 0; i < kRequests; ++i) {
            futures.push_back(
                submit_fn(acts[static_cast<std::size_t>(i)],
                          static_cast<std::uint64_t>(i)));
        }
        std::vector<Tensor> out;
        out.reserve(futures.size());
        for (auto& f : futures) {
            out.push_back(f.get());
        }
        return out;
    };

    std::vector<Tensor> policy_logits;
    ReplayPolicy policy(coll, seed);
    {
        EndpointConfig cfg;
        cfg.max_batch = 1;
        cfg.batch_timeout_ms = 0.0;
        ThreadPool pool(1);
        InferenceServer server(fx.model_a, policy, cfg, pool);
        EXPECT_EQ(server.policy().name(), "replay");
        policy_logits = collect([&](const Tensor& a, std::uint64_t id) {
            return server.submit(a, id);
        });
    }

    std::vector<Tensor> engine_logits;
    {
        ServingEngine engine;
        EndpointConfig ep;
        ep.max_batch = 1;
        ep.batch_timeout_ms = 0.0;
        engine.register_endpoint("lenet", fx.model_a,
                                 std::make_shared<ReplayPolicy>(coll, seed),
                                 ep);
        engine_logits = collect([&](const Tensor& a, std::uint64_t id) {
            return engine.submit("lenet", a, id);
        });
    }

    nn::ExecutionContext ctx;
    for (int i = 0; i < kRequests; ++i) {
        const auto id = static_cast<std::uint64_t>(i);
        Rng draw_rng(noise_seed(seed, id));
        const Tensor offline = fx.direct_forward(
            fx.model_a,
            ops::add(acts[static_cast<std::size_t>(i)],
                     coll.draw(draw_rng).noise),
            ctx);
        const Tensor& policy_out =
            policy_logits[static_cast<std::size_t>(i)];
        testing::expect_tensors_near(
            policy_out, offline.reshaped(policy_out.shape()), 0.0,
            "policy server vs offline replay");
        testing::expect_tensors_near(
            engine_logits[static_cast<std::size_t>(i)], policy_out, 0.0,
            "engine endpoint vs policy server");
    }
}

TEST(ServingEngine, SamplePolicyIsDeterministicUnderFixedRequestIds)
{
    // The paper's true deployment mode, served end-to-end: fixed
    // request ids reproduce the exact noise across engine instances
    // (and match the meter's sampling semantics: the id-keyed draw
    // `dist.sample(Rng(noise_seed(seed, id)))`), while distinct ids
    // draw fresh noise.
    Fixture fx;
    const core::NoiseCollection coll = fx.collection(3);
    const core::NoiseDistribution dist =
        core::NoiseDistribution::fit(coll);
    const std::uint64_t seed = 0xD15CULL;
    constexpr int kRequests = 16;

    std::vector<Tensor> acts;
    for (int i = 0; i < kRequests; ++i) {
        acts.push_back(fx.sample_activation());
    }

    const auto serve_all = [&] {
        ServingEngine engine;
        EndpointConfig ep;
        ep.max_batch = 1;
        ep.batch_timeout_ms = 0.0;
        engine.register_endpoint("s", fx.model_a,
                                 std::make_shared<SamplePolicy>(dist, seed),
                                 ep);
        std::vector<std::future<Tensor>> futures;
        for (int i = 0; i < kRequests; ++i) {
            futures.push_back(
                engine.submit("s", acts[static_cast<std::size_t>(i)],
                              static_cast<std::uint64_t>(i)));
        }
        std::vector<Tensor> out;
        for (auto& f : futures) {
            out.push_back(f.get());
        }
        return out;
    };

    const std::vector<Tensor> first = serve_all();
    const std::vector<Tensor> replayed = serve_all();

    nn::ExecutionContext ctx;
    for (int i = 0; i < kRequests; ++i) {
        testing::expect_tensors_near(
            first[static_cast<std::size_t>(i)],
            replayed[static_cast<std::size_t>(i)], 0.0,
            "sample endpoint replay determinism");
        // Offline recipe — the same construction the meter's
        // measure_distribution applies per query id.
        Rng draw_rng(
            noise_seed(seed, static_cast<std::uint64_t>(i)));
        const Tensor expected = fx.direct_forward(
            fx.model_a,
            ops::add(acts[static_cast<std::size_t>(i)],
                     dist.sample(draw_rng)),
            ctx);
        const Tensor& got = first[static_cast<std::size_t>(i)];
        testing::expect_tensors_near(
            got, expected.reshaped(got.shape()), 0.0,
            "sample endpoint vs offline draw");
    }

    // Same activation under different ids → different logits.
    ServingEngine engine;
    engine.register_endpoint("s", fx.model_a,
                             std::make_shared<SamplePolicy>(dist, seed));
    const Tensor a = acts[0];
    const Tensor id0 = engine.submit("s", a, 100).get();
    const Tensor id1 = engine.submit("s", a, 101).get();
    EXPECT_GT(ops::max_abs_diff(id0, id1), 1e-4);
}

// ---------------------------------------------------------------------
// Typed error codes
// ---------------------------------------------------------------------

TEST(ServingEngine, UnknownEndpointFailsTheFutureWithTypedCode)
{
    Fixture fx;
    ServingEngine engine;
    engine.register_endpoint("known", fx.model_a,
                             std::make_shared<NoNoisePolicy>());
    auto future = engine.submit("unknown", fx.sample_activation(), 0);
    expect_code(future, ServingErrorCode::kUnknownEndpoint);
    // Stats/policy lookups throw the same typed error directly.
    try {
        engine.stats("unknown");
        ADD_FAILURE() << "stats('unknown') did not throw";
    } catch (const ServingError& e) {
        EXPECT_EQ(e.code(), ServingErrorCode::kUnknownEndpoint);
    }
}

TEST(ServingEngine, NullPolicyRegistrationThrowsNoPolicy)
{
    Fixture fx;
    ServingEngine engine;
    try {
        engine.register_endpoint("bad", fx.model_a, nullptr);
        ADD_FAILURE() << "null-policy registration did not throw";
    } catch (const ServingError& e) {
        EXPECT_EQ(e.code(), ServingErrorCode::kNoPolicy);
    }
}

TEST(ServingEngine, DuplicateRegistrationThrowsTypedCode)
{
    Fixture fx;
    ServingEngine engine;
    engine.register_endpoint("ep", fx.model_a,
                             std::make_shared<NoNoisePolicy>());
    try {
        engine.register_endpoint("ep", fx.model_b,
                                 std::make_shared<NoNoisePolicy>());
        ADD_FAILURE() << "duplicate registration did not throw";
    } catch (const ServingError& e) {
        EXPECT_EQ(e.code(), ServingErrorCode::kDuplicateEndpoint);
    }
}

TEST(ServingEngine, InvalidShapeFailsOnlyThatFuture)
{
    Fixture fx;
    const core::NoiseCollection coll = fx.collection(1);
    ServingEngine engine;
    engine.register_endpoint("ep", fx.model_a,
                             std::make_shared<ReplayPolicy>(coll, 1));
    auto bad = engine.submit("ep", Tensor::zeros(Shape({3})), 0);
    expect_code(bad, ServingErrorCode::kInvalidShape);
    // The endpoint survives and keeps serving well-formed requests.
    const Tensor logits = engine.infer("ep", fx.sample_activation());
    EXPECT_EQ(logits.size(), 10);
}

TEST(ServingEngine, ShutdownRejectsSubmitsAndRegistrations)
{
    Fixture fx;
    ServingEngine engine;
    engine.register_endpoint("ep", fx.model_a,
                             std::make_shared<NoNoisePolicy>());
    EXPECT_TRUE(engine.running());
    engine.shutdown();
    EXPECT_FALSE(engine.running());
    engine.shutdown();  // idempotent

    auto future = engine.submit("ep", fx.sample_activation(), 0);
    expect_code(future, ServingErrorCode::kShutdown);
    try {
        engine.register_endpoint("late", fx.model_a,
                                 std::make_shared<NoNoisePolicy>());
        ADD_FAILURE() << "post-shutdown registration did not throw";
    } catch (const ServingError& e) {
        EXPECT_EQ(e.code(), ServingErrorCode::kShutdown);
    }
}

TEST(ServingEngine, ShutdownDrainsAllEndpoints)
{
    Fixture fx;
    ServingEngine engine;
    EndpointConfig ep;
    ep.max_batch = 4;
    ep.batch_timeout_ms = 50.0;  // requests still queued at shutdown
    engine.register_endpoint("a", fx.model_a,
                             std::make_shared<NoNoisePolicy>(), ep);
    engine.register_endpoint("b", fx.model_b,
                             std::make_shared<NoNoisePolicy>(), ep);
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < 6; ++i) {
        futures.push_back(engine.submit("a", fx.sample_activation()));
        futures.push_back(engine.submit("b", fx.sample_activation()));
    }
    engine.shutdown();
    for (auto& f : futures) {
        EXPECT_NO_THROW({
            const Tensor logits = f.get();
            EXPECT_EQ(logits.size(), 10);
        });
    }
    EXPECT_EQ(engine.stats().requests, 12);
}

}  // namespace
}  // namespace shredder
