/**
 * @file
 * Scale-out determinism suite: a sharded `ServingEngine` hammered by
 * many client threads must produce BIT-exactly the results of a serial
 * `cloud_forward` over policy-applied activations, for every policy
 * kind. Also pins shard placement (round-robin, by index, by name),
 * `shard_info`/`shard_of` introspection, the default one-shard,
 * one-worker engine, and a conv cloud half served in batches on a
 * multi-worker shard.
 *
 * Labeled `concurrency` in CMake and run under TSan in CI: the
 * assertions are the determinism oracle, TSan is the data-race oracle.
 */
#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/noise_collection.h"
#include "src/core/noise_distribution.h"
#include "src/models/zoo.h"
#include "src/runtime/noise_policy.h"
#include "src/runtime/serving_engine.h"
#include "src/split/split_model.h"
#include "src/tensor/ops.h"
#include "src/tensor/quantize.h"
#include "tests/test_util.h"

namespace shredder {
namespace {

using runtime::ComposedPolicy;
using runtime::EndpointConfig;
using runtime::FixedNoisePolicy;
using runtime::NoisePolicy;
using runtime::NoNoisePolicy;
using runtime::QuantizePolicy;
using runtime::ReplayPolicy;
using runtime::SamplePolicy;
using runtime::ServingEngine;
using runtime::ServingEngineConfig;
using runtime::ServingError;
using runtime::ServingErrorCode;
using runtime::ShufflePolicy;

/** One LeNet cut at the last conv point (the standard cloud split). */
struct Fixture
{
    explicit Fixture(std::uint64_t seed = 41)
        : rng(seed), net(models::make_lenet(rng)),
          cut(split::conv_cut_points(*net).back()), model(*net, cut),
          act_shape(model.activation_shape(Shape({1, 28, 28})))
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

    /** Serial reference: policy offline, then cloud_forward. */
    Tensor
    reference(const NoisePolicy& policy, const Tensor& a,
              std::uint64_t id, nn::ExecutionContext& ctx)
    {
        const Tensor noisy = policy.apply(a, id);
        return model.cloud_forward(noisy.reshaped(act_shape), ctx,
                                   nn::Mode::kEval);
    }

    Rng rng;
    std::unique_ptr<nn::Sequential> net;
    std::int64_t cut;
    split::SplitModel model;
    Shape act_shape;
};

// ---------------------------------------------------------------------
// The tentpole acceptance test: every policy kind, sharded engine,
// 16 client threads, bit-exact vs the serial recipe
// ---------------------------------------------------------------------

TEST(ScaleOut, ShardedEngineBitExactUnderSixteenClientThreads)
{
    Fixture fx;
    const core::NoiseCollection coll = fx.collection(4);
    const core::NoiseDistribution dist =
        core::NoiseDistribution::fit(coll);
    const Tensor fixed = Tensor::normal(fx.per_sample(), fx.rng);

    // Every policy kind the runtime ships, one endpoint each.
    std::vector<std::pair<std::string, std::shared_ptr<NoisePolicy>>>
        endpoints;
    endpoints.emplace_back("p-none", std::make_shared<NoNoisePolicy>());
    endpoints.emplace_back(
        "p-replay", std::make_shared<ReplayPolicy>(coll, 0xA11CEULL));
    endpoints.emplace_back(
        "p-sample", std::make_shared<SamplePolicy>(dist, 0xB0BULL));
    endpoints.emplace_back("p-fixed",
                           std::make_shared<FixedNoisePolicy>(fixed));
    endpoints.emplace_back("p-shuffle",
                           std::make_shared<ShufflePolicy>(0x5EEDULL));
    endpoints.emplace_back(
        "p-shuffle-rank",
        std::make_shared<ShufflePolicy>(dist, 0x5EEEULL));
    endpoints.emplace_back(
        "p-quant", std::make_shared<QuantizePolicy>(WireDtype::kI8));
    {
        std::vector<std::shared_ptr<const NoisePolicy>> stages;
        stages.push_back(
            std::make_shared<ReplayPolicy>(coll, 0xC0DEULL));
        stages.push_back(std::make_shared<FixedNoisePolicy>(fixed));
        endpoints.emplace_back(
            "p-composed", std::make_shared<ComposedPolicy>(stages));
    }

    ServingEngineConfig ec;
    ec.shards = 4;
    ec.threads_per_shard = 1;
    ServingEngine engine(ec);
    EndpointConfig ep;
    ep.max_batch = 1;  // serial kernel path == batched kernel path
    ep.batch_timeout_ms = 0.0;
    ep.max_concurrent_batches = 2;
    for (const auto& [name, policy] : endpoints) {
        engine.register_endpoint(name, fx.model, policy, ep);
    }
    ASSERT_EQ(engine.endpoint_names().size(), endpoints.size());

    // Endpoints land round-robin across all four shards.
    {
        const auto info = engine.shard_info();
        ASSERT_EQ(info.size(), 4u);
        for (const auto& shard : info) {
            EXPECT_EQ(shard.threads, 1u);
            EXPECT_EQ(shard.endpoints.size(), 2u)
                << "8 endpoints round-robin onto 4 shards";
        }
    }

    constexpr int kPerEndpoint = 24;
    std::vector<Tensor> acts;
    for (int i = 0; i < kPerEndpoint; ++i) {
        acts.push_back(fx.sample_activation());
    }

    // 16 client threads: two per endpoint, interleaved ids. Stable
    // (endpoint, id) pairs are the determinism contract.
    const std::size_t n_endpoints = endpoints.size();
    std::vector<std::vector<std::future<Tensor>>> futures(n_endpoints);
    for (auto& f : futures) {
        f.resize(kPerEndpoint);
    }
    std::vector<std::thread> clients;
    for (std::size_t e = 0; e < n_endpoints; ++e) {
        for (int half = 0; half < 2; ++half) {
            clients.emplace_back([&, e, half] {
                for (int i = half; i < kPerEndpoint; i += 2) {
                    futures[e][static_cast<std::size_t>(i)] =
                        engine.submit(
                            endpoints[e].first,
                            acts[static_cast<std::size_t>(i)],
                            static_cast<std::uint64_t>(i));
                }
            });
        }
    }
    for (auto& t : clients) {
        t.join();
    }

    nn::ExecutionContext ctx;
    for (std::size_t e = 0; e < n_endpoints; ++e) {
        for (int i = 0; i < kPerEndpoint; ++i) {
            const Tensor got =
                futures[e][static_cast<std::size_t>(i)].get();
            const Tensor want = fx.reference(
                *endpoints[e].second,
                acts[static_cast<std::size_t>(i)],
                static_cast<std::uint64_t>(i), ctx);
            testing::expect_tensors_near(
                got, want.reshaped(got.shape()), 0.0,
                (endpoints[e].first + " id " + std::to_string(i))
                    .c_str());
        }
    }

    EXPECT_EQ(engine.stats().requests,
              static_cast<std::int64_t>(n_endpoints) * kPerEndpoint);
}

TEST(ScaleOut, RepeatedRunsAreBitIdentical)
{
    // The same workload served twice by two differently-sharded
    // engines (1×2 vs 4×1) must agree bit for bit: shard placement
    // must never leak into results.
    Fixture fx;
    const core::NoiseCollection coll = fx.collection(3);
    constexpr int kRequests = 16;
    std::vector<Tensor> acts;
    for (int i = 0; i < kRequests; ++i) {
        acts.push_back(fx.sample_activation());
    }

    const auto serve = [&](unsigned shards, unsigned per_shard) {
        ServingEngineConfig ec;
        ec.shards = shards;
        ec.threads_per_shard = per_shard;
        ServingEngine engine(ec);
        EndpointConfig ep;
        ep.max_batch = 1;
        ep.batch_timeout_ms = 0.0;
        engine.register_endpoint(
            "ep", fx.model,
            std::make_shared<ReplayPolicy>(coll, 99), ep);
        std::vector<std::future<Tensor>> futures;
        for (int i = 0; i < kRequests; ++i) {
            futures.push_back(
                engine.submit("ep", acts[static_cast<std::size_t>(i)],
                              static_cast<std::uint64_t>(i)));
        }
        std::vector<Tensor> out;
        for (auto& f : futures) {
            out.push_back(f.get());
        }
        return out;
    };

    const std::vector<Tensor> serial = serve(1, 2);
    const std::vector<Tensor> sharded = serve(4, 1);
    ASSERT_EQ(serial.size(), sharded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        testing::expect_tensors_near(
            sharded[i], serial[i], 0.0,
            ("1-shard vs 4-shard request " + std::to_string(i))
                .c_str());
    }
}

// ---------------------------------------------------------------------
// Shard placement and introspection
// ---------------------------------------------------------------------

TEST(ScaleOut, PlacementByNameByIndexAndRoundRobin)
{
    Fixture fx;
    ServingEngineConfig ec;
    ec.shards = 3;
    ec.threads_per_shard = 1;
    ServingEngine engine(ec);
    EndpointConfig ep;
    ep.max_batch = 1;
    ep.batch_timeout_ms = 0.0;

    // Explicit by name, explicit by index, then two round-robin.
    EndpointConfig by_name = ep;
    by_name.shard = "shard2";
    engine.register_endpoint("named", fx.model,
                             std::make_shared<NoNoisePolicy>(), by_name);
    EXPECT_EQ(engine.shard_of("named"), "shard2");

    EndpointConfig by_index = ep;
    by_index.shard = "1";
    engine.register_endpoint("indexed", fx.model,
                             std::make_shared<NoNoisePolicy>(),
                             by_index);
    EXPECT_EQ(engine.shard_of("indexed"), "shard1");

    // Round-robin ignores the explicitly-placed endpoints: the cursor
    // only advances on round-robin registrations.
    engine.register_endpoint("rr0", fx.model,
                             std::make_shared<NoNoisePolicy>(), ep);
    engine.register_endpoint("rr1", fx.model,
                             std::make_shared<NoNoisePolicy>(), ep);
    EXPECT_EQ(engine.shard_of("rr0"), "shard0");
    EXPECT_EQ(engine.shard_of("rr1"), "shard1");

    const auto info = engine.shard_info();
    ASSERT_EQ(info.size(), 3u);
    EXPECT_EQ(info[0].name, "shard0");
    ASSERT_EQ(info[1].endpoints.size(), 2u);
    EXPECT_EQ(info[1].endpoints[0], "indexed");
    EXPECT_EQ(info[1].endpoints[1], "rr1");
    ASSERT_EQ(info[2].endpoints.size(), 1u);
    EXPECT_EQ(info[2].endpoints[0], "named");

    // Every placed endpoint still actually serves.
    for (const char* name : {"named", "indexed", "rr0", "rr1"}) {
        const Tensor a = fx.sample_activation();
        EXPECT_NO_THROW(engine.infer(name, a)) << name;
    }
}

TEST(ScaleOut, UnknownShardIsTypedBadBundle)
{
    Fixture fx;
    ServingEngineConfig ec;
    ec.shards = 2;
    ServingEngine engine(ec);
    EndpointConfig ep;
    ep.shard = "shard9";
    try {
        engine.register_endpoint("bad", fx.model,
                                 std::make_shared<NoNoisePolicy>(), ep);
        ADD_FAILURE() << "expected kBadBundle for unknown shard";
    } catch (const ServingError& e) {
        EXPECT_EQ(e.code(), ServingErrorCode::kBadBundle) << e.what();
    }
    EXPECT_FALSE(engine.has_endpoint("bad"));

    // Out-of-range numeric placement is rejected the same way.
    ep.shard = "7";
    try {
        engine.register_endpoint("bad2", fx.model,
                                 std::make_shared<NoNoisePolicy>(), ep);
        ADD_FAILURE() << "expected kBadBundle for shard index 7 of 2";
    } catch (const ServingError& e) {
        EXPECT_EQ(e.code(), ServingErrorCode::kBadBundle) << e.what();
    }

    // A failed registration must not skew the round-robin cursor.
    EndpointConfig rr;
    rr.max_batch = 1;
    rr.batch_timeout_ms = 0.0;
    engine.register_endpoint("first", fx.model,
                             std::make_shared<NoNoisePolicy>(), rr);
    EXPECT_EQ(engine.shard_of("first"), "shard0");
}

TEST(ScaleOut, DefaultEngineIsOneShardOfOneWorker)
{
    // The default config is the whole serving thread budget at its
    // smallest: one shard of one worker, everything on shard0.
    Fixture fx;
    ServingEngine engine;
    engine.register_endpoint("ep", fx.model,
                             std::make_shared<NoNoisePolicy>());
    EXPECT_EQ(engine.shard_of("ep"), "shard0");
    const auto info = engine.shard_info();
    ASSERT_EQ(info.size(), 1u);
    EXPECT_EQ(info[0].threads, 1u);
    ASSERT_EQ(info[0].endpoints.size(), 1u);

    nn::ExecutionContext ctx;
    const Tensor a = fx.sample_activation();
    const Tensor got = engine.infer("ep", a);
    const Tensor want =
        fx.model.cloud_forward(a.reshaped(fx.act_shape), ctx,
                               nn::Mode::kEval);
    testing::expect_tensors_near(got, want.reshaped(got.shape()), 0.0,
                                 "single-shard vs direct");

    EXPECT_THROW(engine.shard_of("missing"), ServingError);
}

TEST(ScaleOut, ConvCloudHalfBatchedOnAShardIsBitExact)
{
    // LeNet split at its FIRST conv cut, so the cloud half runs
    // Conv2d::forward (and a max-pool) on every batch. Served on one
    // shard of two workers in full batches of 8, the conv's per-sample
    // loop runs inline on the worker that took the batch. The reference
    // runs the same 8 rows through policy.apply and one cloud_forward
    // on this thread, where the loop fans out over the global pool:
    // chunking must not change a bit.
    Rng rng(43);
    const auto net = models::make_lenet(rng);
    split::SplitModel model(*net, split::conv_cut_points(*net).front());
    const Shape batch1 = model.activation_shape(Shape({1, 28, 28}));
    const Shape per_sample({batch1[1], batch1[2], batch1[3]});
    core::NoiseCollection coll;
    for (int i = 0; i < 4; ++i) {
        core::NoiseSample s;
        s.noise = Tensor::laplace(per_sample, rng, 0.0f, 0.5f);
        coll.add(std::move(s));
    }
    const auto policy = std::make_shared<SamplePolicy>(
        core::NoiseDistribution::fit(coll), 0x5A3EULL);

    constexpr std::int64_t kBatch = 8;
    constexpr int kRounds = 3;
    ServingEngineConfig ec;
    ec.threads_per_shard = 2;
    ServingEngine engine(ec);
    EndpointConfig ep;
    ep.max_batch = kBatch;
    ep.batch_timeout_ms = 10000.0;  // only a full batch ships
    engine.register_endpoint("conv", model, policy, ep);

    nn::ExecutionContext ctx;
    for (int round = 0; round < kRounds; ++round) {
        std::vector<std::future<Tensor>> futures;
        Tensor reference_in(
            Shape({kBatch, per_sample[0], per_sample[1], per_sample[2]}));
        for (std::int64_t i = 0; i < kBatch; ++i) {
            const auto id = static_cast<std::uint64_t>(round * kBatch + i);
            const Tensor a = Tensor::normal(per_sample, rng);
            futures.push_back(engine.submit("conv", a, id));
            const Tensor noisy = policy->apply(a, id);
            std::copy(noisy.data(), noisy.data() + noisy.size(),
                      reference_in.data() + i * noisy.size());
        }
        const Tensor want = model.cloud_forward(reference_in, ctx,
                                                nn::Mode::kEval);
        const std::int64_t classes = want.shape()[1];
        for (std::int64_t i = 0; i < kBatch; ++i) {
            const Tensor got = futures[static_cast<std::size_t>(i)].get();
            ASSERT_EQ(got.size(), classes);
            Tensor want_row(Shape({classes}));
            std::copy(want.data() + i * classes,
                      want.data() + (i + 1) * classes, want_row.data());
            testing::expect_tensors_near(
                got, want_row, 0.0,
                ("round " + std::to_string(round) + " row " +
                 std::to_string(i))
                    .c_str());
        }
    }
    const runtime::ServerStats stats = engine.stats("conv");
    EXPECT_EQ(stats.requests, kRounds * kBatch);
    EXPECT_EQ(stats.batches, kRounds);
    EXPECT_EQ(stats.max_batch_seen, kBatch);
}

TEST(ScaleOutDeath, ZeroThreadsPerShardExitsWithOne)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ServingEngineConfig ec;
    ec.threads_per_shard = 0;
    EXPECT_EXIT({ ServingEngine engine(ec); },
                ::testing::ExitedWithCode(1), "threads_per_shard");
}

TEST(ScaleOutDeath, ZeroShardsExitsWithOne)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ServingEngineConfig ec;
    ec.shards = 0;
    EXPECT_EXIT({ ServingEngine engine(ec); },
                ::testing::ExitedWithCode(1), "shards must be >= 1");
}

TEST(ScaleOut, DeregisterRemovesFromShardAndKeepsOthersServing)
{
    Fixture fx;
    ServingEngineConfig ec;
    ec.shards = 2;
    ec.threads_per_shard = 1;
    ServingEngine engine(ec);
    EndpointConfig ep;
    ep.max_batch = 1;
    ep.batch_timeout_ms = 0.0;
    engine.register_endpoint("keep", fx.model,
                             std::make_shared<NoNoisePolicy>(), ep);
    engine.register_endpoint("drop", fx.model,
                             std::make_shared<NoNoisePolicy>(), ep);
    ASSERT_EQ(engine.shard_of("drop"), "shard1");

    engine.deregister_endpoint("drop");
    EXPECT_FALSE(engine.has_endpoint("drop"));
    for (const auto& shard : engine.shard_info()) {
        for (const auto& name : shard.endpoints) {
            EXPECT_NE(name, "drop");
        }
    }
    EXPECT_THROW(engine.deregister_endpoint("drop"), ServingError);

    // The survivor still serves on its shard.
    const Tensor a = fx.sample_activation();
    EXPECT_NO_THROW(engine.infer("keep", a));

    // The freed slot is reusable.
    engine.register_endpoint("drop", fx.model,
                             std::make_shared<NoNoisePolicy>(), ep);
    EXPECT_TRUE(engine.has_endpoint("drop"));
}

}  // namespace
}  // namespace shredder
