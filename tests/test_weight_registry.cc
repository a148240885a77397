/**
 * @file
 * Weight-registry suite: content-addressed interning of cloud weights
 * at bundle load. Same-backbone endpoints must alias ONE network (by
 * address, with `weights_dedupe_bytes` accounting), different weights
 * must never alias, the registry must survive endpoint churn, and
 * aliasing must be invisible in results (cold-start bit-exactness).
 */
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/noise_collection.h"
#include "src/core/noise_distribution.h"
#include "src/deploy/bundle.h"
#include "src/deploy/weight_registry.h"
#include "src/models/zoo.h"
#include "src/nn/conv2d.h"
#include "src/nn/pool.h"
#include "src/runtime/serving_engine.h"
#include "src/split/split_model.h"
#include "src/tensor/ops.h"
#include "tests/test_util.h"

namespace shredder {
namespace {

using runtime::ServingEngine;
using runtime::ServingError;
using runtime::ServingErrorCode;

std::string
temp_path(const std::string& name)
{
    return ::testing::TempDir() + name;
}

/** A LeNet + replay collection saved as a deployment bundle. */
struct Fixture
{
    explicit Fixture(std::uint64_t seed = 63)
        : rng(seed), net(models::make_lenet(rng)),
          cut(split::conv_cut_points(*net).back()), model(*net, cut),
          input({1, 28, 28}), act_shape(model.activation_shape(input))
    {
        for (int i = 0; i < 3; ++i) {
            core::NoiseSample s;
            s.noise = Tensor::laplace(per_sample(), rng, 0.0f, 1.0f);
            collection.add(std::move(s));
        }
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

    /** Save this fixture's artifacts as a replay bundle. */
    std::string
    save(const std::string& filename, std::uint64_t policy_seed = 17)
    {
        const core::NoiseDistribution dist =
            core::NoiseDistribution::fit(collection);
        deploy::PolicySpec spec;
        spec.kind = deploy::PolicyKind::kReplay;
        spec.seed = policy_seed;
        deploy::BundleContents contents;
        contents.network = net.get();
        contents.cut = cut;
        contents.input_shape = input;
        contents.policy = spec;
        contents.collection = &collection;
        contents.distribution = &dist;
        const std::string path = temp_path(filename);
        deploy::save_bundle(path, contents);
        return path;
    }

    Rng rng;
    std::unique_ptr<nn::Sequential> net;
    std::int64_t cut;
    split::SplitModel model;
    Shape input;
    Shape act_shape;
    core::NoiseCollection collection;
};

// ---------------------------------------------------------------------
// The registry itself (no engine)
// ---------------------------------------------------------------------

TEST(WeightRegistry, InternAliasesIdenticalContentOnly)
{
    // Two networks built from the same seed have bit-identical
    // weights but distinct storage; a third from another seed differs.
    Rng rng_a(5);
    Rng rng_b(5);
    Rng rng_c(6);
    std::shared_ptr<nn::Sequential> a = models::make_lenet(rng_a);
    std::shared_ptr<nn::Sequential> b = models::make_lenet(rng_b);
    std::shared_ptr<nn::Sequential> c = models::make_lenet(rng_c);
    ASSERT_NE(a.get(), b.get());
    const std::int64_t param_bytes =
        a->num_parameters() *
        static_cast<std::int64_t>(sizeof(float));

    deploy::WeightRegistry registry;
    const auto canon_a = registry.intern(a);
    EXPECT_EQ(canon_a.get(), a.get()) << "first sight is canonical";
    EXPECT_EQ(registry.stats().unique_weight_sets, 1);
    EXPECT_EQ(registry.stats().weights_dedupe_bytes, 0);

    const auto canon_b = registry.intern(b);
    EXPECT_EQ(canon_b.get(), a.get()) << "identical content aliases";
    EXPECT_EQ(registry.stats().interned_networks, 2);
    EXPECT_EQ(registry.stats().unique_weight_sets, 1);
    EXPECT_EQ(registry.stats().weights_dedupe_bytes, param_bytes);

    const auto canon_c = registry.intern(c);
    EXPECT_NE(canon_c.get(), a.get()) << "different weights split";
    EXPECT_EQ(registry.stats().unique_weight_sets, 2);
    EXPECT_EQ(registry.stats().weights_dedupe_bytes, param_bytes);

    // Interning the canonical itself is a no-cost alias.
    EXPECT_EQ(registry.intern(canon_a).get(), a.get());
    EXPECT_EQ(registry.stats().weights_dedupe_bytes, 2 * param_bytes);
}

/** conv → maxpool with seeded weights; the knobs touch no parameter. */
std::shared_ptr<nn::Sequential>
conv_pool(std::int64_t conv_padding, std::int64_t pool_stride)
{
    Rng rng(9);
    auto net = std::make_shared<nn::Sequential>();
    net->emplace<nn::Conv2d>(
        nn::Conv2dConfig{1, 2, 3, 1, conv_padding, true}, rng);
    net->emplace<nn::MaxPool2d>(nn::PoolConfig{2, pool_stride, 0});
    return net;
}

/** Overwrite the first weight of `net`'s first layer with `value`. */
void
set_first_weight(nn::Sequential& net, float value)
{
    net.layer(0).parameters().front()->value[0] = value;
}

TEST(WeightRegistry, SameParametersUnderAnotherConfigNeverAlias)
{
    deploy::WeightRegistry registry;
    const auto base = conv_pool(0, 2);
    const auto other_stride = conv_pool(0, 1);
    const auto other_padding = conv_pool(1, 2);
    ASSERT_EQ(registry.intern(base).get(), base.get());
    EXPECT_EQ(registry.intern(other_stride).get(), other_stride.get())
        << "a MaxPool2d stride is part of the content";
    EXPECT_EQ(registry.intern(other_padding).get(), other_padding.get())
        << "a Conv2d padding is part of the content";
    EXPECT_EQ(registry.stats().unique_weight_sets, 3);
    EXPECT_EQ(registry.stats().weights_dedupe_bytes, 0);
    // The control: the same config and weights do alias.
    EXPECT_EQ(registry.intern(conv_pool(0, 2)).get(), base.get());
}

TEST(WeightRegistry, SignedZerosNeverAlias)
{
    deploy::WeightRegistry registry;
    const auto positive = conv_pool(0, 2);
    const auto negative = conv_pool(0, 2);
    set_first_weight(*positive, 0.0f);
    set_first_weight(*negative, -0.0f);
    ASSERT_EQ(registry.intern(positive).get(), positive.get());
    EXPECT_EQ(registry.intern(negative).get(), negative.get())
        << "-0.0 and +0.0 are different bytes";
    EXPECT_EQ(registry.stats().unique_weight_sets, 2);
}

TEST(WeightRegistry, IdenticalNanPayloadsAlias)
{
    deploy::WeightRegistry registry;
    const auto a = conv_pool(0, 2);
    const auto b = conv_pool(0, 2);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    set_first_weight(*a, nan);
    set_first_weight(*b, nan);
    ASSERT_EQ(registry.intern(a).get(), a.get());
    EXPECT_EQ(registry.intern(b).get(), a.get())
        << "equal NaN bits are equal bytes, though NaN != NaN";
    EXPECT_EQ(registry.stats().unique_weight_sets, 1);
}

// ---------------------------------------------------------------------
// Through the engine: bundle-backed endpoints
// ---------------------------------------------------------------------

TEST(WeightRegistry, SameBackboneEndpointsAliasOneNetwork)
{
    Fixture fx;
    const std::string path = fx.save("wr_same.shrb");
    ServingEngine engine;
    engine.register_endpoint_from_bundle("a", path);
    engine.register_endpoint_from_bundle("b", path);

    // Both endpoints answer from ONE canonical network object.
    const deploy::Bundle* ba = engine.bundle("a");
    const deploy::Bundle* bb = engine.bundle("b");
    ASSERT_NE(ba, nullptr);
    ASSERT_NE(bb, nullptr);
    EXPECT_EQ(&ba->network(), &bb->network())
        << "same-backbone endpoints must alias one weight set";

    const deploy::WeightRegistryStats stats =
        engine.weight_registry_stats();
    EXPECT_EQ(stats.interned_networks, 2);
    EXPECT_EQ(stats.unique_weight_sets, 1);
    EXPECT_GT(stats.weights_dedupe_bytes, 0);

    // Identical (endpoint, id) traffic gets identical answers.
    const Tensor a = fx.sample_activation();
    const Tensor via_a = engine.submit("a", a, 9).get();
    const Tensor via_b = engine.submit("b", a, 9).get();
    testing::expect_tensors_near(via_a, via_b, 0.0,
                                 "aliased endpoints, same id");
}

TEST(WeightRegistry, DifferentWeightsNeverAlias)
{
    Fixture fx_a(100);
    Fixture fx_b(200);
    const std::string path_a = fx_a.save("wr_diff_a.shrb");
    const std::string path_b = fx_b.save("wr_diff_b.shrb");
    ServingEngine engine;
    engine.register_endpoint_from_bundle("a", path_a);
    engine.register_endpoint_from_bundle("b", path_b);

    EXPECT_NE(&engine.bundle("a")->network(),
              &engine.bundle("b")->network());
    const deploy::WeightRegistryStats stats =
        engine.weight_registry_stats();
    EXPECT_EQ(stats.interned_networks, 2);
    EXPECT_EQ(stats.unique_weight_sets, 2);
    EXPECT_EQ(stats.weights_dedupe_bytes, 0);
}

TEST(WeightRegistry, SurvivesDeregistrationAndReAliases)
{
    Fixture fx;
    const std::string path = fx.save("wr_churn.shrb");
    ServingEngine engine;
    engine.register_endpoint_from_bundle("a", path);
    engine.register_endpoint_from_bundle("b", path);
    const std::int64_t deduped_once =
        engine.weight_registry_stats().weights_dedupe_bytes;
    ASSERT_GT(deduped_once, 0);
    const nn::Sequential* canonical = &engine.bundle("a")->network();

    // Dropping an aliased endpoint must not disturb its sibling.
    engine.deregister_endpoint("a");
    EXPECT_FALSE(engine.has_endpoint("a"));
    const Tensor act = fx.sample_activation();
    EXPECT_NO_THROW(engine.submit("b", act, 1).get());

    // A re-registration re-aliases against the SAME canonical set —
    // the registry outlives endpoint churn.
    engine.register_endpoint_from_bundle("a2", path);
    EXPECT_EQ(&engine.bundle("a2")->network(), canonical);
    const deploy::WeightRegistryStats stats =
        engine.weight_registry_stats();
    EXPECT_EQ(stats.interned_networks, 3);
    EXPECT_EQ(stats.unique_weight_sets, 1);
    EXPECT_GT(stats.weights_dedupe_bytes, deduped_once);

    const Tensor via_a2 = engine.submit("a2", act, 7).get();
    const Tensor via_b = engine.submit("b", act, 7).get();
    testing::expect_tensors_near(via_a2, via_b, 0.0,
                                 "re-registered alias, same id");
}

TEST(WeightRegistry, AliasingIsInvisibleInResults)
{
    // Cold-start determinism: an engine whose endpoint aliases a
    // shared weight set answers bit-exactly like a fresh engine with
    // no aliasing at all, and both match the in-process model.
    Fixture fx;
    const std::string path = fx.save("wr_exact.shrb");

    std::vector<Tensor> acts;
    for (int i = 0; i < 6; ++i) {
        acts.push_back(fx.sample_activation());
    }

    const auto serve = [&](bool aliased) {
        ServingEngine engine;
        engine.register_endpoint_from_bundle("ep", path);
        if (aliased) {
            engine.register_endpoint_from_bundle("twin", path);
            EXPECT_GT(
                engine.weight_registry_stats().weights_dedupe_bytes, 0);
        }
        std::vector<Tensor> out;
        for (std::size_t i = 0; i < acts.size(); ++i) {
            out.push_back(
                engine.submit("ep", acts[i],
                              static_cast<std::uint64_t>(i)).get());
        }
        return out;
    };

    const std::vector<Tensor> plain = serve(false);
    const std::vector<Tensor> aliased = serve(true);
    ASSERT_EQ(plain.size(), aliased.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        testing::expect_tensors_near(
            aliased[i], plain[i], 0.0,
            ("aliased vs plain request " + std::to_string(i)).c_str());
    }
}

}  // namespace
}  // namespace shredder
