/**
 * @file
 * Tests for the noise-policy abstraction. The generic guarantees —
 * purity in the request id, apply_into ≡ apply, shape preservation,
 * concurrent determinism, offline-recipe reproducibility — are pinned
 * by the shared conformance suite (tests/policy_contract.h),
 * instantiated here for the core policies (none/replay/sample/fixed
 * plus the wire-codec QuantizePolicy). What remains below is
 * the mechanism-specific behavior the suite cannot know: constructor
 * conveniences and misuse death tests. (The shuffle/composed
 * instantiations live in tests/test_shuffle_policy.cc.)
 */
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/noise_collection.h"
#include "src/core/noise_distribution.h"
#include "src/core/privacy_meter.h"
#include "src/runtime/noise_policy.h"
#include "src/tensor/ops.h"
#include "src/tensor/quantize.h"
#include "tests/policy_contract.h"
#include "tests/test_util.h"

namespace shredder {
namespace {

using runtime::FixedNoisePolicy;
using runtime::NoNoisePolicy;
using runtime::ReplayPolicy;
using runtime::SamplePolicy;
using runtime::noise_seed;
using testing::PolicyContract;

constexpr std::uint64_t kSeed = 0xBADF00DULL;

Shape
noise_shape()
{
    return Shape({4, 5, 5});
}

core::NoiseCollection
make_collection(int n, std::uint64_t seed = 99)
{
    Rng rng(seed);
    core::NoiseCollection c;
    for (int i = 0; i < n; ++i) {
        core::NoiseSample s;
        s.noise = Tensor::normal(noise_shape(), rng);
        c.add(std::move(s));
    }
    return c;
}

// ---------------------------------------------------------------------
// Conformance: the four core policies under the shared contract suite.
// Factories own their backing artifacts via shared_ptr captures, since
// a ReplayPolicy borrows its collection.
// ---------------------------------------------------------------------

std::vector<testing::PolicyContractCase>
core_policy_cases()
{
    std::vector<testing::PolicyContractCase> cases;
    {
        testing::PolicyContractCase c;
        c.label = "none";
        c.activation_shape = noise_shape();
        c.make = [] { return std::make_shared<NoNoisePolicy>(); };
        c.id_sensitive = false;
        c.offline_recipe = [](const Tensor& a, std::uint64_t) {
            return a;  // the identity IS the recipe
        };
        cases.push_back(std::move(c));
    }
    {
        const auto coll = std::make_shared<core::NoiseCollection>(
            make_collection(4));
        testing::PolicyContractCase c;
        c.label = "replay";
        c.activation_shape = noise_shape();
        c.make = [coll] {
            return std::make_shared<ReplayPolicy>(*coll, kSeed);
        };
        // The documented offline replay: draw under Rng(noise_seed).
        c.offline_recipe = [coll](const Tensor& a, std::uint64_t id) {
            Rng draw_rng(noise_seed(kSeed, id));
            return ops::add(a, coll->draw(draw_rng).noise);
        };
        cases.push_back(std::move(c));
    }
    {
        const auto dist = std::make_shared<core::NoiseDistribution>(
            core::NoiseDistribution::fit(make_collection(3)));
        testing::PolicyContractCase c;
        c.label = "sample";
        c.activation_shape = noise_shape();
        c.make = [dist] {
            return std::make_shared<SamplePolicy>(*dist, kSeed);
        };
        c.offline_recipe = [dist](const Tensor& a, std::uint64_t id) {
            Rng draw_rng(noise_seed(kSeed, id));
            return ops::add(a, dist->sample(draw_rng));
        };
        cases.push_back(std::move(c));
    }
    {
        Rng rng(9);
        const auto noise = std::make_shared<Tensor>(
            Tensor::normal(noise_shape(), rng));
        testing::PolicyContractCase c;
        c.label = "fixed";
        c.activation_shape = noise_shape();
        c.make = [noise] {
            return std::make_shared<FixedNoisePolicy>(*noise);
        };
        c.id_sensitive = false;
        c.offline_recipe = [noise](const Tensor& a, std::uint64_t) {
            return ops::add(a, *noise);
        };
        cases.push_back(std::move(c));
    }
    {
        testing::PolicyContractCase c;
        c.label = "quant_int8";
        c.activation_shape = noise_shape();
        c.make = [] {
            return std::make_shared<runtime::QuantizePolicy>(
                WireDtype::kI8);
        };
        c.id_sensitive = false;  // the codec ignores the request id
        c.offline_recipe = [](const Tensor& a, std::uint64_t) {
            return dequantize(quantize(a, WireDtype::kI8));
        };
        cases.push_back(std::move(c));
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(CorePolicies, PolicyContract,
                         ::testing::ValuesIn(core_policy_cases()),
                         testing::policy_contract_name);

// ---------------------------------------------------------------------
// Mechanism-specific behavior the generic suite cannot know.
// ---------------------------------------------------------------------

TEST(NoisePolicy, NamesAndShapeContracts)
{
    const core::NoiseCollection coll = make_collection(3);
    const core::NoiseDistribution dist =
        core::NoiseDistribution::fit(coll);
    Rng rng(9);
    const Tensor noise = Tensor::normal(noise_shape(), rng);

    const NoNoisePolicy none;
    EXPECT_EQ(none.name(), "none");
    EXPECT_EQ(none.noise_shape().rank(), 0);

    const ReplayPolicy replay(coll, kSeed);
    EXPECT_EQ(replay.name(), "replay");
    EXPECT_EQ(replay.noise_shape().to_string(),
              noise_shape().to_string());

    const SamplePolicy sample(dist, kSeed);
    EXPECT_EQ(sample.name(), "sample");
    EXPECT_EQ(sample.noise_shape().to_string(),
              noise_shape().to_string());

    const FixedNoisePolicy fixed(noise);
    EXPECT_EQ(fixed.name(), "fixed");
    EXPECT_EQ(fixed.noise_shape().to_string(),
              noise_shape().to_string());
}

TEST(SamplePolicy, FreshNoiseAcrossIdsAndSeeds)
{
    // The information-destruction point: distinct ids draw fresh
    // noise, and another root seed draws differently still.
    const core::NoiseDistribution dist =
        core::NoiseDistribution::fit(make_collection(3));
    SamplePolicy policy(dist, kSeed);
    Rng rng(7);
    const Tensor a = Tensor::normal(noise_shape(), rng);
    const Tensor first = policy.apply(a, 3);
    EXPECT_GT(ops::max_abs_diff(first, policy.apply(a, 4)), 1e-4);
    SamplePolicy reseeded(dist, kSeed + 1);
    EXPECT_GT(ops::max_abs_diff(first, reseeded.apply(a, 3)), 1e-4);
}

TEST(SamplePolicy, FitConvenienceConstructorMatchesExplicitFit)
{
    const core::NoiseCollection coll = make_collection(3);
    SamplePolicy from_coll(coll, core::NoiseFamily::kLaplace, kSeed);
    SamplePolicy from_dist(core::NoiseDistribution::fit(coll), kSeed);
    Rng rng(8);
    const Tensor a = Tensor::normal(noise_shape(), rng);
    testing::expect_tensors_near(from_coll.apply(a, 11),
                                 from_dist.apply(a, 11), 0.0,
                                 "fit convenience ctor");
}

TEST(NoisePolicyDeath, ReplayPolicyRejectsEmptyCollection)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    core::NoiseCollection empty;
    EXPECT_EXIT({ ReplayPolicy policy(empty, 1); },
                ::testing::ExitedWithCode(1), "non-empty");
}

TEST(NoisePolicyDeath, SizeMismatchIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const core::NoiseCollection coll = make_collection(2);
    ReplayPolicy policy(coll, 1);
    EXPECT_EXIT({ policy.apply(Tensor::zeros(Shape({3})), 0); },
                ::testing::ExitedWithCode(1), "does not match");
}

}  // namespace
}  // namespace shredder
