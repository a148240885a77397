/**
 * @file
 * Tests for the deployment-artifact subsystem: the `SARC` architecture
 * codec, `NoiseDistribution`/`NoiseCollection` stream persistence, the
 * `SHBL` bundle round trip, manifest cold-start, and — most important —
 * the trust-boundary contract: every malformed artifact yields a typed
 * `ServingError` (`kBadBundle` / `kVersionMismatch`), never a process
 * abort, and a `ServingEngine` endpoint cold-started from a bundle is
 * BIT-EXACT with the in-process (model, policy) it was saved from, for
 * both replay and sample policies.
 */
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/core/noise_collection.h"
#include "src/core/noise_distribution.h"
#include "src/deploy/bundle.h"
#include "src/models/zoo.h"
#include "src/nn/activations.h"
#include "src/nn/arch.h"
#include "src/nn/conv2d.h"
#include "src/nn/dropout.h"
#include "src/nn/extras.h"
#include "src/nn/flatten.h"
#include "src/nn/linear.h"
#include "src/nn/lrn.h"
#include "src/nn/pool.h"
#include "src/runtime/noise_policy.h"
#include "src/runtime/serving_engine.h"
#include "src/split/split_model.h"
#include "src/tensor/ops.h"
#include "src/tensor/serialize.h"
#include "tests/alloc_probe.h"

namespace shredder {
namespace {

using runtime::EndpointConfig;
using runtime::ReplayPolicy;
using runtime::SamplePolicy;
using runtime::ServingEngine;
using runtime::ServingError;
using runtime::ServingErrorCode;

std::string
temp_path(const std::string& name)
{
    return ::testing::TempDir() + name;
}

/** Read a whole file as bytes. */
std::string
slurp(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream oss;
    oss << is.rdbuf();
    return oss.str();
}

/** Write bytes to a file. */
void
spew(const std::string& path, const std::string& bytes)
{
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Expect `load_bundle` to fail with the given typed code. */
void
expect_load_error(const std::string& path, ServingErrorCode expected)
{
    try {
        (void)deploy::load_bundle(path);
        ADD_FAILURE() << "expected ServingError "
                      << runtime::to_string(expected) << " for " << path;
    } catch (const ServingError& e) {
        EXPECT_EQ(e.code(), expected) << e.what();
    } catch (const std::exception& e) {
        ADD_FAILURE() << "expected ServingError, got " << e.what();
    }
}

/** A LeNet fixture with a learned-looking collection at the last cut. */
struct Fixture
{
    explicit Fixture(std::uint64_t seed = 51)
        : rng(seed), net(models::make_lenet(rng)),
          cut(split::conv_cut_points(*net).back()), model(*net, cut),
          input({1, 28, 28}),
          act_shape(model.activation_shape(input))
    {
        for (int i = 0; i < 4; ++i) {
            core::NoiseSample s;
            s.noise = Tensor::laplace(per_sample(), rng, 0.0f, 1.5f);
            s.in_vivo_privacy = 2.0 + i;
            s.train_accuracy = 0.9;
            collection.add(std::move(s));
        }
    }

    Shape
    per_sample() const
    {
        return Shape({act_shape[1], act_shape[2], act_shape[3]});
    }

    /** Save a bundle of this fixture's artifacts; returns the path. */
    std::string
    save(deploy::PolicyKind kind, std::uint64_t policy_seed,
         const std::string& filename)
    {
        deploy::PolicySpec spec;
        spec.kind = kind;
        spec.seed = policy_seed;
        return save_spec(spec, filename);
    }

    /** Save under a full policy spec (shuffle/composed encodings). */
    std::string
    save_spec(const deploy::PolicySpec& spec, const std::string& filename)
    {
        const core::NoiseDistribution dist =
            core::NoiseDistribution::fit(collection);
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
    Shape act_shape;  ///< Batched ([1, C, H, W]).
    core::NoiseCollection collection;
};

// -- Architecture codec ---------------------------------------------------

TEST(ArchCodec, RoundTripRebuildsTopologyAndParams)
{
    Rng rng(3);
    auto net = models::make_lenet(rng);
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    nn::save_arch(ss, *net);

    auto rebuilt = nn::load_arch(ss);
    ASSERT_EQ(rebuilt->size(), net->size());
    for (std::int64_t i = 0; i < net->size(); ++i) {
        EXPECT_EQ(rebuilt->layer(i).kind(), net->layer(i).kind()) << i;
    }
    EXPECT_EQ(rebuilt->num_parameters(), net->num_parameters());

    // Forward bit-exactness on a random batch.
    Tensor x = Tensor::uniform(Shape({2, 1, 28, 28}), rng);
    nn::ExecutionContext ctx_a, ctx_b;
    Tensor ya = net->forward(x, ctx_a, nn::Mode::kEval);
    Tensor yb = rebuilt->forward(x, ctx_b, nn::Mode::kEval);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(ya, yb), 0.0);
}

TEST(ArchCodec, RoundTripCoversEveryConfiguredKind)
{
    // One network touching every kind that carries a config blob.
    Rng rng(4);
    nn::Sequential net;
    net.emplace<nn::Conv2d>(nn::Conv2dConfig{3, 4, 3, 1, 1, false}, rng);
    net.emplace<nn::LocalResponseNorm>(nn::LrnConfig{3, 2e-4f, 0.8f, 1.5f});
    net.emplace<nn::LeakyReLU>(0.07f);
    net.emplace<nn::AvgPool2d>(nn::PoolConfig{2, 2, 0});
    net.emplace<nn::Crop2d>(3, 3);
    net.emplace<nn::Dropout>(0.4f);
    net.emplace<nn::Flatten>();
    net.emplace<nn::Linear>(4 * 3 * 3, 5, rng, /*with_bias=*/false);
    net.emplace<nn::Softmax>();

    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    nn::save_arch(ss, net);
    auto rebuilt = nn::load_arch(ss);

    Tensor x = Tensor::uniform(Shape({2, 3, 8, 8}), rng);
    nn::ExecutionContext ctx_a, ctx_b;
    Tensor ya = net.forward(x, ctx_a, nn::Mode::kEval);
    Tensor yb = rebuilt->forward(x, ctx_b, nn::Mode::kEval);
    EXPECT_EQ(ya.shape(), yb.shape());
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(ya, yb), 0.0);
}

TEST(ArchCodec, MalformedStreamsThrowTyped)
{
    Rng rng(5);
    auto net = models::make_lenet(rng);
    std::ostringstream oss(std::ios::binary);
    nn::save_arch(oss, *net);
    const std::string bytes = oss.str();

    {  // Truncation at every interesting boundary must throw, not die.
        for (const std::size_t cutoff :
             {std::size_t{2}, std::size_t{7}, std::size_t{20},
              bytes.size() / 2, bytes.size() - 3}) {
            std::istringstream is(bytes.substr(0, cutoff),
                                  std::ios::binary);
            EXPECT_THROW(nn::load_arch(is), SerializeError) << cutoff;
        }
    }
    {  // Bad magic.
        std::istringstream is("XXXX" + bytes.substr(4), std::ios::binary);
        EXPECT_THROW(nn::load_arch(is), SerializeError);
    }
    {  // Unknown layer tag.
        std::string mutated = bytes;
        const auto pos = mutated.find("conv2d");
        ASSERT_NE(pos, std::string::npos);
        mutated.replace(pos, 6, "conv9d");
        std::istringstream is(mutated, std::ios::binary);
        EXPECT_THROW(nn::load_arch(is), SerializeError);
    }

    // Layers are built around the tensors the stream holds, so none of
    // these may allocate more than the stream's own size.
    const auto expect_typed_and_bounded = [](const std::string& stream,
                                             const char* what) {
        std::istringstream is(stream, std::ios::binary);
        const test::LargestAllocation probe;
        EXPECT_THROW(nn::load_arch(is), SerializeError) << what;
        EXPECT_LE(probe.bytes(), stream.size()) << what;
    };
    // The first conv's config: after the tag, the blob length (u32),
    // then in_channels and out_channels (u64 each).
    const std::size_t conv = bytes.find("conv2d") + 6;
    const std::size_t in_channels = conv + 4;
    const std::size_t out_channels = in_channels + 8;
    const auto with_channels = [&bytes, in_channels, out_channels](
                                   std::uint64_t in, std::uint64_t out) {
        std::ostringstream dims(std::ios::binary);
        wire::write_u64(dims, in);
        wire::write_u64(dims, out);
        std::string mutated = bytes;
        mutated.replace(in_channels, 16, dims.str());
        return mutated;
    };
    ASSERT_EQ(with_channels(1, 6), bytes) << "LeNet's conv1 is 1->6";
    expect_typed_and_bounded(with_channels(3, 6),
                             "conv channels disagree with the weight");
    expect_typed_and_bounded(with_channels(2048, 2048),
                             "conv config claims 2048->2048 channels");

    // An SHRT header is magic, rank and a u64 per dim: 20 bytes for
    // the rank-2 conv weight, 16 for the rank-1 linear bias.
    const std::size_t conv_weight = bytes.find("SHRT", conv);
    expect_typed_and_bounded(bytes.substr(0, conv_weight + 20 + 100),
                             "truncated inside the first conv weight");
    const std::size_t linear_weight =
        bytes.find("SHRT", bytes.find("linear"));
    const std::size_t linear_bias = bytes.find("SHRT", linear_weight + 4);
    ASSERT_NE(linear_bias, std::string::npos);
    expect_typed_and_bounded(bytes.substr(0, linear_bias + 16 + 8),
                             "truncated inside the first linear bias");
}

TEST(ArchCodec, RegistryKnowsEveryZooKind)
{
    Rng rng(6);
    for (const char* name : {"lenet", "cifar", "svhn", "alexnet"}) {
        auto net = models::make_network(name, rng);
        for (std::int64_t i = 0; i < net->size(); ++i) {
            EXPECT_TRUE(nn::arch_registry_knows(net->layer(i).kind()))
                << name << " layer " << i << ": "
                << net->layer(i).kind();
        }
    }
}

// -- NoiseDistribution / NoiseCollection persistence ----------------------

TEST(NoiseDistributionIo, StreamAndFileRoundTrip)
{
    Fixture f;
    const core::NoiseDistribution dist =
        core::NoiseDistribution::fit(f.collection,
                                     core::NoiseFamily::kGaussian);

    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    dist.save(ss);
    const core::NoiseDistribution loaded =
        core::NoiseDistribution::load(ss);
    EXPECT_EQ(loaded.family(), dist.family());
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(loaded.location(), dist.location()),
                     0.0);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(loaded.scale(), dist.scale()), 0.0);

    // Same seed → bit-identical draws: the shipped fit IS the
    // mechanism.
    Rng a(99), b(99);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(dist.sample(a), loaded.sample(b)),
                     0.0);

    const std::string path = temp_path("dist_roundtrip.bin");
    dist.save(path);
    const core::NoiseDistribution from_file =
        core::NoiseDistribution::load(path);
    EXPECT_DOUBLE_EQ(
        ops::max_abs_diff(from_file.location(), dist.location()), 0.0);
    std::remove(path.c_str());
}

TEST(NoiseDistributionIo, MalformedStreamThrows)
{
    Fixture f;
    const core::NoiseDistribution dist =
        core::NoiseDistribution::fit(f.collection);
    std::ostringstream oss(std::ios::binary);
    dist.save(oss);
    const std::string bytes = oss.str();

    std::istringstream truncated(bytes.substr(0, bytes.size() / 2),
                                 std::ios::binary);
    EXPECT_THROW(core::NoiseDistribution::load(truncated), SerializeError);

    std::istringstream junk("not a distribution", std::ios::binary);
    EXPECT_THROW(core::NoiseDistribution::load(junk), SerializeError);
}

TEST(NoiseCollectionIo, StreamRoundTripKeepsMetadata)
{
    Fixture f;
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    f.collection.save(ss);
    const core::NoiseCollection loaded = core::NoiseCollection::load(ss);
    ASSERT_EQ(loaded.size(), f.collection.size());
    for (std::int64_t i = 0; i < loaded.size(); ++i) {
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(loaded.get(i).noise,
                                           f.collection.get(i).noise),
                         0.0);
        EXPECT_DOUBLE_EQ(loaded.get(i).in_vivo_privacy,
                         f.collection.get(i).in_vivo_privacy);
        EXPECT_DOUBLE_EQ(loaded.get(i).train_accuracy,
                         f.collection.get(i).train_accuracy);
    }

    std::istringstream truncated(ss.str().substr(0, 40),
                                 std::ios::binary);
    EXPECT_THROW(core::NoiseCollection::load(truncated), SerializeError);
}

// -- Bundle round trip ----------------------------------------------------

TEST(Bundle, SaveLoadPreservesEverything)
{
    Fixture f;
    const std::string path =
        f.save(deploy::PolicyKind::kReplay, 77, "bundle_full.shb");

    deploy::Bundle b = deploy::load_bundle(path);
    EXPECT_EQ(b.cut(), f.cut);
    EXPECT_EQ(b.input_shape(), f.input);
    EXPECT_EQ(b.activation_shape(), f.per_sample());
    EXPECT_EQ(b.policy_spec().kind, deploy::PolicyKind::kReplay);
    EXPECT_EQ(b.policy_spec().seed, 77u);
    EXPECT_EQ(b.collection().size(), f.collection.size());
    ASSERT_TRUE(b.has_distribution());
    EXPECT_EQ(b.network().size(), f.net->size());
    EXPECT_EQ(b.network().num_parameters(), f.net->num_parameters());

    // The rebuilt cloud half is bit-exact with the original.
    Tensor act = Tensor::normal(f.act_shape, f.rng);
    split::SplitModel rebuilt(b.network(), b.cut());
    nn::ExecutionContext ctx_a, ctx_b;
    EXPECT_DOUBLE_EQ(
        ops::max_abs_diff(f.model.cloud_forward(act, ctx_a),
                          rebuilt.cloud_forward(act, ctx_b)),
        0.0);
    std::remove(path.c_str());
}

// The acceptance pin: a ServingEngine endpoint cold-started from
// (bundle, manifest) produces bit-exact outputs vs the in-process
// (model, policy) it was saved from — replay policy.
TEST(Bundle, ColdStartReplayEndpointIsBitExactWithInProcess)
{
    Fixture f;
    const std::uint64_t seed = 1234;
    const std::string path =
        f.save(deploy::PolicyKind::kReplay, seed, "bundle_replay.shb");

    // In-process reference: the very objects the trainer held.
    const ReplayPolicy reference_policy(f.collection, seed);

    ServingEngine engine;
    engine.register_endpoint_from_bundle("lenet-replay", path);
    engine.register_endpoint(
        "in-process", f.model,
        std::make_shared<ReplayPolicy>(f.collection, seed));

    nn::ExecutionContext ref_ctx;
    for (std::uint64_t id = 0; id < 24; ++id) {
        const Tensor act = Tensor::normal(f.per_sample(), f.rng);
        const Tensor served =
            engine.submit("lenet-replay", act, id).get();
        const Tensor in_process =
            engine.submit("in-process", act, id).get();
        // Offline recipe: apply the policy, run the cloud half
        // serially.
        const Tensor offline =
            f.model
                .cloud_forward(
                    reference_policy.apply(act, id).reshaped(f.act_shape),
                    ref_ctx)
                .reshaped(Shape({10}));  // Server scatters rank-1 logits.
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(served, in_process), 0.0)
            << "id " << id;
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(served, offline), 0.0)
            << "id " << id;
    }
    std::remove(path.c_str());
}

// Same pin for the sample policy: the bundled fitted distribution must
// reproduce the in-process per-element draws exactly.
TEST(Bundle, ColdStartSampleEndpointIsBitExactWithInProcess)
{
    Fixture f;
    const std::uint64_t seed = 4321;
    const std::string path =
        f.save(deploy::PolicyKind::kSample, seed, "bundle_sample.shb");

    const core::NoiseDistribution dist =
        core::NoiseDistribution::fit(f.collection);
    const SamplePolicy reference_policy(dist, seed);

    ServingEngine engine;
    engine.register_endpoint_from_bundle("lenet-sample", path);
    engine.register_endpoint("in-process", f.model,
                             std::make_shared<SamplePolicy>(dist, seed));

    nn::ExecutionContext ref_ctx;
    for (std::uint64_t id = 0; id < 24; ++id) {
        const Tensor act = Tensor::normal(f.per_sample(), f.rng);
        const Tensor served =
            engine.submit("lenet-sample", act, id).get();
        const Tensor in_process =
            engine.submit("in-process", act, id).get();
        const Tensor offline =
            f.model
                .cloud_forward(
                    reference_policy.apply(act, id).reshaped(f.act_shape),
                    ref_ctx)
                .reshaped(Shape({10}));  // Server scatters rank-1 logits.
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(served, in_process), 0.0)
            << "id " << id;
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(served, offline), 0.0)
            << "id " << id;
    }
    std::remove(path.c_str());
}

// -- Shuffle / composed policy specs (format version 2) -------------------

TEST(Bundle, ShuffleAndComposedSpecsRoundTrip)
{
    Fixture f;
    {
        deploy::PolicySpec spec;
        spec.kind = deploy::PolicyKind::kShuffle;
        spec.seed = 31337;
        const std::string path = f.save_spec(spec, "spec_shuffle.shb");
        deploy::Bundle b = deploy::load_bundle(path);
        EXPECT_EQ(b.policy_spec().kind, deploy::PolicyKind::kShuffle);
        EXPECT_EQ(b.policy_spec().seed, 31337u);
        EXPECT_FALSE(b.policy_spec().rank_matched);
        EXPECT_EQ(b.make_policy()->name(), "shuffle");
        std::remove(path.c_str());
    }
    {
        deploy::PolicySpec spec;
        spec.kind = deploy::PolicyKind::kShuffle;
        spec.seed = 31338;
        spec.rank_matched = true;
        const std::string path = f.save_spec(spec, "spec_rank.shb");
        deploy::Bundle b = deploy::load_bundle(path);
        EXPECT_TRUE(b.policy_spec().rank_matched);
        EXPECT_EQ(b.make_policy()->name(), "shuffle-rank");
        std::remove(path.c_str());
    }
    {
        deploy::PolicySpec spec;
        spec.kind = deploy::PolicyKind::kComposed;
        deploy::PolicySpec replay_stage;
        replay_stage.kind = deploy::PolicyKind::kReplay;
        replay_stage.seed = 11;
        deploy::PolicySpec shuffle_stage;
        shuffle_stage.kind = deploy::PolicyKind::kShuffle;
        shuffle_stage.seed = 22;
        spec.stages = {replay_stage, shuffle_stage};
        const std::string path = f.save_spec(spec, "spec_composed.shb");
        deploy::Bundle b = deploy::load_bundle(path);
        EXPECT_EQ(b.policy_spec().kind, deploy::PolicyKind::kComposed);
        ASSERT_EQ(b.policy_spec().stages.size(), 2u);
        EXPECT_EQ(b.policy_spec().stages[0].kind,
                  deploy::PolicyKind::kReplay);
        EXPECT_EQ(b.policy_spec().stages[0].seed, 11u);
        EXPECT_EQ(b.policy_spec().stages[1].kind,
                  deploy::PolicyKind::kShuffle);
        EXPECT_EQ(b.policy_spec().stages[1].seed, 22u);
        EXPECT_EQ(b.make_policy()->name(), "replay+shuffle");
        std::remove(path.c_str());
    }
    EXPECT_STREQ(deploy::to_string(deploy::PolicyKind::kShuffle),
                 "shuffle");
    EXPECT_STREQ(deploy::to_string(deploy::PolicyKind::kComposed),
                 "composed");
}

// Cold-start pin for a shuffled endpoint, mirroring the replay/sample
// pins above.
TEST(Bundle, ColdStartShuffleEndpointIsBitExactWithInProcess)
{
    Fixture f;
    const std::uint64_t seed = 777;
    const std::string path =
        f.save(deploy::PolicyKind::kShuffle, seed, "bundle_shuffle.shb");

    const runtime::ShufflePolicy reference_policy(seed);
    ServingEngine engine;
    engine.register_endpoint_from_bundle("lenet-shuffle", path);
    engine.register_endpoint(
        "in-process", f.model,
        std::make_shared<runtime::ShufflePolicy>(seed));

    nn::ExecutionContext ref_ctx;
    for (std::uint64_t id = 0; id < 16; ++id) {
        const Tensor act = Tensor::normal(f.per_sample(), f.rng);
        const Tensor served =
            engine.submit("lenet-shuffle", act, id).get();
        const Tensor in_process =
            engine.submit("in-process", act, id).get();
        const Tensor offline =
            f.model
                .cloud_forward(
                    reference_policy.apply(act, id).reshaped(f.act_shape),
                    ref_ctx)
                .reshaped(Shape({10}));  // Server scatters rank-1 logits.
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(served, in_process), 0.0)
            << "id " << id;
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(served, offline), 0.0)
            << "id " << id;
    }
    std::remove(path.c_str());
}

// The acceptance pin: a ComposedPolicy bundle cold-started by the
// engine (the shredder_serve path) is bit-exact with its in-process
// counterpart and the offline stage-by-stage recipe.
TEST(Bundle, ColdStartComposedEndpointIsBitExactWithInProcess)
{
    Fixture f;
    deploy::PolicySpec spec;
    spec.kind = deploy::PolicyKind::kComposed;
    deploy::PolicySpec replay_stage;
    replay_stage.kind = deploy::PolicyKind::kReplay;
    replay_stage.seed = 41;
    deploy::PolicySpec shuffle_stage;
    shuffle_stage.kind = deploy::PolicyKind::kShuffle;
    shuffle_stage.seed = 42;
    spec.stages = {replay_stage, shuffle_stage};
    const std::string path = f.save_spec(spec, "bundle_composed.shb");

    const auto replay =
        std::make_shared<ReplayPolicy>(f.collection, replay_stage.seed);
    const auto shuffle =
        std::make_shared<runtime::ShufflePolicy>(shuffle_stage.seed);
    const auto reference_policy =
        std::make_shared<runtime::ComposedPolicy>(
            std::vector<std::shared_ptr<const runtime::NoisePolicy>>{
                replay, shuffle});

    ServingEngine engine;
    engine.register_endpoint_from_bundle("lenet-composed", path);
    engine.register_endpoint("in-process", f.model, reference_policy);
    EXPECT_EQ(engine.policy("lenet-composed").name(), "replay+shuffle");

    nn::ExecutionContext ref_ctx;
    for (std::uint64_t id = 0; id < 16; ++id) {
        const Tensor act = Tensor::normal(f.per_sample(), f.rng);
        const Tensor served =
            engine.submit("lenet-composed", act, id).get();
        const Tensor in_process =
            engine.submit("in-process", act, id).get();
        // Offline recipe: each stage in order under the same id.
        const Tensor staged =
            shuffle->apply(replay->apply(act, id), id);
        const Tensor offline =
            f.model.cloud_forward(staged.reshaped(f.act_shape), ref_ctx)
                .reshaped(Shape({10}));  // Server scatters rank-1 logits.
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(served, in_process), 0.0)
            << "id " << id;
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(served, offline), 0.0)
            << "id " << id;
    }
    std::remove(path.c_str());
}

/**
 * Byte offset of the version-3 transport-hint pair inside a replay
 * bundle of `Fixture`: magic+version (8) + replay policy spec
 * (u32 kind + u64 seed = 12) + rank-3 input shape (u32 rank +
 * 3 × u64 dims = 28) + cut u64 (8).
 */
constexpr std::size_t kFixtureHintOffset = 56;

/** Rewrite a fixture replay bundle as an older-format file. */
void
downgrade_replay_bundle(const std::string& path, char version)
{
    std::string bytes = slurp(path);
    ASSERT_EQ(bytes[4], 3);  // Version field (bytes 4..7, LE).
    bytes[4] = version;
    // Pre-v3 files carry no transport-hint bytes.
    bytes.erase(kFixtureHintOffset, 2);
    spew(path, bytes);
}

// Version-1 files (policy kinds 0-3, no spec extras, no transport
// hints) must keep loading: the current encoding of those kinds is
// byte-identical except the version field and the v3 hint pair.
TEST(Bundle, VersionOneReplayBundleStillLoads)
{
    Fixture f;
    const std::string path =
        f.save(deploy::PolicyKind::kReplay, 55, "v1_replay.shb");
    downgrade_replay_bundle(path, 1);

    deploy::Bundle b = deploy::load_bundle(path);
    EXPECT_EQ(b.policy_spec().kind, deploy::PolicyKind::kReplay);
    EXPECT_EQ(b.policy_spec().seed, 55u);
    EXPECT_EQ(b.make_policy()->name(), "replay");
    // Pre-v3 files imply plain fp32 transport.
    EXPECT_EQ(b.wire_dtype(), WireDtype::kF32);
    EXPECT_FALSE(b.int8_compute());
    std::remove(path.c_str());
}

// Version-2 files (no transport hints yet) load with fp32 defaults.
TEST(Bundle, VersionTwoReplayBundleStillLoads)
{
    Fixture f;
    const std::string path =
        f.save(deploy::PolicyKind::kReplay, 77, "v2_replay.shb");
    downgrade_replay_bundle(path, 2);

    deploy::Bundle b = deploy::load_bundle(path);
    EXPECT_EQ(b.policy_spec().seed, 77u);
    EXPECT_EQ(b.wire_dtype(), WireDtype::kF32);
    EXPECT_FALSE(b.int8_compute());
    std::remove(path.c_str());
}

// -- Version-3 transport hints --------------------------------------------

TEST(Bundle, TransportHintsRoundTrip)
{
    Fixture f;
    const core::NoiseDistribution dist =
        core::NoiseDistribution::fit(f.collection);
    deploy::BundleContents contents;
    contents.network = f.net.get();
    contents.cut = f.cut;
    contents.input_shape = f.input;
    contents.policy.kind = deploy::PolicyKind::kReplay;
    contents.policy.seed = 12;
    contents.collection = &f.collection;
    contents.distribution = &dist;
    contents.wire_dtype = WireDtype::kI8;
    contents.int8_compute = true;
    const std::string path = temp_path("hints_i8.shb");
    deploy::save_bundle(path, contents);

    deploy::Bundle b = deploy::load_bundle(path);
    EXPECT_EQ(b.wire_dtype(), WireDtype::kI8);
    EXPECT_TRUE(b.int8_compute());

    // Corrupt hint bytes are a typed load failure, not a crash.
    const std::string good = slurp(path);
    {
        std::string bad = good;
        bad[kFixtureHintOffset] = 3;  // no such WireDtype code
        spew(path, bad);
        expect_load_error(path, ServingErrorCode::kBadBundle);
    }
    {
        std::string bad = good;
        bad[kFixtureHintOffset + 1] = 2;  // flag must be 0/1
        spew(path, bad);
        expect_load_error(path, ServingErrorCode::kBadBundle);
    }
    std::remove(path.c_str());
}

// The acceptance pin for the quantized wire path: an int8-wire
// endpoint cold-started from a bundle answers submit_quantized
// bit-exactly like the in-process endpoint it was saved from — on both
// the int8 direct-GEMM path and the dequantize→fp32 fallback.
TEST(Bundle, ColdStartInt8WireEndpointIsBitExactWithInProcess)
{
    Fixture f;
    const std::uint64_t seed = 86;
    const core::NoiseDistribution dist =
        core::NoiseDistribution::fit(f.collection);
    deploy::BundleContents contents;
    contents.network = f.net.get();
    contents.cut = f.cut;
    contents.input_shape = f.input;
    contents.policy.kind = deploy::PolicyKind::kReplay;
    contents.policy.seed = seed;
    contents.collection = &f.collection;
    contents.distribution = &dist;
    contents.wire_dtype = WireDtype::kI8;
    const std::string fp32_path = temp_path("i8_wire_fp32_compute.shb");
    deploy::save_bundle(fp32_path, contents);
    contents.int8_compute = true;
    const std::string direct_path = temp_path("i8_wire_direct.shb");
    deploy::save_bundle(direct_path, contents);

    const ReplayPolicy reference_policy(f.collection, seed);

    ServingEngine engine;
    engine.register_endpoint_from_bundle("cold-fp32", fp32_path);
    engine.register_endpoint_from_bundle("cold-direct", direct_path);
    EXPECT_EQ(engine.wire_dtype("cold-fp32"), WireDtype::kI8);
    EXPECT_EQ(engine.wire_dtype("cold-direct"), WireDtype::kI8);
    EndpointConfig ep;
    ep.wire_dtype = WireDtype::kI8;
    ep.int8_compute = true;
    engine.register_endpoint(
        "in-process-direct", f.model,
        std::make_shared<ReplayPolicy>(f.collection, seed), ep);

    nn::ExecutionContext ref_ctx;
    for (std::uint64_t id = 0; id < 12; ++id) {
        const Tensor act = Tensor::normal(f.per_sample(), f.rng);
        const QuantizedTensor q = quantize(act, WireDtype::kI8);
        const Tensor served_fp32 =
            engine.submit_quantized("cold-fp32", q, id).get();
        const Tensor served_direct =
            engine.submit_quantized("cold-direct", q, id).get();
        const Tensor in_process =
            engine.submit_quantized("in-process-direct", q, id).get();

        // Fallback endpoint: dequantize, then the exact fp32 recipe.
        const Tensor offline =
            f.model
                .cloud_forward(reference_policy.apply(dequantize(q), id)
                                   .reshaped(f.act_shape),
                               ref_ctx)
                .reshaped(Shape({10}));  // Server scatters rank-1 logits.
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(served_fp32, offline), 0.0)
            << "id " << id;
        // Direct path: cold start and in-process run the same int8
        // GEMM over the same bytes — bit-exact, and within codec
        // tolerance of the fp32 recipe.
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(served_direct, in_process),
                         0.0)
            << "id " << id;
        EXPECT_LT(ops::max_abs_diff(served_direct, offline), 0.5)
            << "id " << id;
    }
    EXPECT_GE(engine.stats("cold-direct").int8_direct_batches, 1);
    EXPECT_EQ(engine.stats("cold-fp32").int8_direct_batches, 0);
    std::remove(fp32_path.c_str());
    std::remove(direct_path.c_str());
}

// -- Manifest cold start --------------------------------------------------

TEST(Manifest, ColdStartsMultiEndpointEngine)
{
    Fixture f;
    const std::string replay_path =
        f.save(deploy::PolicyKind::kReplay, 9, "manifest_replay.shb");
    const std::string sample_path =
        f.save(deploy::PolicyKind::kSample, 9, "manifest_sample.shb");

    const std::string manifest = temp_path("manifest.txt");
    {
        std::ofstream os(manifest);
        os << "# demo manifest\n"
           << "\n"
           << "endpoint replay " << replay_path << " max_batch=4\n"
           << "endpoint sample " << sample_path
           << " max_batch=2 batch_timeout_ms=0\n";
    }

    ServingEngine engine;
    engine.register_endpoints_from_manifest(manifest);
    EXPECT_TRUE(engine.has_endpoint("replay"));
    EXPECT_TRUE(engine.has_endpoint("sample"));
    EXPECT_EQ(engine.policy("replay").name(), "replay");
    EXPECT_EQ(engine.policy("sample").name(), "sample");
    ASSERT_NE(engine.bundle("replay"), nullptr);
    EXPECT_EQ(engine.bundle("replay")->input_shape(), f.input);

    const Tensor act = Tensor::normal(f.per_sample(), f.rng);
    const Tensor logits = engine.infer("replay", act);
    EXPECT_EQ(logits.size(), 10);

    std::remove(manifest.c_str());
    std::remove(replay_path.c_str());
    std::remove(sample_path.c_str());
}

TEST(Manifest, RelativeBundlePathsResolveAgainstManifestDir)
{
    Fixture f;
    const std::string bundle_path =
        f.save(deploy::PolicyKind::kReplay, 9, "rel_bundle.shb");
    const std::string manifest = temp_path("rel_manifest.txt");
    {
        std::ofstream os(manifest);
        os << "endpoint lenet rel_bundle.shb\n";  // relative!
    }
    ServingEngine engine;
    engine.register_endpoints_from_manifest(manifest);
    EXPECT_TRUE(engine.has_endpoint("lenet"));
    std::remove(manifest.c_str());
    std::remove(bundle_path.c_str());
}

TEST(Manifest, WireDtypeKeysOverrideBundleHints)
{
    Fixture f;
    // A bundle that HINTS int8 transport…
    const core::NoiseDistribution dist =
        core::NoiseDistribution::fit(f.collection);
    deploy::BundleContents contents;
    contents.network = f.net.get();
    contents.cut = f.cut;
    contents.input_shape = f.input;
    contents.policy.kind = deploy::PolicyKind::kReplay;
    contents.policy.seed = 9;
    contents.collection = &f.collection;
    contents.distribution = &dist;
    contents.wire_dtype = WireDtype::kI8;
    contents.int8_compute = true;
    const std::string path = temp_path("manifest_hint_i8.shb");
    deploy::save_bundle(path, contents);

    const std::string manifest = temp_path("wire_manifest.txt");
    {
        std::ofstream os(manifest);
        // …served three ways: hint honored, explicitly pinned to
        // int16, and explicitly forced back to plain fp32 — an
        // explicit manifest choice always beats the bundle hint.
        os << "endpoint hinted " << path << "\n"
           << "endpoint pinned16 " << path << " wire_dtype=int16\n"
           << "endpoint forced32 " << path
           << " wire_dtype=fp32 int8_compute=false\n";
    }
    ServingEngine engine;
    engine.register_endpoints_from_manifest(manifest);
    EXPECT_EQ(engine.wire_dtype("hinted"), WireDtype::kI8);
    EXPECT_EQ(engine.wire_dtype("pinned16"), WireDtype::kI16);
    EXPECT_EQ(engine.wire_dtype("forced32"), WireDtype::kF32);

    // Every variant still serves (int8_compute and wire_dtype never
    // change whether an endpoint can answer).
    const Tensor act = Tensor::normal(f.per_sample(), f.rng);
    for (const char* name : {"hinted", "pinned16", "forced32"}) {
        EXPECT_EQ(engine.infer(name, act).size(), 10) << name;
    }
    std::remove(manifest.c_str());
    std::remove(path.c_str());
}

TEST(Manifest, MalformedManifestsThrowTyped)
{
    const auto expect_manifest_error = [](const std::string& content) {
        const std::string path = temp_path("bad_manifest.txt");
        spew(path, content);
        try {
            deploy::parse_manifest(path);
            ADD_FAILURE() << "expected kBadBundle for: " << content;
        } catch (const ServingError& e) {
            EXPECT_EQ(e.code(), ServingErrorCode::kBadBundle) << e.what();
        }
        std::remove(path.c_str());
    };
    expect_manifest_error("serve lenet x.shb\n");          // bad directive
    expect_manifest_error("endpoint lenet\n");             // missing path
    expect_manifest_error("endpoint a x.shb max_batch=0\n");
    expect_manifest_error("endpoint a x.shb max_batch=lots\n");
    expect_manifest_error("endpoint a x.shb max_batch=4x2\n");
    expect_manifest_error("endpoint a x.shb batch_timeout_ms=1.5ms\n");
    expect_manifest_error("endpoint a x.shb context_seed=7seven\n");
    expect_manifest_error("endpoint a x.shb turbo=1\n");   // unknown key
    expect_manifest_error("endpoint a x.shb wire_dtype=int7\n");
    expect_manifest_error("endpoint a x.shb wire_dtype=\n");
    expect_manifest_error("endpoint a x.shb int8_compute=maybe\n");
    expect_manifest_error("endpoint a x.shb\nendpoint a y.shb\n");
    // Non-finite numbers: std::stod accepts them and NaN slips past
    // every range check.
    expect_manifest_error("endpoint a x.shb slo_ms=nan\n");
    expect_manifest_error("endpoint a x.shb ewma_alpha=nan\n");
    expect_manifest_error("endpoint a x.shb rate_limit_qps=nan\n");
    expect_manifest_error("endpoint a x.shb rate_limit_burst=nan\n");
    expect_manifest_error("endpoint a x.shb batch_timeout_ms=inf\n");

    try {  // Missing manifest file.
        deploy::parse_manifest(temp_path("no_such_manifest.txt"));
        ADD_FAILURE() << "expected kBadBundle";
    } catch (const ServingError& e) {
        EXPECT_EQ(e.code(), ServingErrorCode::kBadBundle);
    }
}

// -- Malformed bundles: typed errors, never a dead process ----------------

TEST(BundleTrustBoundary, MissingFileIsTyped)
{
    expect_load_error(temp_path("no_such_bundle.shb"),
                      ServingErrorCode::kBadBundle);
}

TEST(BundleTrustBoundary, BadMagicIsTyped)
{
    const std::string path = temp_path("bad_magic.shb");
    spew(path, "this is not a bundle at all");
    expect_load_error(path, ServingErrorCode::kBadBundle);
    std::remove(path.c_str());
}

TEST(BundleTrustBoundary, FutureVersionIsTyped)
{
    Fixture f;
    const std::string path =
        f.save(deploy::PolicyKind::kReplay, 1, "future_version.shb");
    std::string bytes = slurp(path);
    bytes[4] = 99;  // Version field (bytes 4..7, little-endian).
    spew(path, bytes);
    expect_load_error(path, ServingErrorCode::kVersionMismatch);
    std::remove(path.c_str());
}

TEST(BundleTrustBoundary, TruncationAnywhereIsTyped)
{
    Fixture f;
    const std::string path =
        f.save(deploy::PolicyKind::kReplay, 1, "truncated.shb");
    const std::string bytes = slurp(path);
    // A sweep of truncation points: header, arch section, tensor
    // payloads, collection metadata, end marker.
    for (const std::size_t keep :
         {std::size_t{5}, std::size_t{13}, std::size_t{40},
          bytes.size() / 4, bytes.size() / 2, bytes.size() - 2}) {
        spew(path, bytes.substr(0, keep));
        expect_load_error(path, ServingErrorCode::kBadBundle);
    }
    std::remove(path.c_str());
}

TEST(BundleTrustBoundary, TensorStreamGarbageIsTyped)
{
    Fixture f;
    const std::string path =
        f.save(deploy::PolicyKind::kReplay, 1, "tensor_garbage.shb");
    std::string bytes = slurp(path);
    // Corrupt the first embedded SHRT tensor header: the weight
    // stream inside the arch section turns to garbage.
    const auto pos = bytes.find("SHRT");
    ASSERT_NE(pos, std::string::npos);
    bytes.replace(pos, 4, "JUNK");
    spew(path, bytes);
    expect_load_error(path, ServingErrorCode::kBadBundle);
    std::remove(path.c_str());
}

TEST(BundleTrustBoundary, HugeDeclaredTensorIsTypedNotOom)
{
    // A tensor header declaring an absurd element count must fail the
    // load with a typed error — not a multi-gigabyte allocation, a
    // std::length_error escaping the catch clauses, or an int64
    // overflow of the element product.
    Fixture f;
    const std::string path =
        f.save(deploy::PolicyKind::kReplay, 1, "huge_tensor.shb");
    std::string bytes = slurp(path);
    const auto pos = bytes.find("SHRT");
    ASSERT_NE(pos, std::string::npos);
    std::ostringstream patch(std::ios::binary);
    wire::write_u32(patch, 2);  // rank
    wire::write_u64(patch, 0xFFFFFFFFull);
    wire::write_u64(patch, 0xFFFFFFFFull);
    bytes.replace(pos + 4, patch.str().size(), patch.str());
    spew(path, bytes);
    expect_load_error(path, ServingErrorCode::kBadBundle);
    std::remove(path.c_str());
}

TEST(BundleTrustBoundary, LyingTensorHeaderAllocatesNoMoreThanTheFile)
{
    // 32768 x 32767 floats (4 GiB) passes the element-count cap; the
    // loader must see that the file cannot hold them before it
    // allocates anything that large.
    Fixture f;
    const std::string path =
        f.save(deploy::PolicyKind::kReplay, 1, "lying_tensor.shb");
    std::string bytes = slurp(path);
    const auto pos = bytes.find("SHRT");
    ASSERT_NE(pos, std::string::npos);
    std::ostringstream patch(std::ios::binary);
    wire::write_u32(patch, 2);  // rank
    wire::write_u64(patch, 32768);
    wire::write_u64(patch, 32767);
    bytes.replace(pos + 4, patch.str().size(), patch.str());
    spew(path, bytes);
    const test::LargestAllocation probe;
    expect_load_error(path, ServingErrorCode::kBadBundle);
    EXPECT_LE(probe.bytes(), bytes.size());
    std::remove(path.c_str());
}

TEST(BundleTrustBoundary, MaxPoolPaddingAtLeastTheKernelIsTyped)
{
    // A max-pool whose padding reaches its kernel has windows wholly in
    // the padding; the loader must refuse it as a bad bundle instead of
    // serving a network whose first forward would abort. Kernel 1,
    // stride 3 on a 4x4 map gives a 2x2 output with padding 0 and with
    // padding 1, so the patched bundle passes every shape check.
    Rng rng(8);
    nn::Sequential net;
    net.emplace<nn::Conv2d>(nn::Conv2dConfig{1, 2, 1, 1, 0, true}, rng);
    net.emplace<nn::ReLU>();
    net.emplace<nn::MaxPool2d>(nn::PoolConfig{1, 3, 0});
    net.emplace<nn::Flatten>();
    net.emplace<nn::Linear>(2 * 2 * 2, 3, rng);
    deploy::BundleContents contents;
    contents.network = &net;
    contents.cut = 2;
    contents.input_shape = Shape({1, 4, 4});
    contents.policy.kind = deploy::PolicyKind::kNone;
    const std::string path = temp_path("pool_padding.shb");
    deploy::save_bundle(path, contents);
    ASSERT_NO_THROW((void)deploy::load_bundle(path));

    std::string bytes = slurp(path);
    // The layer record is the tag string, then the config string:
    // u32 length, kernel u64, stride u64, padding u64.
    const std::string tag = "maxpool2d";
    const auto pos = bytes.find(tag);
    ASSERT_NE(pos, std::string::npos);
    const std::size_t kernel_off = pos + tag.size() + 4;
    const std::size_t padding_off = kernel_off + 16;
    ASSERT_EQ(bytes[kernel_off], 1);
    ASSERT_EQ(bytes[padding_off], 0);
    bytes[padding_off] = bytes[kernel_off];
    spew(path, bytes);
    expect_load_error(path, ServingErrorCode::kBadBundle);
    std::remove(path.c_str());
}

TEST(BundleTrustBoundary, TrailingGarbageIsTyped)
{
    Fixture f;
    const std::string path =
        f.save(deploy::PolicyKind::kReplay, 1, "trailing.shb");
    spew(path, slurp(path) + "extra bytes after the end marker");
    expect_load_error(path, ServingErrorCode::kBadBundle);
    std::remove(path.c_str());
}

TEST(BundleTrustBoundary, InconsistentTopologyIsTypedNotFatal)
{
    // Declare an input shape that cannot flow through the stored
    // topology (wrong channel count). The shape rules deep in the
    // layers are user-error checks; the trust-boundary guard must
    // surface them as kBadBundle instead of exiting the process.
    Fixture f;
    const core::NoiseDistribution dist =
        core::NoiseDistribution::fit(f.collection);
    deploy::BundleContents contents;
    contents.network = f.net.get();
    contents.cut = f.cut;
    contents.input_shape = f.input;
    contents.policy.kind = deploy::PolicyKind::kNone;
    const std::string path = temp_path("inconsistent.shb");
    deploy::save_bundle(path, contents);

    std::string bytes = slurp(path);
    // The input shape sits after magic+version+kind (u32×3) + seed
    // (u64): rank u32, then dim0 u64 — patch C=1 to C=3.
    const std::size_t dim0_off = 4 * 3 + 8 + 4;
    ASSERT_EQ(bytes[dim0_off], 1);
    bytes[dim0_off] = 3;
    spew(path, bytes);
    expect_load_error(path, ServingErrorCode::kBadBundle);
    std::remove(path.c_str());
}

// Every prefix of a v2 bundle carrying a composed policy spec — which
// exercises the full spec grammar: composed header, stage list, the
// shuffle variant flag — must yield a typed error, never a crash. The
// sweep walks byte-by-byte through the whole header + spec region and
// then samples deeper cuts.
TEST(BundleTrustBoundary, ComposedSpecTruncationSweepIsTyped)
{
    Fixture f;
    deploy::PolicySpec spec;
    spec.kind = deploy::PolicyKind::kComposed;
    deploy::PolicySpec sample_stage;
    sample_stage.kind = deploy::PolicyKind::kSample;
    sample_stage.seed = 1;
    deploy::PolicySpec shuffle_stage;
    shuffle_stage.kind = deploy::PolicyKind::kShuffle;
    shuffle_stage.seed = 2;
    shuffle_stage.rank_matched = true;
    spec.stages = {sample_stage, shuffle_stage};
    const std::string path = f.save_spec(spec, "trunc_spec.shb");
    const std::string bytes = slurp(path);

    // Spec region: magic(4) + version(4), then kind(4)+seed(8) +
    // count(4) + stage0 kind(4)+seed(8) + stage1 kind(4)+seed(8)+
    // flag(1) = 49 bytes of header+spec.
    const std::size_t spec_end = 49;
    ASSERT_GT(bytes.size(), spec_end);
    for (std::size_t keep = 0; keep <= spec_end; ++keep) {
        spew(path, bytes.substr(0, keep));
        expect_load_error(path, ServingErrorCode::kBadBundle);
    }
    for (const std::size_t keep :
         {spec_end + 9, bytes.size() / 2, bytes.size() - 1}) {
        spew(path, bytes.substr(0, keep));
        expect_load_error(path, ServingErrorCode::kBadBundle);
    }
    std::remove(path.c_str());
}

// Malformed spec bytes: out-of-range stage counts (the composed-depth
// limit), nested composition, unknown kinds, bad variant flags — all
// typed, never fatal.
TEST(BundleTrustBoundary, MalformedPolicySpecBytesAreTyped)
{
    Fixture f;
    deploy::PolicySpec spec;
    spec.kind = deploy::PolicyKind::kComposed;
    deploy::PolicySpec replay_stage;
    replay_stage.kind = deploy::PolicyKind::kReplay;
    deploy::PolicySpec shuffle_stage;
    shuffle_stage.kind = deploy::PolicyKind::kShuffle;
    spec.stages = {replay_stage, shuffle_stage};
    const std::string path = f.save_spec(spec, "bad_spec.shb");
    const std::string bytes = slurp(path);
    // Offsets: kind u32 @8, seed u64 @12, count u32 @20, stage0 kind
    // u32 @24, stage0 seed u64 @28, stage1 kind u32 @36.
    const auto patched = [&](std::size_t off, char value) {
        std::string mutated = bytes;
        mutated[off] = value;
        spew(path, mutated);
        expect_load_error(path, ServingErrorCode::kBadBundle);
    };
    patched(8, 6);    // unknown top-level policy kind
    patched(20, 0);   // composed with zero stages
    patched(20, 9);   // stage count above kMaxComposedStages
    patched(24, 5);   // nested composed stage
    patched(24, 7);   // unknown stage kind
    std::remove(path.c_str());

    // A shuffle spec with a bad variant flag (offset 20, after
    // kind+seed) is damage, not a future format.
    const std::string shuffle_path =
        f.save(deploy::PolicyKind::kShuffle, 1, "bad_flag.shb");
    std::string mutated = slurp(shuffle_path);
    ASSERT_EQ(mutated[20], 0);
    mutated[20] = 2;
    spew(shuffle_path, mutated);
    expect_load_error(shuffle_path, ServingErrorCode::kBadBundle);
    std::remove(shuffle_path.c_str());
}

// A version-1 file cannot carry the v2-only kinds: a patched version
// byte must not smuggle a shuffle spec past the v1 grammar.
TEST(BundleTrustBoundary, VersionOneRejectsShuffleKinds)
{
    Fixture f;
    const std::string path =
        f.save(deploy::PolicyKind::kShuffle, 1, "v1_shuffle.shb");
    std::string bytes = slurp(path);
    bytes[4] = 1;  // Claim version 1; kind 4 is out of its grammar.
    spew(path, bytes);
    expect_load_error(path, ServingErrorCode::kBadBundle);
    std::remove(path.c_str());
}

// The rank-matched shuffle variant needs the bundled distribution;
// flipping the flag on a bundle saved without one is inconsistent.
TEST(BundleTrustBoundary, RankShuffleWithoutDistributionIsTyped)
{
    Fixture f;
    deploy::BundleContents contents;
    contents.network = f.net.get();
    contents.cut = f.cut;
    contents.input_shape = f.input;
    contents.policy.kind = deploy::PolicyKind::kShuffle;
    contents.policy.seed = 3;
    const std::string path = temp_path("rank_no_dist.shb");
    deploy::save_bundle(path, contents);  // plain shuffle, no artifacts

    std::string bytes = slurp(path);
    ASSERT_EQ(bytes[20], 0);  // variant flag after kind+seed
    bytes[20] = 1;            // claim rank-matched
    spew(path, bytes);
    expect_load_error(path, ServingErrorCode::kBadBundle);
    std::remove(path.c_str());
}

TEST(BundleTrustBoundary, EngineSurvivesBadBundleRegistration)
{
    // One bad registration must not disturb an engine already serving.
    Fixture f;
    ServingEngine engine;
    engine.register_endpoint(
        "good", f.model,
        std::make_shared<ReplayPolicy>(f.collection, 5));

    const std::string path = temp_path("engine_bad.shb");
    spew(path, "garbage");
    EXPECT_THROW(engine.register_endpoint_from_bundle("bad", path),
                 ServingError);
    EXPECT_FALSE(engine.has_endpoint("bad"));

    const Tensor act = Tensor::normal(f.per_sample(), f.rng);
    EXPECT_EQ(engine.infer("good", act).size(), 10);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace shredder
