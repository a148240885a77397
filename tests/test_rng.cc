/** @file Unit tests for the random number generator. */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/noise_collection.h"
#include "src/core/noise_distribution.h"
#include "src/runtime/noise_policy.h"
#include "src/tensor/rng.h"

namespace shredder {
namespace {

// shredder-lint: allow(raw-rng) — the stream Mt19937_64 must reproduce
using StdEngine = std::mt19937_64;

/** The standard's centered uniform, as the pre-bulk `laplace` drew it. */
double
std_centered(StdEngine& engine)
{
    std::uniform_real_distribution<double> dist(-0.5, 0.5);
    return dist(engine);
}

/** The Laplace draw written against the standard engine. */
float
std_laplace(StdEngine& engine, float location, float scale)
{
    const double u = std_centered(engine);
    const double mag = std::max(1e-300, 1.0 - 2.0 * std::abs(u));
    const double sign = (u >= 0.0) ? 1.0 : -1.0;
    return static_cast<float>(location - scale * sign * std::log(mag));
}

/**
 * An engine that replays one given word, to feed the standard's
 * distributions exactly the bits under test.
 */
struct ReplayEngine
{
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() { return word; }
    result_type word = 0;
};

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.uniform(), b.uniform());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniform() == b.uniform()) {
            ++equal;
        }
    }
    EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const float v = rng.uniform(-2.0f, 3.0f);
        EXPECT_GE(v, -2.0f);
        EXPECT_LT(v, 3.0f);
    }
}

TEST(Rng, NormalMoments)
{
    Rng rng(11);
    const int n = 20000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal(1.5f, 2.0f);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 1.5, 0.1);
    EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, LaplaceMoments)
{
    // Laplace(µ, b): mean µ, variance 2b².
    Rng rng(13);
    const int n = 40000;
    const float mu = 0.7f, b = 1.3f;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double v = rng.laplace(mu, b);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.7, 0.05);
    EXPECT_NEAR(var, 2.0 * 1.3 * 1.3, 0.2);
}

TEST(Rng, LaplaceIsSymmetricAroundLocation)
{
    Rng rng(17);
    int above = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        if (rng.laplace(5.0f, 2.0f) > 5.0f) {
            ++above;
        }
    }
    EXPECT_NEAR(static_cast<double>(above) / n, 0.5, 0.02);
}

TEST(Rng, LaplaceHeavierTailsThanNormal)
{
    // Matched variance: Laplace should produce more |x| > 3σ events.
    Rng rng(19);
    const int n = 50000;
    const float sigma = 1.0f;
    const float b = sigma / std::sqrt(2.0f);
    int lap_tail = 0, norm_tail = 0;
    for (int i = 0; i < n; ++i) {
        if (std::abs(rng.laplace(0.0f, b)) > 3.0f * sigma) {
            ++lap_tail;
        }
        if (std::abs(rng.normal(0.0f, sigma)) > 3.0f * sigma) {
            ++norm_tail;
        }
    }
    EXPECT_GT(lap_tail, norm_tail);
}

TEST(Rng, RandintBounds)
{
    Rng rng(23);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.randint(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, PermutationIsAPermutation)
{
    Rng rng(29);
    auto p = rng.permutation(100);
    std::sort(p.begin(), p.end());
    for (std::int64_t i = 0; i < 100; ++i) {
        EXPECT_EQ(p[static_cast<std::size_t>(i)], i);
    }
}

TEST(Rng, ForkIndependence)
{
    Rng parent(31);
    Rng child = parent.fork();
    // Child stream differs from the parent's continued stream.
    int equal = 0;
    for (int i = 0; i < 50; ++i) {
        if (parent.uniform() == child.uniform()) {
            ++equal;
        }
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, BernoulliProbability)
{
    Rng rng(37);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        hits += rng.bernoulli(0.3) ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

// -- The engine reproduces the standard's mt19937_64 stream ------------

TEST(MtEngine, RawDrawsEqualTheStandardEngine)
{
    for (const std::uint64_t seed :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0x5eed5eed},
          ~std::uint64_t{0}}) {
        Rng rng(seed);
        StdEngine ref(seed);
        for (int i = 0; i < 100000; ++i) {
            ASSERT_EQ(rng.engine()(), ref()) << "seed " << seed << " draw "
                                             << i;
        }
    }
}

TEST(MtEngine, TenThousandthOutputOfTheDefaultSeed)
{
    // The standard's own conformance value for mt19937_64.
    Mt19937_64 engine;
    Mt19937_64 seeded(5489);
    for (int i = 0; i < 9999; ++i) {
        engine();
        seeded();
    }
    EXPECT_EQ(engine(), 9981545732273789042ULL);
    EXPECT_EQ(seeded(), 9981545732273789042ULL);
}

TEST(MtEngine, BulkAndScalarDrawsInterleaveAsOneStream)
{
    // Bulk runs that start, end and straddle the 312-word twist
    // boundary, between scalar draws, read the one standard stream.
    Rng rng(77);
    StdEngine ref(77);
    const std::vector<float> location(700, 0.25f);
    const std::vector<float> scale(700, 1.5f);
    std::vector<float> out(700);
    const std::int64_t runs[] = {1, 5, 305, 2, 312, 313, 1, 100, 624, 0, 311};
    for (const std::int64_t n : runs) {
        rng.laplace_into(location.data(), scale.data(), 1e-9f, n, out.data(),
                         false);
        for (std::int64_t i = 0; i < n; ++i) {
            ASSERT_EQ(out[static_cast<std::size_t>(i)],
                      std_laplace(ref, 0.25f, 1.5f))
                << "run " << n << " at " << i;
        }
        ASSERT_EQ(rng.engine()(), ref()) << "scalar draw after run " << n;
        ASSERT_EQ(rng.laplace(0.5f, 2.0f), std_laplace(ref, 0.5f, 2.0f))
            << "scalar Laplace after run " << n;
    }
}

TEST(MtEngine, CenteredUniformEqualsTheStandardDistribution)
{
    // Edge words: zero, the top of the range (which the standard clamps
    // below 1), the 2⁶⁴ rounding boundary, round-to-even ties and
    // 53-bit boundaries; then a seeded sweep.
    std::vector<std::uint64_t> words = {
        0,
        1,
        ~std::uint64_t{0},
        ~std::uint64_t{0} - 1023,
        ~std::uint64_t{0} - 1024,
        ~std::uint64_t{0} - 2047,
        std::uint64_t{1} << 63,
        (std::uint64_t{1} << 63) + 1023,
        (std::uint64_t{1} << 63) + 1024,
        (std::uint64_t{1} << 63) + 1025,
        (std::uint64_t{1} << 53) - 1,
        std::uint64_t{1} << 53,
        (std::uint64_t{1} << 53) + 1,
        0xFFFFFFFFULL,
        0x100000000ULL,
    };
    StdEngine gen(3);
    for (int i = 0; i < 100000; ++i) {
        words.push_back(gen());
    }
    ReplayEngine replay;
    std::uniform_real_distribution<double> dist(-0.5, 0.5);
    for (const std::uint64_t word : words) {
        replay.word = word;
        ASSERT_EQ(rng_detail::centered_uniform(word), dist(replay)) << word;
    }
}

// -- The bulk Laplace draw equals the per-element loop -----------------

/** A Laplace fit of `n` elements with varied locations and scales. */
core::NoiseDistribution
laplace_fit(std::int64_t n)
{
    Rng rng(static_cast<std::uint64_t>(n) + 400);
    core::NoiseCollection collection;
    for (int s = 0; s < 3; ++s) {
        core::NoiseSample sample;
        sample.noise = Tensor::laplace(Shape({n}), rng, 0.3f * s, 1.0f);
        collection.add(std::move(sample));
    }
    return core::NoiseDistribution::fit(collection);
}

TEST(NoiseDistribution, BulkSampleEqualsElementwiseLaplaceLoop)
{
    for (const std::int64_t n : {1, 255, 256, 257, 311, 312, 313, 12288}) {
        const core::NoiseDistribution dist = laplace_fit(n);
        const float* loc = dist.location().data();
        const float* scale = dist.scale().data();

        Rng bulk_rng(n), add_rng(n), loop_rng(n);
        bulk_rng.uniform();  // start off a block boundary
        add_rng.uniform();
        loop_rng.uniform();
        const Tensor bulk = dist.sample(bulk_rng);
        std::vector<float> added(static_cast<std::size_t>(n));
        for (std::int64_t i = 0; i < n; ++i) {
            added[static_cast<std::size_t>(i)] =
                0.25f * static_cast<float>(i % 7);
        }
        const std::vector<float> base = added;
        dist.add_sample(add_rng, added.data());
        for (std::int64_t i = 0; i < n; ++i) {
            const float expect =
                loop_rng.laplace(loc[i], std::max(1e-9f, scale[i]));
            const auto at = static_cast<std::size_t>(i);
            ASSERT_EQ(std::memcmp(bulk.data() + i, &expect, sizeof(float)),
                      0)
                << "n " << n << " at " << i;
            ASSERT_EQ(added[at], base[at] + expect)
                << "n " << n << " at " << i;
        }
        // All three consumed the same stream positions.
        const float next = loop_rng.uniform();
        EXPECT_EQ(bulk_rng.uniform(), next) << n;
        EXPECT_EQ(add_rng.uniform(), next) << n;
    }
}

/** FNV-1a over the bits of `t`, chained from `h`. */
std::uint64_t
fnv1a(const Tensor& t, std::uint64_t h)
{
    const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
    const std::size_t len = sizeof(float) * static_cast<std::size_t>(t.size());
    for (std::size_t i = 0; i < len; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ULL;
    }
    return h;
}

TEST(NoiseDistribution, SamplePolicyDrawMatchesGoldenHash)
{
    // Hashes of a fixed SamplePolicy draw at the served SVHN cut size
    // (48×16×16), taken with the standard-library engine before the
    // in-tree engine and the bulk draw replaced it.
    const Shape shape({48, 16, 16});
    Rng rng(2024);
    core::NoiseCollection collection;
    for (int s = 0; s < 4; ++s) {
        core::NoiseSample sample;
        sample.noise = Tensor::laplace(shape, rng, 0.0f, 1.0f);
        collection.add(std::move(sample));
    }
    const std::pair<core::NoiseFamily, std::uint64_t> pins[] = {
        {core::NoiseFamily::kLaplace, 0x666fdc65fbc4589bULL},
        {core::NoiseFamily::kGaussian, 0x1706083266318adaULL},
    };
    for (const auto& [family, golden] : pins) {
        const runtime::SamplePolicy policy(
            core::NoiseDistribution::fit(collection, family), 0x5EED);
        const Tensor zero(shape);
        std::uint64_t h = 1469598103934665603ULL;
        for (std::uint64_t id = 0; id < 4; ++id) {
            h = fnv1a(policy.apply(zero, id), h);
        }
        EXPECT_EQ(h, golden) << "family " << static_cast<int>(family);
    }
}

}  // namespace
}  // namespace shredder
