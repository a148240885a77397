/** @file Unit tests for the random number generator. */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/noise_collection.h"
#include "src/core/noise_distribution.h"
#include "src/runtime/noise_policy.h"
#include "src/tensor/cpu_features.h"
#include "src/tensor/rng.h"
#include "src/tensor/rng_path.h"

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

// -- The four-lane draw equals the scalar draw, bit for bit --------------

using rng_detail::DrawPath;

/** An engine state and its read position, as Mt19937_64 keeps them. */
struct EngineState
{
    std::uint64_t words[Mt19937_64::kStateWords];
    std::size_t pos = Mt19937_64::kStateWords;
};

/** The state of an engine seeded with `seed`, `start` words drawn. */
EngineState
seeded_state(std::uint64_t seed, std::int64_t start)
{
    EngineState st;
    rng_detail::seed_state(seed, st.words);
    const std::vector<float> ones(static_cast<std::size_t>(start), 1.0f);
    std::vector<float> skipped(ones.size());
    rng_detail::laplace_draw(DrawPath::kScalar, st.words, st.pos,
                             ones.data(), ones.data(), 1e-9f, start,
                             skipped.data(), false);
    return st;
}

/** Invert `mt_temper`: each of its xor-shift steps is a bijection. */
std::uint64_t
untemper(std::uint64_t y)
{
    auto undo_right = [](std::uint64_t v, int shift, std::uint64_t mask) {
        std::uint64_t x = v;
        for (int i = 0; i < 64 / shift + 1; ++i) {
            x = v ^ ((x >> shift) & mask);
        }
        return x;
    };
    auto undo_left = [](std::uint64_t v, int shift, std::uint64_t mask) {
        std::uint64_t x = v;
        for (int i = 0; i < 64 / shift + 1; ++i) {
            x = v ^ ((x << shift) & mask);
        }
        return x;
    };
    y = undo_right(y, 43, ~std::uint64_t{0});
    y = undo_left(y, 37, 0xFFF7EEE000000000ULL);
    y = undo_left(y, 17, 0x71D67FFFEDA60000ULL);
    return undo_right(y, 29, 0x5555555555555555ULL);
}

/**
 * Run `n` draws from `st` on both paths, into copies of `base` (added
 * when `accumulate`), and require the same output bits and the same
 * state and position after. Returns the lanes the vector path handed
 * to the scalar finish.
 */
std::int64_t
expect_paths_agree(const EngineState& st, const float* location,
                   const float* scale, float min_scale, std::int64_t n,
                   const std::vector<float>& base, bool accumulate,
                   const std::string& what)
{
    EngineState scalar = st;
    EngineState vec = st;
    std::vector<float> want(base.begin(), base.begin() + n);
    std::vector<float> got = want;
    rng_detail::laplace_draw(DrawPath::kScalar, scalar.words, scalar.pos,
                             location, scale, min_scale, n, want.data(),
                             accumulate);
    const std::int64_t rejected = rng_detail::laplace_draw(
        DrawPath::kAvx2, vec.words, vec.pos, location, scale, min_scale, n,
        got.data(), accumulate);
    for (std::int64_t i = 0; i < n; ++i) {
        const auto at = static_cast<std::size_t>(i);
        if (std::memcmp(&want[at], &got[at], sizeof(float)) != 0) {
            ADD_FAILURE() << what << " first differs at " << i << ": "
                          << want[at] << " vs " << got[at];
            break;
        }
    }
    EXPECT_EQ(scalar.pos, vec.pos) << what;
    EXPECT_EQ(std::memcmp(scalar.words, vec.words, sizeof(scalar.words)), 0)
        << what;
    return rejected;
}

/** A Laplace fit to four samples that `draw` makes. */
template <typename Draw>
core::NoiseDistribution
fit_of(std::uint64_t seed, Draw&& draw)
{
    Rng rng(seed);
    core::NoiseCollection collection;
    for (int s = 0; s < 4; ++s) {
        core::NoiseSample sample;
        sample.noise = draw(rng);
        collection.add(std::move(sample));
    }
    return core::NoiseDistribution::fit(collection);
}

TEST(DrawPaths, VectorDrawEqualsScalarDraw)
{
    if (!cpu_features().avx2_fma) {
        GTEST_SKIP() << "the vector draw needs avx2 and fma";
    }
    const Shape shape({12288});
    // A normal fit as the serving benchmark builds, and a wide Laplace.
    const core::NoiseDistribution fits[] = {
        fit_of(11, [&](Rng& r) { return Tensor::normal(shape, r); }),
        fit_of(12,
               [&](Rng& r) { return Tensor::laplace(shape, r, 5.0f, 40.0f); }),
    };
    std::vector<std::uint64_t> seeds = {0, 1, 0x5eed5eed, ~std::uint64_t{0}};
    for (std::uint64_t id = 0; id < 200; ++id) {
        seeds.push_back(runtime::noise_seed(0x5EED, id));
    }
    Rng base_rng(9);
    std::vector<float> base(12288);
    for (float& v : base) {
        v = base_rng.normal();
    }
    const std::int64_t sizes[] = {1,   3,   4,   5,   255, 256,
                                  257, 311, 312, 313, 624, 12288};
    std::int64_t draws = 0;
    for (const core::NoiseDistribution& fit : fits) {
        for (const std::uint64_t seed : seeds) {
            for (const std::int64_t start : {0, 1, 311}) {
                const EngineState st = seeded_state(seed, start);
                for (const std::int64_t n : sizes) {
                    for (const bool accumulate : {false, true}) {
                        expect_paths_agree(
                            st, fit.location().data(), fit.scale().data(),
                            1e-9f, n, base, accumulate,
                            "seed " + std::to_string(seed) + " start " +
                                std::to_string(start) + " n " +
                                std::to_string(n) + " accumulate " +
                                std::to_string(accumulate));
                        ++draws;
                    }
                }
            }
        }
    }
    EXPECT_EQ(draws, 2 * 204 * 3 * 12 * 2);
}

TEST(DrawPaths, EveryRejectedLaneFallsBackToTheScalarBits)
{
    if (!cpu_features().avx2_fma) {
        GTEST_SKIP() << "the vector draw needs avx2 and fma";
    }
    constexpr std::int64_t n = 312;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();

    // Words whose draw at µ = 0, b = 1 lies so near a float rounding tie
    // (here 1.5 + (2k+1)·2⁻²⁴) that glibc's log and the four-lane ln
    // round to different floats: a lane kept without the margin would
    // be wrong.
    const std::uint64_t tie_words[] = {
        0xe3707b57b8bb3000ULL, 0xe3707c3c34dce000ULL, 0xe3708d6a84f5b800ULL,
        0xe3708f337c10c800ULL, 0xe370a7f7d5250000ULL, 0xe370af1baa429000ULL,
    };
    int straddles = 0;
    for (const std::uint64_t word : tie_words) {
        const double u = rng_detail::centered_uniform(word);
        const double arg = std::max(1e-300, 1.0 - 2.0 * std::abs(u));
        double ln = 0.0;
        rng_detail::ln_lanes(&arg, 1, &ln);
        straddles += static_cast<float>(-ln) !=
                     static_cast<float>(-std::log(arg));
    }
    ASSERT_GT(straddles, 0) << "no tie word splits the two logs any more";

    // A block whose words include those, the one giving u = −½ (log
    // argument clamped to 1e-300) and the one giving u = 0 (ln = 0).
    EngineState st = seeded_state(3, 1);
    st.pos = 0;
    for (std::size_t i = 0; i + 5 < Mt19937_64::kStateWords; i += 7) {
        st.words[i] = untemper(0);
        st.words[i + 3] = untemper(std::uint64_t{1} << 63);
        st.words[i + 5] = untemper(tie_words[i / 7 % 6]);
    }
    ASSERT_EQ(mt_temper(untemper(0x0123456789abcdefULL)),
              0x0123456789abcdefULL);
    ASSERT_EQ(rng_detail::centered_uniform(mt_temper(st.words[0])), -0.5);
    ASSERT_EQ(rng_detail::centered_uniform(mt_temper(st.words[3])), 0.0);

    // Each case is a location, a scale and a minimum scale per element.
    struct Case
    {
        std::string what;
        std::vector<float> location, scale;
        float min_scale;
    };
    std::vector<Case> cases;
    cases.push_back({"ties", std::vector<float>(n, 0.0f),
                     std::vector<float>(n, 1.0f), 1e-9f});
    cases.push_back({"overflow to +inf", std::vector<float>(n, 3.0e38f),
                     std::vector<float>(n, 1.0e38f), 1e-9f});
    cases.push_back({"overflow to -inf", std::vector<float>(n, -3.0e38f),
                     std::vector<float>(n, 1.0e38f), 1e-9f});
    cases.push_back({"subnormal results", std::vector<float>(n, 0.0f),
                     std::vector<float>(n, 1e-40f), 1e-45f});
    cases.push_back({"subnormal location", std::vector<float>(n, 1e-39f),
                     std::vector<float>(n, 1e-45f), 1e-45f});
    cases.push_back({"zero results", std::vector<float>(n, 0.0f),
                     std::vector<float>(n, 1e-45f), 1e-45f});
    cases.push_back({"power-of-two results", std::vector<float>(n, 2.0f),
                     std::vector<float>(n, 1e-30f), 1e-30f});
    cases.push_back({"NaN location", std::vector<float>(n, nan),
                     std::vector<float>(n, 1.0f), 1e-9f});
    cases.push_back({"+inf location", std::vector<float>(n, inf),
                     std::vector<float>(n, 1.0f), 1e-9f});
    cases.push_back({"-inf location", std::vector<float>(n, -inf),
                     std::vector<float>(n, 1.0f), 1e-9f});
    {
        Case c{"NaN and below-minimum scales", std::vector<float>(n, 0.25f),
               std::vector<float>(n), 1e-3f};
        const float odd_scales[] = {nan, 0.0f, -1.0f, -inf, 1e-9f, 0.5f};
        for (std::int64_t i = 0; i < n; ++i) {
            c.scale[static_cast<std::size_t>(i)] = odd_scales[i % 6];
        }
        cases.push_back(c);
    }
    {
        // Every kind side by side, so rejected and kept lanes share a
        // group of four.
        Case c{"mixed", std::vector<float>(n), std::vector<float>(n), 1e-9f};
        const float locs[] = {0.3f, nan, 3.0e38f, 1.0f, -inf, 0.0f, 2.0f};
        const float scales[] = {1.0f, 1.0f, 1.0e38f, 0.5f, 1.0f, 1e-9f,
                                nan};
        for (std::int64_t i = 0; i < n; ++i) {
            c.location[static_cast<std::size_t>(i)] = locs[i % 7];
            c.scale[static_cast<std::size_t>(i)] = scales[i % 5];
        }
        cases.push_back(c);
    }
    const std::vector<float> base(n, 0.75f);
    for (const Case& c : cases) {
        for (const bool accumulate : {false, true}) {
            const std::int64_t rejected = expect_paths_agree(
                st, c.location.data(), c.scale.data(), c.min_scale, n, base,
                accumulate, c.what);
            EXPECT_GT(rejected, 0) << c.what << ": the fallback never ran";
        }
    }
}

/** ulps of `want` between `got` and `want`. */
double
ulps_apart(double got, double want)
{
    if (got == want) {
        return 0.0;
    }
    const double mag = std::fabs(want);
    return std::fabs(got - want) / (std::nextafter(mag, 2.0 * mag) - mag);
}

TEST(DrawPaths, FourLaneLnStaysWithinFourUlpOfStdLog)
{
    if (!cpu_features().avx2_fma) {
        GTEST_SKIP() << "the four-lane ln needs avx2 and fma";
    }
    // The rounding check's soundness rests on this bound: its margin
    // assumes |ln′ − ln| ≤ 2⁻⁵⁰·|ln|, and 4 ulp is at most that.
    std::vector<double> x;
    StdEngine gen(21);
    for (int i = 0; i < 400000; ++i) {  // draw-shaped: 1 − 2|u|
        x.push_back(std::max(1e-300, 1.0 - 2.0 * std::abs(std_centered(gen))));
    }
    std::uniform_real_distribution<double> exponent(std::log(1e-300), 0.0);
    for (int i = 0; i < 400000; ++i) {  // log-uniform over [1e-300, 1]
        x.push_back(std::max(1e-300, std::exp(exponent(gen))));
    }
    // Within 2⁻⁴⁰ of 1, of √½ and of powers of two.
    std::vector<double> centres = {1.0, std::sqrt(0.5), std::sqrt(0.5) / 4};
    for (int e = 1; e <= 996; e += 5) {
        centres.push_back(std::ldexp(1.0, -e));
    }
    for (const double c : centres) {
        for (int k = -512; k <= 512; ++k) {
            const double v = c * (1.0 + k * 0x1p-50);
            if (v >= 1e-300 && v <= 1.0) {
                x.push_back(v);
            }
        }
    }
    x.push_back(1e-300);
    ASSERT_GE(x.size(), 1000000u);
    std::vector<double> ln(x.size());
    rng_detail::ln_lanes(x.data(), static_cast<std::int64_t>(x.size()),
                         ln.data());
    double worst = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double ulps = ulps_apart(ln[i], std::log(x[i]));
        ASSERT_LE(ulps, 4.0) << "x = " << x[i];
        worst = std::max(worst, ulps);
    }
    const double one = 1.0;
    const double zero = 0.0;  // +0, not −0
    double ln_one = -1.0;
    rng_detail::ln_lanes(&one, 1, &ln_one);
    EXPECT_EQ(std::memcmp(&ln_one, &zero, sizeof(double)), 0);
    RecordProperty("worst_ulps", std::to_string(worst));
}

}  // namespace
}  // namespace shredder
