/**
 * @file
 * Implementation of the deterministic PRNG and its distributions.
 */
#include "src/tensor/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/runtime/logging.h"

namespace shredder {

namespace {

// The standard's mt19937_64 parameters (w = 64, r = 31).
constexpr std::size_t kN = Mt19937_64::kStateWords;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

/**
 * New word k from words k, k+1 and the word `far` places away. The
 * matrix term is masked in rather than picked by a branch on the low
 * bit, which is random and would mispredict half the time.
 */
inline std::uint64_t
twist_word(std::uint64_t cur, std::uint64_t next, std::uint64_t far)
{
    const std::uint64_t y = (cur & kUpperMask) | (next & kLowerMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

// Laplace(location µ, scale b) by inverse CDF from a centered uniform
// u: X = µ − b·sgn(u)·ln(1 − 2|u|), in three pieces so the bulk draw
// can run the two branch-free ones over a whole chunk before the log.

/** The log argument 1 − 2|u|, guarded away from zero for u = −½. */
inline double
laplace_log_arg(double u)
{
    return std::max(1e-300, 1.0 - 2.0 * std::abs(u));
}

/** sgn(u) as ±1, with +1 at zero. */
inline double
laplace_sign(double u)
{
    return (u >= 0.0) ? 1.0 : -1.0;
}

/** X = µ − b·sign·ln(log_arg). */
inline float
laplace_finish(float location, float scale, double sign, double log_arg)
{
    return static_cast<float>(location - scale * sign * std::log(log_arg));
}

/** Uniforms `Rng::laplace_into` takes from the engine at a time. */
constexpr std::int64_t kDrawChunk = 256;

}  // namespace

Mt19937_64::Mt19937_64(result_type seed) : pos_(kStateWords)
{
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateWords; ++i) {
        const std::uint64_t x = state_[i - 1];
        state_[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
    }
}

void
Mt19937_64::twist()
{
    std::uint64_t* mt = state_;
    for (std::size_t k = 0; k < kN - kM; ++k) {
        mt[k] = twist_word(mt[k], mt[k + 1], mt[k + kM]);
    }
    for (std::size_t k = kN - kM; k < kN - 1; ++k) {
        mt[k] = twist_word(mt[k], mt[k + 1], mt[k + kM - kN]);
    }
    mt[kN - 1] = twist_word(mt[kN - 1], mt[0], mt[kM - 1]);
    pos_ = 0;
}

void
Mt19937_64::centered_uniforms(double* out, std::size_t n)
{
    while (n > 0) {
        if (pos_ == kStateWords) {
            twist();
        }
        const std::size_t take = std::min(n, kStateWords - pos_);
        for (std::size_t i = 0; i < take; ++i) {
            out[i] =
                rng_detail::centered_uniform(mt_temper(state_[pos_ + i]));
        }
        pos_ += take;
        out += take;
        n -= take;
    }
}

float
Rng::uniform(float lo, float hi)
{
    std::uniform_real_distribution<float> dist(lo, hi);
    return dist(engine_);
}

float
Rng::normal(float mean, float stddev)
{
    std::normal_distribution<float> dist(mean, stddev);
    return dist(engine_);
}

float
Rng::laplace(float location, float scale)
{
    SHREDDER_REQUIRE(scale > 0.0f, "Laplace scale must be positive, got ",
                     scale);
    const double u = rng_detail::centered_uniform(engine_());
    return laplace_finish(location, scale, laplace_sign(u),
                          laplace_log_arg(u));
}

void
Rng::laplace_into(const float* location, const float* scale,
                  float min_scale, std::int64_t n, float* dst,
                  bool accumulate)
{
    SHREDDER_REQUIRE(min_scale > 0.0f,
                     "Laplace minimum scale must be positive, got ",
                     min_scale);
    // The uniforms come in bulk, and the signs and log arguments of a
    // chunk are taken in one branch-free pass before the scalar log
    // pass — a per-element sign branch mispredicts half the time.
    double arg[kDrawChunk];
    double sign[kDrawChunk];
    for (std::int64_t i0 = 0; i0 < n; i0 += kDrawChunk) {
        const std::int64_t take = std::min(kDrawChunk, n - i0);
        engine_.centered_uniforms(arg, static_cast<std::size_t>(take));
        for (std::int64_t j = 0; j < take; ++j) {
            sign[j] = laplace_sign(arg[j]);
            arg[j] = laplace_log_arg(arg[j]);
        }
        for (std::int64_t j = 0; j < take; ++j) {
            const std::int64_t i = i0 + j;
            const float v = laplace_finish(
                location[i], std::max(min_scale, scale[i]), sign[j], arg[j]);
            dst[i] = accumulate ? dst[i] + v : v;
        }
    }
}

std::int64_t
Rng::randint(std::int64_t lo, std::int64_t hi)
{
    SHREDDER_REQUIRE(lo <= hi, "randint range inverted: [", lo, ", ", hi,
                     "]");
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(engine_);
}

bool
Rng::bernoulli(double p)
{
    std::bernoulli_distribution dist(p);
    return dist(engine_);
}

std::vector<std::int64_t>
Rng::permutation(std::int64_t n)
{
    std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
    std::iota(idx.begin(), idx.end(), 0);
    std::shuffle(idx.begin(), idx.end(), engine_);
    return idx;
}

Rng
Rng::fork()
{
    return Rng(engine_());
}

}  // namespace shredder
