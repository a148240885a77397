/**
 * @file
 * Deterministic random number generation for the whole stack.
 *
 * `Rng` wraps `Mt19937_64`, an in-tree 64-bit Mersenne Twister that
 * emits exactly the standard's `mt19937_64` stream (same seeding rule,
 * twist and tempering), so every seeded run reproduces the values the
 * standard engine would give. The in-tree engine is branch-free where
 * the standard library's branches on random bits (the twist's matrix
 * term, the u64→double conversion), and adds a bulk draw that tempers
 * and converts a run of state words in one loop.
 *
 * Shredder's noise draws from a Laplace(µ, b) distribution (paper
 * §2.4–2.5), which the C++ standard library does not provide;
 * `Rng::laplace` implements it via inverse-CDF sampling, and
 * `Rng::laplace_into` draws a whole tensor of the same values, from the
 * same stream positions, out of the bulk uniforms. On an AVX2+FMA host
 * the bulk draw runs four lanes at a time — twist, tempering,
 * conversion and a polynomial ln — and keeps a lane only when an exact
 * rounding check proves it is the float glibc's scalar `log` gives;
 * every other lane is finished by that scalar `log`
 * (src/tensor/rng_path.h).
 */
#ifndef SHREDDER_TENSOR_RNG_H
#define SHREDDER_TENSOR_RNG_H

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace shredder {

/** MT19937-64 output tempering (the standard's u, d, s, b, t, c, l). */
constexpr std::uint64_t
mt_temper(std::uint64_t y)
{
    y ^= (y >> 29) & 0x5555555555555555ULL;
    y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
    y ^= (y << 37) & 0xFFF7EEE000000000ULL;
    return y ^ (y >> 43);
}

namespace rng_detail {

/**
 * One engine word → Uniform[−½, ½), the value
 * `std::uniform_real_distribution<double>(-0.5, 0.5)` takes from a
 * 64-bit engine: the word rounded once to double and scaled by 2⁻⁶⁴
 * (`generate_canonical`, clamped below 1), then shifted by −½. The word
 * is converted as hi·2³² + lo, whose one rounded sum is the correctly
 * rounded double of the word without the sign-bit branch of a direct
 * u64→double conversion. `Rng::laplace` and the bulk draw share it.
 */
inline double
centered_uniform(std::uint64_t word)
{
    const double exact_hi =
        static_cast<double>(static_cast<std::uint32_t>(word >> 32)) * 0x1p32;
    const double u =
        (exact_hi + static_cast<double>(static_cast<std::uint32_t>(word))) *
        0x1p-64;
    return (u >= 1.0 ? 0x1.fffffffffffffp-1 : u) - 0.5;  // nextafter(1, 0)
}

}  // namespace rng_detail

/**
 * The standard's 64-bit Mersenne Twister, bit for bit, plus the bulk
 * draw `Rng::laplace_into` reads. Meets UniformRandomBitGenerator with
 * the same `result_type`, `min()` and `max()` as `std::mt19937_64`, so
 * the standard distributions and `std::shuffle` take the same values
 * from it.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    /** Words per state block (the standard's n). */
    static constexpr std::size_t kStateWords = 312;

    /** Seed by the standard's rule (default: the standard's 5489). */
    explicit Mt19937_64(result_type seed = 5489u);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** The next word of the stream. */
    result_type
    operator()()
    {
        if (pos_ == kStateWords) {
            twist();
        }
        return mt_temper(state_[pos_++]);
    }

  private:
    friend class Rng;

    void twist();

    result_type state_[kStateWords];
    std::size_t pos_;
};

/**
 * A seeded random source over `Mt19937_64`.
 *
 * Every stochastic component in the repo (data generators, weight init,
 * noise init, samplers) takes an `Rng&` so experiments are reproducible
 * end-to-end from a single seed.
 */
class Rng
{
  public:
    /** Construct with an explicit seed (default fixed for repro). */
    explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

    /** Uniform real in [lo, hi). */
    float uniform(float lo = 0.0f, float hi = 1.0f);

    /** Standard normal scaled: N(mean, stddev²). */
    float normal(float mean = 0.0f, float stddev = 1.0f);

    /**
     * Laplace(location µ, scale b) via inverse CDF:
     *   X = µ − b·sgn(U)·ln(1 − 2|U|),  U ~ Uniform(−½, ½).
     *
     * Variance is 2b².
     */
    float laplace(float location, float scale);

    /**
     * `n` Laplace draws in bulk: element i is exactly what the i-th of
     * `n` calls `laplace(location[i], max(min_scale, scale[i]))` would
     * return, from the same stream positions. Stored into `dst[i]`, or
     * added to it when `accumulate`. `min_scale` must be positive.
     */
    void laplace_into(const float* location, const float* scale,
                      float min_scale, std::int64_t n, float* dst,
                      bool accumulate);

    /** Uniform integer in [lo, hi] (inclusive). */
    std::int64_t randint(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with probability `p` of true. */
    bool bernoulli(double p);

    /** A uniformly random permutation of {0, …, n−1}. */
    std::vector<std::int64_t> permutation(std::int64_t n);

    /** Split off an independently-seeded child generator. */
    Rng fork();

    /** Access the underlying engine (for std::shuffle etc.). */
    Mt19937_64& engine() { return engine_; }

  private:
    Mt19937_64 engine_;
};

}  // namespace shredder

#endif  // SHREDDER_TENSOR_RNG_H
