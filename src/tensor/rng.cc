/**
 * @file
 * Implementation of the deterministic PRNG and its distributions.
 *
 * The bulk Laplace draw has two paths that give the same bits. The
 * scalar path takes uniforms 256 at a time and finishes each element
 * with glibc's `log`. The AVX2+FMA path twists, tempers and converts
 * four state words at a time by the same IEEE operations, takes ln by
 * an atanh series, and forms each lane's double and float. A lane is
 * kept only if its float is normal, not a power of two, and its double
 * lies inside that float's rounding interval by more than the largest
 * distance the series' error can put between it and the scalar
 * double; then the scalar double rounds to the same float. Every other
 * lane is finished by the scalar code.
 */
#include "src/tensor/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "src/runtime/logging.h"
#include "src/tensor/cpu_features.h"
#include "src/tensor/rng_path.h"

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

/** The next state block of `mt`, in place. */
void
twist_block(std::uint64_t* mt)
{
    for (std::size_t k = 0; k < kN - kM; ++k) {
        mt[k] = twist_word(mt[k], mt[k + 1], mt[k + kM]);
    }
    for (std::size_t k = kN - kM; k < kN - 1; ++k) {
        mt[k] = twist_word(mt[k], mt[k + 1], mt[k + kM - kN]);
    }
    mt[kN - 1] = twist_word(mt[kN - 1], mt[0], mt[kM - 1]);
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

/** Uniforms the scalar draw takes from the engine at a time. */
constexpr std::int64_t kDrawChunk = 256;

/**
 * The next `n` words of (`state`, `pos`), each mapped to Uniform[−½, ½)
 * exactly as `std::uniform_real_distribution<double>(-0.5, 0.5)` maps
 * one 64-bit word — the same values, from the same stream positions,
 * as `n` scalar draws through that distribution.
 */
void
centered_uniforms(std::uint64_t* state, std::size_t& pos, double* out,
                  std::size_t n)
{
    while (n > 0) {
        if (pos == kN) {
            twist_block(state);
            pos = 0;
        }
        const std::size_t take = std::min(n, kN - pos);
        for (std::size_t i = 0; i < take; ++i) {
            out[i] = rng_detail::centered_uniform(mt_temper(state[pos + i]));
        }
        pos += take;
        out += take;
        n -= take;
    }
}

/**
 * The scalar path: uniforms in bulk, and the signs and log arguments
 * of a chunk in one branch-free pass before the scalar log pass — a
 * per-element sign branch mispredicts half the time.
 */
void
laplace_draw_scalar(std::uint64_t* state, std::size_t& pos,
                    const float* location, const float* scale,
                    float min_scale, std::int64_t n, float* dst,
                    bool accumulate)
{
    double arg[kDrawChunk];
    double sign[kDrawChunk];
    for (std::int64_t i0 = 0; i0 < n; i0 += kDrawChunk) {
        const std::int64_t take = std::min(kDrawChunk, n - i0);
        centered_uniforms(state, pos, arg, static_cast<std::size_t>(take));
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

#if defined(__x86_64__) || defined(__i386__)

/**
 * One element of the draw from its centered uniform, by the scalar
 * path's arithmetic. Never inlined: inside an FMA target the compiler
 * may contract µ − (b·sign)·ln into one rounding and move a bit.
 */
__attribute__((noinline)) float
laplace_from_uniform(float location, float scale, float min_scale, double u)
{
    return laplace_finish(location, std::max(min_scale, scale),
                          laplace_sign(u), laplace_log_arg(u));
}

/** Four words of the twist: mt[k..k+4) from their successors and `far`. */
__attribute__((target("avx2"), always_inline)) inline void
twist_lanes(std::uint64_t* mt, std::size_t k, std::size_t far)
{
    const __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mt + k));
    const __m256i next =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mt + k + 1));
    const __m256i farv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mt + far));
    const __m256i y = _mm256_or_si256(
        _mm256_and_si256(cur, _mm256_set1_epi64x(
                                  static_cast<long long>(kUpperMask))),
        _mm256_and_si256(next, _mm256_set1_epi64x(
                                   static_cast<long long>(kLowerMask))));
    const __m256i odd = _mm256_sub_epi64(
        _mm256_setzero_si256(),
        _mm256_and_si256(y, _mm256_set1_epi64x(1)));
    const __m256i word = _mm256_xor_si256(
        _mm256_xor_si256(farv, _mm256_srli_epi64(y, 1)),
        _mm256_and_si256(
            odd, _mm256_set1_epi64x(static_cast<long long>(kMatrixA))));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mt + k), word);
}

/**
 * `twist_block` four words at a time. Each step reads its four words
 * and the four after them before it writes, and the second half reads
 * words the first half wrote 156 places behind, so the lanes see what
 * the one-word loop sees. The three-word tail and the last word stay
 * scalar.
 */
__attribute__((target("avx2"), always_inline)) inline void
twist_block_avx2(std::uint64_t* mt)
{
    std::size_t k = 0;
    for (; k < kN - kM; k += 4) {  // 156 = 39·4
        twist_lanes(mt, k, k + kM);
    }
    for (; k + 4 <= kN - 1; k += 4) {
        twist_lanes(mt, k, k + kM - kN);
    }
    for (; k < kN - 1; ++k) {
        mt[k] = twist_word(mt[k], mt[k + 1], mt[k + kM - kN]);
    }
    mt[kN - 1] = twist_word(mt[kN - 1], mt[0], mt[kM - 1]);
}

/** `mt_temper` on four words. */
__attribute__((target("avx2"), always_inline)) inline __m256i
temper_lanes(__m256i y)
{
    y = _mm256_xor_si256(
        y, _mm256_and_si256(_mm256_srli_epi64(y, 29),
                            _mm256_set1_epi64x(0x5555555555555555LL)));
    y = _mm256_xor_si256(
        y, _mm256_and_si256(_mm256_slli_epi64(y, 17),
                            _mm256_set1_epi64x(0x71D67FFFEDA60000LL)));
    y = _mm256_xor_si256(
        y, _mm256_and_si256(
               _mm256_slli_epi64(y, 37),
               _mm256_set1_epi64x(static_cast<long long>(
                   0xFFF7EEE000000000ULL))));
    return _mm256_xor_si256(y, _mm256_srli_epi64(y, 43));
}

/**
 * `rng_detail::centered_uniform` on four words, by the same IEEE
 * operations: each 32-bit half becomes an exact double through the 2⁵²
 * bias, (hi·2³² + lo)·2⁻⁶⁴ is rounded once and clamped below 1, then ½
 * is subtracted.
 */
__attribute__((target("avx2,fma"), always_inline)) inline __m256d
centered_uniform_lanes(__m256i word)
{
    const __m256i bias_bits = _mm256_set1_epi64x(0x4330000000000000LL);
    const __m256d bias = _mm256_castsi256_pd(bias_bits);
    const __m256d hi = _mm256_sub_pd(
        _mm256_castsi256_pd(
            _mm256_or_si256(_mm256_srli_epi64(word, 32), bias_bits)),
        bias);
    const __m256d lo = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_and_si256(word, _mm256_set1_epi64x(0xFFFFFFFFLL)),
            bias_bits)),
        bias);
    const __m256d exact_hi = _mm256_mul_pd(hi, _mm256_set1_pd(0x1p32));
    const __m256d u = _mm256_mul_pd(_mm256_add_pd(exact_hi, lo),
                                    _mm256_set1_pd(0x1p-64));
    const __m256d clamped = _mm256_blendv_pd(
        u, _mm256_set1_pd(0x1.fffffffffffffp-1),
        _mm256_cmp_pd(u, _mm256_set1_pd(1.0), _CMP_GE_OQ));
    return _mm256_sub_pd(clamped, _mm256_set1_pd(0.5));
}

/**
 * ln x on four lanes, x in [1e-300, 1] (normal, positive). x = 2ᵉ·m
 * with the mantissa halved above √2, so m ∈ (√½, √2]; f = m − 1 is
 * exact, s = f/(2+f), and ln m = 2s + 2s·z·P(z) with z = s² and P the
 * atanh series 1/3 + z/5 + … + z⁸/19, whose truncation error is below
 * 2⁻⁵⁵ of ln m. Then ln x = e·ln2 + ln m by one FMA. At x = 1 every
 * term is zero, so ln′(1) = 0 exactly.
 */
__attribute__((target("avx2,fma"), always_inline)) inline __m256d
ln_lanes_avx2(__m256d x)
{
    const __m256i bits = _mm256_castpd_si256(x);
    const __m256d m1 = _mm256_castsi256_pd(_mm256_or_si256(
        _mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL)),
        _mm256_set1_epi64x(0x3FF0000000000000LL)));  // [1, 2)
    const __m256d big = _mm256_cmp_pd(
        m1, _mm256_set1_pd(0x1.6a09e667f3bcdp+0), _CMP_GT_OQ);  // √2
    const __m256d m =
        _mm256_blendv_pd(m1, _mm256_mul_pd(m1, _mm256_set1_pd(0.5)), big);
    // e = biased exponent − 1023, plus one where m was halved; as an
    // exact double through the 1.5·2⁵² bias (|e| < 2¹⁰).
    const __m256i biased = _mm256_srli_epi64(bits, 52);
    const __m256i e = _mm256_sub_epi64(
        _mm256_sub_epi64(biased, _mm256_set1_epi64x(1023)),
        _mm256_castpd_si256(big));  // big lanes are all ones, i.e. −1
    const __m256d magic = _mm256_set1_pd(0x1.8p52);
    const __m256d ed = _mm256_sub_pd(
        _mm256_castsi256_pd(
            _mm256_add_epi64(e, _mm256_castpd_si256(magic))),
        magic);

    const __m256d f = _mm256_sub_pd(m, _mm256_set1_pd(1.0));
    const __m256d s =
        _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
    const __m256d z = _mm256_mul_pd(s, s);
    __m256d p = _mm256_set1_pd(1.0 / 19);
    p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 17));
    p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 15));
    p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 13));
    p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 11));
    p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 9));
    p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 7));
    p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 5));
    p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(1.0 / 3));
    const __m256d two_s = _mm256_add_pd(s, s);
    const __m256d ln_m =
        _mm256_fmadd_pd(_mm256_mul_pd(two_s, z), p, two_s);
    return _mm256_fmadd_pd(ed, _mm256_set1_pd(0x1.62e42fefa39efp-1),
                           ln_m);  // ln 2
}

/**
 * The AVX2+FMA path of the bulk draw; see the file comment. The whole
 * lane loop lives here, so no call is paid per four lanes. Elements
 * that do not fill four lanes of one state block (the tail of a block
 * or of the draw) and lanes the rounding check rejects are finished by
 * `laplace_from_uniform`. Returns the number of rejected lanes.
 */
__attribute__((target("avx2,fma"))) std::int64_t
laplace_draw_avx2(std::uint64_t* state, std::size_t& pos,
                  const float* location, const float* scale,
                  float min_scale, std::int64_t n, float* dst,
                  bool accumulate)
{
    const __m256d abs_mask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
    const __m256i exp_bits = _mm256_set1_epi64x(0x7FF0000000000000LL);
    const __m256i mant_bits = _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL);
    const __m256i half_ulp_shift = _mm256_set1_epi64x(24LL << 52);
    const __m128 min_scale4 = _mm_set1_ps(min_scale);
    std::int64_t rejected = 0;
    std::int64_t i = 0;
    std::size_t at = pos;  // a local, so no store to dst can alias it
    while (i < n) {
        if (at == kN) {
            twist_block_avx2(state);
            at = 0;
        }
        const std::int64_t take =
            std::min<std::int64_t>(n - i, static_cast<std::int64_t>(kN - at));
        const std::int64_t lanes_end = i + take / 4 * 4;
        for (; i < lanes_end; i += 4, at += 4) {
            const __m256i word = temper_lanes(_mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(state + at)));
            const __m256d u = centered_uniform_lanes(word);
            const __m256d sign = _mm256_blendv_pd(
                _mm256_set1_pd(-1.0), _mm256_set1_pd(1.0),
                _mm256_cmp_pd(u, _mm256_setzero_pd(), _CMP_GE_OQ));
            const __m256d arg = _mm256_max_pd(
                _mm256_sub_pd(_mm256_set1_pd(1.0),
                              _mm256_mul_pd(_mm256_set1_pd(2.0),
                                            _mm256_and_pd(u, abs_mask))),
                _mm256_set1_pd(1e-300));
            const __m256d ln = ln_lanes_avx2(arg);

            // v = µ − (b·sign)·ln′ and its float f, as the scalar code
            // forms them (max(min_scale, b) included: NaN gives
            // min_scale, as std::max does). Should the compiler fuse the
            // multiply and subtract, v moves by one rounding, which the
            // margin below covers.
            const __m256d mu = _mm256_cvtps_pd(_mm_loadu_ps(location + i));
            const __m256d b = _mm256_cvtps_pd(
                _mm_max_ps(_mm_loadu_ps(scale + i), min_scale4));
            const __m256d bln = _mm256_mul_pd(_mm256_mul_pd(b, sign), ln);
            const __m256d v = _mm256_sub_pd(mu, bln);
            const __m128 f = _mm256_cvtpd_ps(v);

            // Keep f where it is normal and finite, not a power of two
            // (its rounding interval is then ±½ulp), and v lies within
            // ½ulp(f) − 2⁻⁴⁰·(|µ| + |b·ln′|) of it. The scalar double
            // lies within about 2⁻⁴⁸·(|µ| + |b·ln|) of v, far inside
            // that margin, so it rounds to f too.
            const __m256d fd = _mm256_cvtps_pd(f);
            const __m256i fbits = _mm256_castpd_si256(fd);
            const __m256d fabs = _mm256_and_pd(fd, abs_mask);
            const __m256d normal = _mm256_and_pd(
                _mm256_cmp_pd(fabs, _mm256_set1_pd(0x1p-126), _CMP_GE_OQ),
                _mm256_cmp_pd(fabs, _mm256_set1_pd(0x1.fffffep127),
                              _CMP_LE_OQ));
            const __m256d pow2 = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
                _mm256_and_si256(fbits, mant_bits), _mm256_setzero_si256()));
            const __m256d half_ulp = _mm256_castsi256_pd(_mm256_sub_epi64(
                _mm256_and_si256(fbits, exp_bits), half_ulp_shift));
            const __m256d margin = _mm256_mul_pd(
                _mm256_set1_pd(0x1p-40),
                _mm256_add_pd(_mm256_and_pd(mu, abs_mask),
                              _mm256_and_pd(bln, abs_mask)));
            const __m256d inside = _mm256_cmp_pd(
                _mm256_and_pd(_mm256_sub_pd(v, fd), abs_mask),
                _mm256_sub_pd(half_ulp, margin), _CMP_LT_OQ);
            const int keep = _mm256_movemask_pd(
                _mm256_andnot_pd(pow2, _mm256_and_pd(normal, inside)));

            float* out = dst + i;
            if (keep == 0xF) {
                _mm_storeu_ps(out, accumulate
                                       ? _mm_add_ps(_mm_loadu_ps(out), f)
                                       : f);
                continue;
            }
            alignas(16) float lane_f[4];
            alignas(32) double lane_u[4];
            _mm_store_ps(lane_f, f);
            _mm256_store_pd(lane_u, u);
            for (int t = 0; t < 4; ++t) {
                float value = lane_f[t];
                if ((keep >> t & 1) == 0) {
                    value = laplace_from_uniform(location[i + t],
                                                 scale[i + t], min_scale,
                                                 lane_u[t]);
                    ++rejected;
                }
                out[t] = accumulate ? out[t] + value : value;
            }
        }
        for (; i < lanes_end + take % 4; ++i, ++at) {
            const float value = laplace_from_uniform(
                location[i], scale[i], min_scale,
                rng_detail::centered_uniform(mt_temper(state[at])));
            dst[i] = accumulate ? dst[i] + value : value;
        }
    }
    pos = at;
    return rejected;
}

/** `rng_detail::ln_lanes` on an AVX2+FMA host. */
__attribute__((target("avx2,fma"))) void
ln_lanes_entry(const double* x, std::int64_t n, double* out)
{
    for (std::int64_t i = 0; i < n; i += 4) {
        alignas(32) double in[4] = {1.0, 1.0, 1.0, 1.0};
        alignas(32) double res[4];
        const std::int64_t w = std::min<std::int64_t>(4, n - i);
        std::copy(x + i, x + i + w, in);
        _mm256_store_pd(res, ln_lanes_avx2(_mm256_load_pd(in)));
        std::copy(res, res + w, out + i);
    }
}

#endif

}  // namespace

namespace rng_detail {

DrawPath
host_draw_path()
{
    return cpu_features().avx2_fma ? DrawPath::kAvx2 : DrawPath::kScalar;
}

void
seed_state(std::uint64_t seed, std::uint64_t* state)
{
    state[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
        const std::uint64_t x = state[i - 1];
        state[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
    }
}

std::int64_t
laplace_draw(DrawPath path, std::uint64_t* state, std::size_t& pos,
             const float* location, const float* scale, float min_scale,
             std::int64_t n, float* dst, bool accumulate)
{
#if defined(__x86_64__) || defined(__i386__)
    if (path == DrawPath::kAvx2) {
        return laplace_draw_avx2(state, pos, location, scale, min_scale, n,
                                 dst, accumulate);
    }
#else
    SHREDDER_CHECK(path == DrawPath::kScalar,
                   "the AVX2 Laplace draw needs an x86 build");
#endif
    laplace_draw_scalar(state, pos, location, scale, min_scale, n, dst,
                        accumulate);
    return 0;
}

void
ln_lanes(const double* x, std::int64_t n, double* out)
{
#if defined(__x86_64__) || defined(__i386__)
    ln_lanes_entry(x, n, out);
#else
    (void)x;
    (void)n;
    (void)out;
    SHREDDER_CHECK(false, "the four-lane ln needs an x86 build");
#endif
}

}  // namespace rng_detail

Mt19937_64::Mt19937_64(result_type seed) : pos_(kStateWords)
{
    rng_detail::seed_state(seed, state_);
}

void
Mt19937_64::twist()
{
    twist_block(state_);
    pos_ = 0;
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
    rng_detail::laplace_draw(rng_detail::host_draw_path(), engine_.state_,
                             engine_.pos_, location, scale, min_scale, n,
                             dst, accumulate);
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
