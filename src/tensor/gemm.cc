/**
 * @file
 * Packed, register-tiled GEMM (GotoBLAS/BLIS-style loop nest).
 *
 * Layout of the computation, outermost to innermost:
 *
 *   jc over n in NC   — B block sized for the last-level cache
 *   pc over k in KC   — pack op(B) block into NR-wide micro-panels
 *   ic over m in MC   — pack op(A) block into MR-wide micro-panels (L2)
 *   jr over nc in NR  — one B micro-panel (kc×NR, lives in L1)
 *   ir over mc in MR  — micro-kernel: MR×NR register accumulators
 *
 * The packing step reads op(A)/op(B) through explicit row/column
 * strides, so all four transpose combinations share one kernel and
 * none materializes a full transposed copy: scratch is bounded by
 * O(MC·KC + NC·KC) floats per thread and reused across calls via
 * `ScratchArena`. Large-m problems split their MC row blocks with
 * `parallel_for` (each worker packs A into its own arena; the shared
 * packed B is read-only).
 *
 * Two micro-kernels are compiled and picked once at runtime: a 6×8
 * tile for the portable SSE2 baseline (12 XMM accumulators) and a
 * 6×16 tile written in AVX2+FMA intrinsics (12 YMM accumulators)
 * chosen when the CPU supports it — so the default build, with no
 * -march flags, still runs wide on modern x86. See
 * docs/PERFORMANCE.md for the derivation and measured numbers.
 */
#include "src/tensor/gemm.h"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "src/runtime/logging.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/scratch.h"

namespace shredder {

namespace {

constexpr std::int64_t kMr = 6;     ///< micro-tile rows
constexpr std::int64_t kNrSse = 8;  ///< micro-tile columns, SSE baseline
constexpr std::int64_t kNrAvx = 16; ///< micro-tile columns, AVX2+FMA path
constexpr std::int64_t kKc = 256;   ///< k block: micro-panels stay in L1
constexpr std::int64_t kMc = 96;    ///< m block: packed A block stays in L2
constexpr std::int64_t kNc = 2048;  ///< n block: packed B block stays in LLC

/** Problems below this flop-ish count skip packing entirely. */
constexpr std::int64_t kSmallWork = 16 * 1024;

/** Minimum m·n·k before row-panel threading pays for itself. */
constexpr std::int64_t kParallelMinWork = 1 << 20;

std::int64_t
round_up(std::int64_t v, std::int64_t to)
{
    return (v + to - 1) / to * to;
}

/**
 * Pack a kc×nc block of op(B) into micro-panels of `nr` columns
 * (`nr` is the active micro-kernel's width). Element (p, j) of the
 * block lives at `b[p*rs + j*cs]`. Panel j0/nr holds kc rows of nr
 * consecutive columns, contiguous in p; tail columns are zero-filled
 * so the micro-kernel never branches on the column count.
 */
void
pack_b(std::int64_t kc, std::int64_t nc, std::int64_t nr, const float* b,
       std::int64_t rs, std::int64_t cs, float* out)
{
    for (std::int64_t j0 = 0; j0 < nc; j0 += nr) {
        const std::int64_t w = std::min(nr, nc - j0);
        float* panel = out + j0 * kc;
        if (cs == 1 && w == nr) {
            // op(B) rows contiguous (plain B): copy nr-wide strips.
            const float* src = b + j0;
            for (std::int64_t p = 0; p < kc; ++p) {
                for (std::int64_t j = 0; j < nr; ++j) {
                    panel[p * nr + j] = src[p * rs + j];
                }
            }
        } else if (rs == 1) {
            // op(B) columns contiguous (transposed B): copy columns.
            for (std::int64_t j = 0; j < w; ++j) {
                const float* src = b + (j0 + j) * cs;
                for (std::int64_t p = 0; p < kc; ++p) {
                    panel[p * nr + j] = src[p];
                }
            }
            for (std::int64_t j = w; j < nr; ++j) {
                for (std::int64_t p = 0; p < kc; ++p) {
                    panel[p * nr + j] = 0.0f;
                }
            }
        } else {
            for (std::int64_t p = 0; p < kc; ++p) {
                for (std::int64_t j = 0; j < w; ++j) {
                    panel[p * nr + j] = b[p * rs + (j0 + j) * cs];
                }
                for (std::int64_t j = w; j < nr; ++j) {
                    panel[p * nr + j] = 0.0f;
                }
            }
        }
    }
}

/**
 * Pack an mc×kc block of op(A) into micro-panels of kMr rows.
 * Element (i, p) of the block lives at `a[i*rs + p*cs]`; panels are
 * contiguous in p with zero-filled tail rows.
 */
void
pack_a(std::int64_t mc, std::int64_t kc, const float* a, std::int64_t rs,
       std::int64_t cs, float* out)
{
    for (std::int64_t i0 = 0; i0 < mc; i0 += kMr) {
        const std::int64_t h = std::min(kMr, mc - i0);
        float* panel = out + i0 * kc;
        if (rs == 1 && h == kMr) {
            // op(A) columns contiguous in i (transposed A).
            const float* src = a + i0;
            for (std::int64_t p = 0; p < kc; ++p) {
                for (std::int64_t i = 0; i < kMr; ++i) {
                    panel[p * kMr + i] = src[p * cs + i];
                }
            }
        } else {
            // Plain A: kMr sequential row streams advance together.
            for (std::int64_t p = 0; p < kc; ++p) {
                for (std::int64_t i = 0; i < h; ++i) {
                    panel[p * kMr + i] = a[(i0 + i) * rs + p * cs];
                }
                for (std::int64_t i = h; i < kMr; ++i) {
                    panel[p * kMr + i] = 0.0f;
                }
            }
        }
    }
}

using MicroKernelFn = void (*)(std::int64_t kc, const float* ap,
                               const float* bp, float alpha, float* c,
                               std::int64_t ldc, std::int64_t mr,
                               std::int64_t nr);

/**
 * Portable baseline, the 6×8 tile (12 XMM accumulators under plain
 * -O3): C[0..mr)×[0..nr) += alpha · Σ_p ap[p]·bp[p]. `ap`/`bp` are
 * zero-padded micro-panels, so the accumulation always runs the full
 * kMr×kNrSse shape and only the write-back honors mr/nr.
 *
 * The unroll pragmas matter: full unrolling of the i/j loops lets
 * GCC's scalar-replacement pass promote `acc` to vector registers —
 * without it the tile round-trips through the stack every iteration
 * and the kernel runs ~3× slower than the seed loop.
 */
void
micro_kernel_sse(std::int64_t kc, const float* __restrict__ ap,
                 const float* __restrict__ bp, float alpha,
                 float* __restrict__ c, std::int64_t ldc, std::int64_t mr,
                 std::int64_t nr)
{
    float acc[kMr][kNrSse] = {};
    for (std::int64_t p = 0; p < kc; ++p) {
        const float* __restrict__ av = ap + p * kMr;
        const float* __restrict__ bv = bp + p * kNrSse;
#pragma GCC unroll 8
        for (int i = 0; i < kMr; ++i) {
            const float a = av[i];
#pragma GCC unroll 8
            for (int j = 0; j < kNrSse; ++j) {
                acc[i][j] += a * bv[j];
            }
        }
    }
    if (mr == kMr && nr == kNrSse) {
#pragma GCC unroll 8
        for (int i = 0; i < kMr; ++i) {
#pragma GCC unroll 8
            for (int j = 0; j < kNrSse; ++j) {
                c[i * ldc + j] += alpha * acc[i][j];
            }
        }
    } else {
        for (std::int64_t i = 0; i < mr; ++i) {
            for (std::int64_t j = 0; j < nr; ++j) {
                c[i * ldc + j] += alpha * acc[i][j];
            }
        }
    }
}

#if defined(__x86_64__) || defined(__i386__)
/** One full tile row: c[0..16) = fma(alpha, acc, c). */
__attribute__((target("avx2,fma"), always_inline)) inline void
write_row(float* c, __m256 alpha, __m256 lo, __m256 hi)
{
    _mm256_storeu_ps(c, _mm256_fmadd_ps(alpha, lo, _mm256_loadu_ps(c)));
    _mm256_storeu_ps(c + 8,
                     _mm256_fmadd_ps(alpha, hi, _mm256_loadu_ps(c + 8)));
}

/**
 * 6×16 tile in AVX2+FMA intrinsics, selected at runtime so the default
 * portable build still exploits modern x86 without -march flags.
 * Twelve YMM accumulators (two per row) stay in registers; each k step
 * is two B loads, six A broadcasts and twelve FMAs. Per element that
 * is acc = fma(a, b, acc) from zero in k order, then
 * c = fma(alpha, acc, c) — vector FMAs for a full tile, `std::fma` for
 * an edge tile — which tests/test_gemm.cc pins bit for bit.
 */
__attribute__((target("avx2,fma"))) void
micro_kernel_avx2(std::int64_t kc, const float* ap, const float* bp,
                  float alpha, float* c, std::int64_t ldc, std::int64_t mr,
                  std::int64_t nr)
{
    __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
    __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
    __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
    __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
    __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
    __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
    for (std::int64_t p = 0; p < kc; ++p, ap += kMr, bp += kNrAvx) {
        const __m256 b0 = _mm256_loadu_ps(bp);
        const __m256 b1 = _mm256_loadu_ps(bp + 8);
        __m256 a = _mm256_broadcast_ss(ap);
        c00 = _mm256_fmadd_ps(a, b0, c00);
        c01 = _mm256_fmadd_ps(a, b1, c01);
        a = _mm256_broadcast_ss(ap + 1);
        c10 = _mm256_fmadd_ps(a, b0, c10);
        c11 = _mm256_fmadd_ps(a, b1, c11);
        a = _mm256_broadcast_ss(ap + 2);
        c20 = _mm256_fmadd_ps(a, b0, c20);
        c21 = _mm256_fmadd_ps(a, b1, c21);
        a = _mm256_broadcast_ss(ap + 3);
        c30 = _mm256_fmadd_ps(a, b0, c30);
        c31 = _mm256_fmadd_ps(a, b1, c31);
        a = _mm256_broadcast_ss(ap + 4);
        c40 = _mm256_fmadd_ps(a, b0, c40);
        c41 = _mm256_fmadd_ps(a, b1, c41);
        a = _mm256_broadcast_ss(ap + 5);
        c50 = _mm256_fmadd_ps(a, b0, c50);
        c51 = _mm256_fmadd_ps(a, b1, c51);
    }
    if (mr == kMr && nr == kNrAvx) {
        const __m256 va = _mm256_set1_ps(alpha);
        write_row(c, va, c00, c01);
        write_row(c + ldc, va, c10, c11);
        write_row(c + 2 * ldc, va, c20, c21);
        write_row(c + 3 * ldc, va, c30, c31);
        write_row(c + 4 * ldc, va, c40, c41);
        write_row(c + 5 * ldc, va, c50, c51);
        return;
    }
    alignas(32) float acc[kMr][kNrAvx];
    _mm256_store_ps(acc[0], c00);
    _mm256_store_ps(acc[0] + 8, c01);
    _mm256_store_ps(acc[1], c10);
    _mm256_store_ps(acc[1] + 8, c11);
    _mm256_store_ps(acc[2], c20);
    _mm256_store_ps(acc[2] + 8, c21);
    _mm256_store_ps(acc[3], c30);
    _mm256_store_ps(acc[3] + 8, c31);
    _mm256_store_ps(acc[4], c40);
    _mm256_store_ps(acc[4] + 8, c41);
    _mm256_store_ps(acc[5], c50);
    _mm256_store_ps(acc[5] + 8, c51);
    for (std::int64_t i = 0; i < mr; ++i) {
        for (std::int64_t j = 0; j < nr; ++j) {
            c[i * ldc + j] = std::fma(alpha, acc[i][j], c[i * ldc + j]);
        }
    }
}
#endif

/** Runtime-selected micro-kernel and its panel width. */
struct KernelChoice
{
    MicroKernelFn fn;
    std::int64_t nr;
};

KernelChoice
select_kernel()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
        return {micro_kernel_avx2, kNrAvx};
    }
#endif
    return {micro_kernel_sse, kNrSse};
}

const KernelChoice&
kernel_choice()
{
    static const KernelChoice choice = select_kernel();
    return choice;
}

/**
 * Strided fallback for problems too small to amortize packing, and
 * for skinny shapes (m < kMr or n < kNr) where the zero-padded tile
 * would waste most of its flops. Picks saxpy (i-p-j) or dot (i-j-p)
 * order so the innermost loop is contiguous either way.
 */
void
gemm_small(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
           const float* a, std::int64_t a_rs, std::int64_t a_cs,
           const float* b, std::int64_t b_rs, std::int64_t b_cs, float* c)
{
    if (b_cs == 1) {
        for (std::int64_t i = 0; i < m; ++i) {
            float* crow = c + i * n;
            for (std::int64_t p = 0; p < k; ++p) {
                const float av = alpha * a[i * a_rs + p * a_cs];
                const float* brow = b + p * b_rs;
                for (std::int64_t j = 0; j < n; ++j) {
                    crow[j] += av * brow[j];
                }
            }
        }
        return;
    }
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            const float* bcol = b + j * b_cs;
            double acc = 0.0;
            if (a_cs == 1 && b_rs == 1) {
                const float* arow = a + i * a_rs;
                for (std::int64_t p = 0; p < k; ++p) {
                    acc += static_cast<double>(arow[p]) * bcol[p];
                }
            } else {
                for (std::int64_t p = 0; p < k; ++p) {
                    acc += static_cast<double>(a[i * a_rs + p * a_cs]) *
                           bcol[p * b_rs];
                }
            }
            c[i * n + j] += alpha * static_cast<float>(acc);
        }
    }
}

/** The blocked path; see the file comment for the loop nest. */
void
gemm_blocked(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, std::int64_t a_rs, std::int64_t a_cs,
             const float* b, std::int64_t b_rs, std::int64_t b_cs, float* c)
{
    const KernelChoice& kern = kernel_choice();
    const std::int64_t knr = kern.nr;
    ScratchArena& arena = ScratchArena::for_this_thread();
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
        const std::int64_t nc = std::min(kNc, n - jc);
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t kc = std::min(kKc, k - pc);
            ScratchLease bpack = arena.acquire(
                static_cast<std::size_t>(round_up(nc, knr) * kc));
            pack_b(kc, nc, knr, b + pc * b_rs + jc * b_cs, b_rs, b_cs,
                   bpack.data());

            const float* bpack_data = bpack.data();
            const std::int64_t num_blocks = (m + kMc - 1) / kMc;
            auto row_block = [&](std::int64_t blk) {
                const std::int64_t ic = blk * kMc;
                const std::int64_t mc = std::min(kMc, m - ic);
                // Workers pack A into their own thread's arena.
                ScratchLease apack =
                    ScratchArena::for_this_thread().acquire(
                        static_cast<std::size_t>(round_up(mc, kMr) * kc));
                pack_a(mc, kc, a + ic * a_rs + pc * a_cs, a_rs, a_cs,
                       apack.data());
                for (std::int64_t jr = 0; jr < nc; jr += knr) {
                    const std::int64_t nr = std::min(knr, nc - jr);
                    const float* bpanel = bpack_data + jr * kc;
                    for (std::int64_t ir = 0; ir < mc; ir += kMr) {
                        kern.fn(kc, apack.data() + ir * kc, bpanel, alpha,
                                c + (ic + ir) * n + jc + jr, n,
                                std::min(kMr, mc - ir), nr);
                    }
                }
            };

            // parallel_for keeps the blocks on this thread when it is a
            // pool worker (a served batch, or a conv sample's chunk).
            if (m * n * k >= kParallelMinWork) {
                parallel_for(0, num_blocks, row_block);
            } else {
                for (std::int64_t blk = 0; blk < num_blocks; ++blk) {
                    row_block(blk);
                }
            }
        }
    }
}

/**
 * Packed-activation clamp of the int8 path: bounds the int16 image of
 * activation + quantized noise so a k ≤ kS8MaxK dot product cannot
 * overflow the int32 accumulator (2047 · 128 · 8192 < 2³¹).
 */
constexpr std::int32_t kS8PackClamp = 2047;

using S8DotFn = std::int32_t (*)(const std::int16_t* a,
                                 const std::int8_t* b, std::int64_t k);

/** Portable int16×int8 dot product (bit-identical to the AVX2 path). */
std::int32_t
s8_dot_portable(const std::int16_t* a, const std::int8_t* b,
                std::int64_t k)
{
    std::int32_t acc = 0;
    for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(a[p]) * b[p];
    }
    return acc;
}

#if defined(__x86_64__) || defined(__i386__)
/**
 * AVX2 dot kernel: 16 int8 weights sign-extended to int16 lanes,
 * multiply-accumulated against 16 packed int16 activations with
 * `vpmaddwd` (two products per int32 lane, no saturation possible
 * thanks to the ±2047 pack clamp), 8-lane int32 accumulator summed
 * horizontally at the end. Scalar tail for k % 16.
 */
__attribute__((target("avx2"))) std::int32_t
s8_dot_avx2(const std::int16_t* a, const std::int8_t* b, std::int64_t k)
{
    __m256i acc = _mm256_setzero_si256();
    std::int64_t p = 0;
    for (; p + 16 <= k; p += 16) {
        const __m128i b8 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + p));
        const __m256i b16 = _mm256_cvtepi8_epi16(b8);
        const __m256i a16 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a + p));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a16, b16));
    }
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    std::int32_t total = _mm_cvtsi128_si32(s);
    for (; p < k; ++p) {
        total += static_cast<std::int32_t>(a[p]) * b[p];
    }
    return total;
}
#endif

const S8DotFn&
s8_dot_choice()
{
    static const S8DotFn fn = [] {
#if defined(__x86_64__) || defined(__i386__)
        if (__builtin_cpu_supports("avx2")) {
            return &s8_dot_avx2;
        }
#endif
        return &s8_dot_portable;
    }();
    return fn;
}

}  // namespace

S8Weights
prepare_s8_weights(const float* w, std::int64_t n, std::int64_t k)
{
    SHREDDER_CHECK(n >= 0 && k >= 0, "negative s8 weight dims");
    S8Weights out;
    const std::int64_t count = n * k;
    float maxabs = 0.0f;
    for (std::int64_t i = 0; i < count; ++i) {
        const float mag = std::fabs(w[i]);
        maxabs = mag > maxabs ? mag : maxabs;
    }
    out.scale = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
    out.data.resize(static_cast<std::size_t>(count));
    out.colsum.assign(static_cast<std::size_t>(n), 0);
    for (std::int64_t j = 0; j < n; ++j) {
        std::int32_t sum = 0;
        for (std::int64_t p = 0; p < k; ++p) {
            const float r = std::round(w[j * k + p] / out.scale);
            const std::int32_t q =
                r < -127.0f ? -127 : (r > 127.0f ? 127 : static_cast<std::int32_t>(r));
            out.data[static_cast<std::size_t>(j * k + p)] =
                static_cast<std::int8_t>(q);
            sum += q;
        }
        out.colsum[static_cast<std::size_t>(j)] = sum;
    }
    return out;
}

void
gemm_s8(std::int64_t m, std::int64_t n, std::int64_t k,
        const std::int8_t* const* a_rows, const float* a_scale,
        const std::int32_t* a_zp, const float* const* a_noise,
        const std::int8_t* b, float b_scale, const std::int32_t* b_colsum,
        const float* bias, float* c)
{
    SHREDDER_CHECK(m >= 0 && n >= 0 && k >= 0, "negative gemm_s8 dims");
    SHREDDER_CHECK(k <= kS8MaxK, "gemm_s8 k ", k, " exceeds ", kS8MaxK,
                   " (int32 accumulator bound)");
    const S8DotFn dot = s8_dot_choice();
    ScratchArena& arena = ScratchArena::for_this_thread();
    // The int16 packed row borrows the fp32 scratch arena (k floats
    // comfortably hold k int16 values).
    ScratchLease lease = arena.acquire(static_cast<std::size_t>(k + 16));
    auto* packed = reinterpret_cast<std::int16_t*>(lease.data());
    for (std::int64_t i = 0; i < m; ++i) {
        const std::int8_t* arow = a_rows[i];
        const float* nrow = a_noise != nullptr ? a_noise[i] : nullptr;
        if (nrow != nullptr) {
            // Fused noise add: quantize the noise into the row's own
            // code (round(noise/scale) grid steps) while sign-
            // extending — the add costs no extra pass over the data.
            const float inv = 1.0f / a_scale[i];
            for (std::int64_t p = 0; p < k; ++p) {
                float qn = std::nearbyintf(nrow[p] * inv);
                if (std::isnan(qn)) {
                    qn = 0.0f;  // NaN noise adds nothing, not poison.
                }
                const float v = static_cast<float>(arow[p]) + qn;
                packed[p] =
                    v <= static_cast<float>(-kS8PackClamp)
                        ? static_cast<std::int16_t>(-kS8PackClamp)
                        : (v >= static_cast<float>(kS8PackClamp)
                               ? static_cast<std::int16_t>(kS8PackClamp)
                               : static_cast<std::int16_t>(v));
            }
        } else {
            for (std::int64_t p = 0; p < k; ++p) {
                packed[p] = static_cast<std::int16_t>(arow[p]);
            }
        }
        const float row_scale = a_scale[i] * b_scale;
        const std::int32_t zp = a_zp[i];
        float* crow = c + i * n;
        for (std::int64_t j = 0; j < n; ++j) {
            const std::int32_t acc = dot(packed, b + j * k, k);
            crow[j] = row_scale * static_cast<float>(acc - zp * b_colsum[j]) +
                      (bias != nullptr ? bias[j] : 0.0f);
        }
    }
}

void
gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
     std::int64_t k, float alpha, const float* a, const float* b, float beta,
     float* c)
{
    SHREDDER_CHECK(m >= 0 && n >= 0 && k >= 0, "negative gemm dims");
    // Scale/zero C first so the kernels can be pure accumulation.
    const std::int64_t cn = m * n;
    if (beta == 0.0f) {
        std::fill(c, c + cn, 0.0f);
    } else if (beta != 1.0f) {
        for (std::int64_t i = 0; i < cn; ++i) {
            c[i] *= beta;
        }
    }
    if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) {
        return;
    }

    // op(A)(i,p) = a[i*a_rs + p*a_cs], op(B)(p,j) = b[p*b_rs + j*b_cs].
    const std::int64_t a_rs = trans_a ? 1 : k;
    const std::int64_t a_cs = trans_a ? m : 1;
    const std::int64_t b_rs = trans_b ? 1 : n;
    const std::int64_t b_cs = trans_b ? k : 1;

    if (m < kMr || n < kNrSse || m * n * k <= kSmallWork) {
        gemm_small(m, n, k, alpha, a, a_rs, a_cs, b, b_rs, b_cs, c);
        return;
    }
    gemm_blocked(m, n, k, alpha, a, a_rs, a_cs, b, b_rs, b_cs, c);
}

}  // namespace shredder
