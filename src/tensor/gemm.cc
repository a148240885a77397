/**
 * @file
 * Register-tiled GEMM (GotoBLAS/BLIS-style loop nest), shared by plain
 * matrix products and convolutions.
 *
 * Layout of the computation, outermost to innermost:
 *
 *   jc over n in NC   — B block sized for the last-level cache
 *   pc over k in KC   — pack op(B) block into NR-wide micro-panels
 *   ic over m in MC   — one row panel of op(A), the unit parallel_for splits
 *   jr over nc in NR  — one B micro-panel (kc×NR, lives in L1)
 *   ir over mc in MR  — micro-kernel: MR×NR register accumulators
 *
 * Only B is packed, by a packer the caller passes: `gemm`'s reads
 * op(B) through explicit row/column strides, and `conv_gemm`'s gathers
 * im2col(image) straight from a zero-padded copy of the image. The
 * micro-kernels read op(A) in place through a row stride and a k
 * stride. So the four transpose combinations and the convolution share
 * one loop nest, none materializes a transposed or unfolded copy, and
 * scratch is bounded by O(NC·KC) floats per thread (plus a convolution's
 * padded image), reused across calls via `ScratchArena`. Large-m
 * problems split their MC row panels with `parallel_for` (the shared
 * packed B is read-only).
 *
 * Three micro-kernels are compiled and picked at runtime by the host's
 * features (`cpu_features()`): a 6×8 tile for the portable SSE2
 * baseline (12 XMM accumulators), a 6×16 tile in AVX2+FMA intrinsics
 * (12 YMM accumulators) and a 6×32 tile in AVX-512F intrinsics (12 ZMM
 * accumulators), which runs only where n > 16 so a 32-wide panel is not
 * mostly padding. The two wide tiles compute every element by the same
 * FMA rule, so which one runs moves no bit — and the default build,
 * with no -march flags, still runs wide on modern x86. See
 * docs/PERFORMANCE.md for the derivation and measured numbers.
 */
#include "src/tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "src/runtime/logging.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/cpu_features.h"
#include "src/tensor/gemm_tile.h"
#include "src/tensor/im2col.h"
#include "src/tensor/scratch.h"

namespace shredder {

namespace {

constexpr std::int64_t kMr = 6;     ///< micro-tile rows
constexpr std::int64_t kNrSse = 8;  ///< micro-tile columns, SSE baseline
constexpr std::int64_t kNrAvx = 16; ///< micro-tile columns, AVX2+FMA path
constexpr std::int64_t kNrAvx512 = 32; ///< micro-tile columns, AVX-512F path
constexpr std::int64_t kKc = 256;   ///< k block: micro-panels stay in L1
constexpr std::int64_t kMc = 96;    ///< m block: the row panel parallel_for splits
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
 * True when a shape takes the strided fallback: too small to amortize
 * packing, or skinny (m < kMr or n < kNr) so that the zero-padded tile
 * would waste most of its flops.
 */
bool
takes_small_path(std::int64_t m, std::int64_t n, std::int64_t k)
{
    return m < kMr || n < kNrSse || m * n * k <= kSmallWork;
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
 * Pointer to row i of an mr-row tile of A whose rows lie `a_rs` apart.
 * A row past the tile's last real row re-reads that row, so the kernel
 * always runs all kMr rows; their accumulators are never written back.
 */
inline const float*
tile_row(const float* a, std::int64_t a_rs, std::int64_t i, std::int64_t mr)
{
    return a + std::min(i, mr - 1) * a_rs;
}

/**
 * C[0..mr)×[0..nr) += alpha · Σ_p op(A)[i][p]·bp[p][j] over one k
 * block, where op(A)[i][p] = a[i*a_rs + p*a_cs] is read in place and
 * `bp` is a zero-padded packed B micro-panel.
 */
using MicroKernelFn = void (*)(std::int64_t kc, const float* a,
                               std::int64_t a_rs, std::int64_t a_cs,
                               const float* bp, float alpha, float* c,
                               std::int64_t ldc, std::int64_t mr,
                               std::int64_t nr);

/**
 * Portable baseline, the 6×8 tile (12 XMM accumulators under plain
 * -O3). The packed B panel is zero-padded, so the accumulation always
 * runs the full kMr×kNrSse shape and only the write-back honors mr/nr.
 *
 * The unroll pragmas matter: full unrolling of the i/j loops lets
 * GCC's scalar-replacement pass promote `acc` (and the row pointers) to
 * registers — without it the tile round-trips through the stack every
 * iteration and the kernel runs ~3× slower than the seed loop. So does
 * the empty asm in the k loop (see there).
 */
void
micro_kernel_sse(std::int64_t kc, const float* __restrict__ a,
                 std::int64_t a_rs, std::int64_t a_cs,
                 const float* __restrict__ bp, float alpha,
                 float* __restrict__ c, std::int64_t ldc, std::int64_t mr,
                 std::int64_t nr)
{
    const float* row[kMr];
#pragma GCC unroll 8
    for (int i = 0; i < kMr; ++i) {
        row[i] = tile_row(a, a_rs, i, mr);
    }
    float acc[kMr][kNrSse] = {};
    for (std::int64_t p = 0; p < kc; ++p) {
        const float* __restrict__ bv = bp + p * kNrSse;
        const std::int64_t off = p * a_cs;
#pragma GCC unroll 8
        for (int i = 0; i < kMr; ++i) {
            const float av = row[i][off];
#pragma GCC unroll 8
            for (int j = 0; j < kNrSse; ++j) {
                acc[i][j] += av * bv[j];
            }
        }
        // Keeps GCC from vectorizing this loop over p: for a unit k
        // stride it would turn the tile into in-order reductions across
        // k steps, which ran ~4× slower than the tile itself.
        asm("");
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
 * is two B loads, six A broadcasts (one per row pointer, at the same k
 * offset) and twelve FMAs. Per element that is acc = fma(a, b, acc)
 * from zero in k order, then c = fma(alpha, acc, c) — vector FMAs for a
 * full tile, `std::fma` for an edge tile — which tests/test_gemm.cc
 * pins bit for bit.
 */
__attribute__((target("avx2,fma"))) void
micro_kernel_avx2(std::int64_t kc, const float* a, std::int64_t a_rs,
                  std::int64_t a_cs, const float* bp, float alpha, float* c,
                  std::int64_t ldc, std::int64_t mr, std::int64_t nr)
{
    const float* a0 = tile_row(a, a_rs, 0, mr);
    const float* a1 = tile_row(a, a_rs, 1, mr);
    const float* a2 = tile_row(a, a_rs, 2, mr);
    const float* a3 = tile_row(a, a_rs, 3, mr);
    const float* a4 = tile_row(a, a_rs, 4, mr);
    const float* a5 = tile_row(a, a_rs, 5, mr);
    __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
    __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
    __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
    __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
    __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
    __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
    const std::int64_t end = kc * a_cs;
    for (std::int64_t off = 0; off != end; off += a_cs, bp += kNrAvx) {
        const __m256 b0 = _mm256_loadu_ps(bp);
        const __m256 b1 = _mm256_loadu_ps(bp + 8);
        __m256 av = _mm256_broadcast_ss(a0 + off);
        c00 = _mm256_fmadd_ps(av, b0, c00);
        c01 = _mm256_fmadd_ps(av, b1, c01);
        av = _mm256_broadcast_ss(a1 + off);
        c10 = _mm256_fmadd_ps(av, b0, c10);
        c11 = _mm256_fmadd_ps(av, b1, c11);
        av = _mm256_broadcast_ss(a2 + off);
        c20 = _mm256_fmadd_ps(av, b0, c20);
        c21 = _mm256_fmadd_ps(av, b1, c21);
        av = _mm256_broadcast_ss(a3 + off);
        c30 = _mm256_fmadd_ps(av, b0, c30);
        c31 = _mm256_fmadd_ps(av, b1, c31);
        av = _mm256_broadcast_ss(a4 + off);
        c40 = _mm256_fmadd_ps(av, b0, c40);
        c41 = _mm256_fmadd_ps(av, b1, c41);
        av = _mm256_broadcast_ss(a5 + off);
        c50 = _mm256_fmadd_ps(av, b0, c50);
        c51 = _mm256_fmadd_ps(av, b1, c51);
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

/** One full tile row: c[0..32) = fma(alpha, acc, c). */
__attribute__((target("avx512f"), always_inline)) inline void
write_row_512(float* c, __m512 alpha, __m512 lo, __m512 hi)
{
    _mm512_storeu_ps(c, _mm512_fmadd_ps(alpha, lo, _mm512_loadu_ps(c)));
    _mm512_storeu_ps(c + 16,
                     _mm512_fmadd_ps(alpha, hi, _mm512_loadu_ps(c + 16)));
}

/**
 * 6×32 tile in AVX-512F intrinsics: `micro_kernel_avx2` at twice the
 * width, with the same per-element arithmetic, so either tile gives
 * the same bits. Twelve ZMM accumulators; each k step is two B loads,
 * six A broadcasts and twelve FMAs.
 */
__attribute__((target("avx512f"))) void
micro_kernel_avx512(std::int64_t kc, const float* a, std::int64_t a_rs,
                    std::int64_t a_cs, const float* bp, float alpha, float* c,
                    std::int64_t ldc, std::int64_t mr, std::int64_t nr)
{
    const float* a0 = tile_row(a, a_rs, 0, mr);
    const float* a1 = tile_row(a, a_rs, 1, mr);
    const float* a2 = tile_row(a, a_rs, 2, mr);
    const float* a3 = tile_row(a, a_rs, 3, mr);
    const float* a4 = tile_row(a, a_rs, 4, mr);
    const float* a5 = tile_row(a, a_rs, 5, mr);
    __m512 c00 = _mm512_setzero_ps(), c01 = _mm512_setzero_ps();
    __m512 c10 = _mm512_setzero_ps(), c11 = _mm512_setzero_ps();
    __m512 c20 = _mm512_setzero_ps(), c21 = _mm512_setzero_ps();
    __m512 c30 = _mm512_setzero_ps(), c31 = _mm512_setzero_ps();
    __m512 c40 = _mm512_setzero_ps(), c41 = _mm512_setzero_ps();
    __m512 c50 = _mm512_setzero_ps(), c51 = _mm512_setzero_ps();
    const std::int64_t end = kc * a_cs;
    for (std::int64_t off = 0; off != end; off += a_cs, bp += kNrAvx512) {
        const __m512 b0 = _mm512_loadu_ps(bp);
        const __m512 b1 = _mm512_loadu_ps(bp + 16);
        __m512 av = _mm512_set1_ps(a0[off]);
        c00 = _mm512_fmadd_ps(av, b0, c00);
        c01 = _mm512_fmadd_ps(av, b1, c01);
        av = _mm512_set1_ps(a1[off]);
        c10 = _mm512_fmadd_ps(av, b0, c10);
        c11 = _mm512_fmadd_ps(av, b1, c11);
        av = _mm512_set1_ps(a2[off]);
        c20 = _mm512_fmadd_ps(av, b0, c20);
        c21 = _mm512_fmadd_ps(av, b1, c21);
        av = _mm512_set1_ps(a3[off]);
        c30 = _mm512_fmadd_ps(av, b0, c30);
        c31 = _mm512_fmadd_ps(av, b1, c31);
        av = _mm512_set1_ps(a4[off]);
        c40 = _mm512_fmadd_ps(av, b0, c40);
        c41 = _mm512_fmadd_ps(av, b1, c41);
        av = _mm512_set1_ps(a5[off]);
        c50 = _mm512_fmadd_ps(av, b0, c50);
        c51 = _mm512_fmadd_ps(av, b1, c51);
    }
    if (mr == kMr && nr == kNrAvx512) {
        const __m512 va = _mm512_set1_ps(alpha);
        write_row_512(c, va, c00, c01);
        write_row_512(c + ldc, va, c10, c11);
        write_row_512(c + 2 * ldc, va, c20, c21);
        write_row_512(c + 3 * ldc, va, c30, c31);
        write_row_512(c + 4 * ldc, va, c40, c41);
        write_row_512(c + 5 * ldc, va, c50, c51);
        return;
    }
    alignas(64) float acc[kMr][kNrAvx512];
    _mm512_store_ps(acc[0], c00);
    _mm512_store_ps(acc[0] + 16, c01);
    _mm512_store_ps(acc[1], c10);
    _mm512_store_ps(acc[1] + 16, c11);
    _mm512_store_ps(acc[2], c20);
    _mm512_store_ps(acc[2] + 16, c21);
    _mm512_store_ps(acc[3], c30);
    _mm512_store_ps(acc[3] + 16, c31);
    _mm512_store_ps(acc[4], c40);
    _mm512_store_ps(acc[4] + 16, c41);
    _mm512_store_ps(acc[5], c50);
    _mm512_store_ps(acc[5] + 16, c51);
    for (std::int64_t i = 0; i < mr; ++i) {
        for (std::int64_t j = 0; j < nr; ++j) {
            c[i * ldc + j] = std::fma(alpha, acc[i][j], c[i * ldc + j]);
        }
    }
}
#endif

/** A micro-kernel and its panel width. */
struct KernelChoice
{
    MicroKernelFn fn;
    std::int64_t nr;
};

/**
 * The micro-kernel `tile` runs for an n-column product. The AVX-512
 * tile hands n ≤ 16 to the AVX2 tile, whose one 16-wide panel is not
 * half padding; both compute the same bits.
 */
KernelChoice
kernel_for(gemm_detail::Tile tile, std::int64_t n)
{
#if defined(__x86_64__) || defined(__i386__)
    if (tile == gemm_detail::Tile::kAvx512 && n > kNrAvx) {
        return {micro_kernel_avx512, kNrAvx512};
    }
    if (tile != gemm_detail::Tile::kPortable) {
        return {micro_kernel_avx2, kNrAvx};
    }
#else
    (void)n;
    SHREDDER_CHECK(tile == gemm_detail::Tile::kPortable,
                   "the AVX GEMM tiles need an x86 build");
#endif
    return {micro_kernel_sse, kNrSse};
}

#if defined(__x86_64__) || defined(__i386__)
/**
 * The dot order's sums for eight contiguous columns of op(B), column t
 * at `b + t*b_cs`: dots[t] = Σ_p a[p·a_cs]·col_t[p] in double, one
 * chain per lane in p order. Each step transposes 4×4 blocks of the
 * columns so lane t holds column t, widens them with `cvtps2pd`, and
 * does one multiply and one add per lane. A float×float product is
 * exact in double, so a contracted FMA gives the same sum, and every
 * lane is the scalar loop's chain.
 */
__attribute__((target("avx2,fma"))) void
dot8_avx2(std::int64_t k, const float* a, std::int64_t a_cs, const float* b,
          std::int64_t b_cs, double* dots)
{
    const float* col[8];
    for (int t = 0; t < 8; ++t) {
        col[t] = b + t * b_cs;
    }
    __m256d lo = _mm256_setzero_pd();  // columns 0..3
    __m256d hi = _mm256_setzero_pd();  // columns 4..7
    std::int64_t p = 0;
    for (; p + 4 <= k; p += 4) {
        __m128 l0 = _mm_loadu_ps(col[0] + p), l1 = _mm_loadu_ps(col[1] + p);
        __m128 l2 = _mm_loadu_ps(col[2] + p), l3 = _mm_loadu_ps(col[3] + p);
        __m128 h0 = _mm_loadu_ps(col[4] + p), h1 = _mm_loadu_ps(col[5] + p);
        __m128 h2 = _mm_loadu_ps(col[6] + p), h3 = _mm_loadu_ps(col[7] + p);
        _MM_TRANSPOSE4_PS(l0, l1, l2, l3);
        _MM_TRANSPOSE4_PS(h0, h1, h2, h3);
        const __m128 lrow[4] = {l0, l1, l2, l3};
        const __m128 hrow[4] = {h0, h1, h2, h3};
        for (int q = 0; q < 4; ++q) {
            const __m256d av = _mm256_set1_pd(a[(p + q) * a_cs]);
            lo = _mm256_add_pd(lo, _mm256_mul_pd(av, _mm256_cvtps_pd(lrow[q])));
            hi = _mm256_add_pd(hi, _mm256_mul_pd(av, _mm256_cvtps_pd(hrow[q])));
        }
    }
    for (; p < k; ++p) {
        const __m256d av = _mm256_set1_pd(a[p * a_cs]);
        const __m128 l =
            _mm_setr_ps(col[0][p], col[1][p], col[2][p], col[3][p]);
        const __m128 h =
            _mm_setr_ps(col[4][p], col[5][p], col[6][p], col[7][p]);
        lo = _mm256_add_pd(lo, _mm256_mul_pd(av, _mm256_cvtps_pd(l)));
        hi = _mm256_add_pd(hi, _mm256_mul_pd(av, _mm256_cvtps_pd(h)));
    }
    _mm256_storeu_pd(dots, lo);
    _mm256_storeu_pd(dots + 4, hi);
}
#endif

/**
 * Strided fallback for the shapes `takes_small_path` names. Picks saxpy
 * (i-p-j) or dot (i-j-p) order so the innermost loop is contiguous
 * either way. The dot order keeps one chain of double adds per element,
 * in p order: a float×float product is exact in double, so every sum is
 * the one-column loop's however many chains run side by side. Where
 * op(B)'s columns are contiguous and the host has AVX2+FMA, eight
 * columns run at once in vector lanes (`dot8_avx2`); the rest run four
 * at a time, so the chains overlap instead of waiting on each add's
 * latency. The write-back stays here, outside the FMA target, so
 * `c += alpha·dot` is never contracted.
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
#if defined(__x86_64__) || defined(__i386__)
    const bool wide = b_rs == 1 && cpu_features().avx2_fma;
#endif
    for (std::int64_t i = 0; i < m; ++i) {
        const float* arow = a + i * a_rs;
        float* crow = c + i * n;
        std::int64_t j = 0;
#if defined(__x86_64__) || defined(__i386__)
        for (; wide && j + 8 <= n; j += 8) {
            double dots[8];
            dot8_avx2(k, arow, a_cs, b + j * b_cs, b_cs, dots);
            for (int t = 0; t < 8; ++t) {
                crow[j + t] += alpha * static_cast<float>(dots[t]);
            }
        }
#endif
        for (; j + 4 <= n; j += 4) {
            const float* b0 = b + j * b_cs;
            const float* b1 = b0 + b_cs;
            const float* b2 = b1 + b_cs;
            const float* b3 = b2 + b_cs;
            double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
            for (std::int64_t p = 0; p < k; ++p) {
                const double av = arow[p * a_cs];
                acc0 += av * b0[p * b_rs];
                acc1 += av * b1[p * b_rs];
                acc2 += av * b2[p * b_rs];
                acc3 += av * b3[p * b_rs];
            }
            crow[j] += alpha * static_cast<float>(acc0);
            crow[j + 1] += alpha * static_cast<float>(acc1);
            crow[j + 2] += alpha * static_cast<float>(acc2);
            crow[j + 3] += alpha * static_cast<float>(acc3);
        }
        for (; j < n; ++j) {
            const float* bcol = b + j * b_cs;
            double acc = 0.0;
            for (std::int64_t p = 0; p < k; ++p) {
                acc += static_cast<double>(arow[p * a_cs]) * bcol[p * b_rs];
            }
            crow[j] += alpha * static_cast<float>(acc);
        }
    }
}

/**
 * The blocked path; see the file comment for the loop nest.
 * `pack_b_block(pc, kc, jc, nc, nr, out)` writes the kc×nc block of
 * op(B) at row pc, column jc into `out` as `pack_b` lays it out.
 */
template <typename PackB>
void
gemm_blocked(const KernelChoice& kern, std::int64_t m, std::int64_t n,
             std::int64_t k, float alpha, const float* a, std::int64_t a_rs,
             std::int64_t a_cs, const PackB& pack_b_block, float* c)
{
    const std::int64_t knr = kern.nr;
    const std::int64_t num_blocks = (m + kMc - 1) / kMc;
    ScratchArena& arena = ScratchArena::for_this_thread();
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
        const std::int64_t nc = std::min(kNc, n - jc);
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t kc = std::min(kKc, k - pc);
            ScratchLease bpack = arena.acquire(
                static_cast<std::size_t>(round_up(nc, knr) * kc));
            pack_b_block(pc, kc, jc, nc, knr, bpack.data());

            const float* bpack_data = bpack.data();
            auto row_block = [&](std::int64_t blk) {
                const std::int64_t ic = blk * kMc;
                const std::int64_t mc = std::min(kMc, m - ic);
                const float* ablock = a + ic * a_rs + pc * a_cs;
                for (std::int64_t jr = 0; jr < nc; jr += knr) {
                    const std::int64_t nr = std::min(knr, nc - jr);
                    const float* bpanel = bpack_data + jr * kc;
                    for (std::int64_t ir = 0; ir < mc; ir += kMr) {
                        kern.fn(kc, ablock + ir * a_rs, a_rs, a_cs, bpanel,
                                alpha, c + (ic + ir) * n + jc + jr, n,
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
 * B panels of one convolution, op(B) = im2col(image), packed straight
 * from `image`: a zero-padded copy of the input holding the rows and
 * columns some receptive field reads (see `conv_gemm`), `img_h`×`img_w`
 * per channel, in which adjacent outputs lie `step` apart. Element
 * (r, j) of im2col, with r = (c, kh, kw) and j = (oh, ow), lives at
 * image[((c·img_h + kh)·img_w + kw) + (oh·step·img_w + ow·step)].
 */
struct ConvPanels
{
    const float* image;
    std::int64_t kernel;
    std::int64_t step;
    std::int64_t img_h;
    std::int64_t img_w;
    std::int64_t out_w;

    void
    operator()(std::int64_t pc, std::int64_t kc, std::int64_t jc,
               std::int64_t nc, std::int64_t nr, float* out) const
    {
        // Row offsets of this k block, walking r = (c, kh, kw) in order.
        std::int64_t row_off[kKc];
        std::int64_t kw = pc % kernel;
        std::int64_t kh = pc / kernel % kernel;
        std::int64_t c = pc / (kernel * kernel);
        for (std::int64_t p = 0; p < kc; ++p) {
            row_off[p] = (c * img_h + kh) * img_w + kw;
            if (++kw == kernel) {
                kw = 0;
                if (++kh == kernel) {
                    kh = 0;
                    ++c;
                }
            }
        }
        // Each panel's columns fall into runs whose sources are
        // adjacent (one output row's stretch when step is 1); every
        // panel row copies the same runs from its own row offset. A
        // run of 4, 8 or 16 (one output row of a served conv) is one
        // fixed-size copy.
        struct Run
        {
            std::int64_t dst, src, len;
        };
        for (std::int64_t j0 = 0; j0 < nc; j0 += nr) {
            const std::int64_t w = std::min(nr, nc - j0);
            Run runs[kNrAvx512];
            std::int64_t num_runs = 0;
            for (std::int64_t j = 0; j < w; ++j) {
                const std::int64_t col = jc + j0 + j;
                const std::int64_t src =
                    (col / out_w * img_w + col % out_w) * step;
                Run* last = num_runs > 0 ? &runs[num_runs - 1] : nullptr;
                if (last != nullptr && last->src + last->len == src) {
                    ++last->len;
                } else {
                    runs[num_runs++] = {j, src, 1};
                }
            }
            float* panel = out + j0 * kc;
            for (std::int64_t p = 0; p < kc; ++p) {
                const float* src = image + row_off[p];
                float* dst = panel + p * nr;
                for (std::int64_t r = 0; r < num_runs; ++r) {
                    const Run& run = runs[r];
                    const float* from = src + run.src;
                    float* to = dst + run.dst;
                    switch (run.len) {
                    case 4:
                        std::memcpy(to, from, 4 * sizeof(float));
                        break;
                    case 8:
                        std::memcpy(to, from, 8 * sizeof(float));
                        break;
                    case 16:
                        std::memcpy(to, from, 16 * sizeof(float));
                        break;
                    default:
                        for (std::int64_t t = 0; t < run.len; ++t) {
                            to[t] = from[t];
                        }
                    }
                }
                for (std::int64_t j = w; j < nr; ++j) {
                    dst[j] = 0.0f;
                }
            }
        }
    }
};

/** x·y, or a check failure when it overflows (geometry is untrusted). */
std::int64_t
checked_mul(std::int64_t x, std::int64_t y)
{
    std::int64_t out = 0;
    SHREDDER_CHECK(!__builtin_mul_overflow(x, y, &out),
                   "conv geometry overflows: ", x, " x ", y);
    return out;
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
        if (cpu_features().avx2_fma) {
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

namespace gemm_detail {

Tile
host_tile()
{
    const CpuFeatures& cpu = cpu_features();
    return cpu.avx512f ? Tile::kAvx512
                       : (cpu.avx2_fma ? Tile::kAvx2 : Tile::kPortable);
}

void
gemm_on_tile(Tile tile, bool trans_a, bool trans_b, std::int64_t m,
             std::int64_t n, std::int64_t k, float alpha, const float* a,
             const float* b, float beta, float* c)
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

    if (takes_small_path(m, n, k)) {
        gemm_small(m, n, k, alpha, a, a_rs, a_cs, b, b_rs, b_cs, c);
        return;
    }
    gemm_blocked(kernel_for(tile, n), m, n, k, alpha, a, a_rs, a_cs,
                 [&](std::int64_t pc, std::int64_t kc, std::int64_t jc,
                     std::int64_t nc, std::int64_t nr, float* out) {
                     pack_b(kc, nc, nr, b + pc * b_rs + jc * b_cs, b_rs,
                            b_cs, out);
                 },
                 c);
}

}  // namespace gemm_detail

void
gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
     std::int64_t k, float alpha, const float* a, const float* b, float beta,
     float* c)
{
    gemm_detail::gemm_on_tile(gemm_detail::host_tile(), trans_a, trans_b, m,
                              n, k, alpha, a, b, beta, c);
}

void
conv_gemm(const float* weights, std::int64_t out_c, const float* image,
          std::int64_t in_c, std::int64_t in_h, std::int64_t in_w,
          std::int64_t kernel, std::int64_t stride, std::int64_t pad,
          float* out)
{
    SHREDDER_CHECK(out_c > 0 && in_c > 0 && in_h > 0 && in_w > 0 &&
                       kernel > 0 && stride > 0 && pad >= 0,
                   "bad conv_gemm geometry");
    const std::int64_t out_h = conv_out_extent(in_h, kernel, stride, pad);
    const std::int64_t out_w = conv_out_extent(in_w, kernel, stride, pad);
    SHREDDER_CHECK(out_h > 0 && out_w > 0, "conv_gemm output collapses");
    // out[out_c, OH·OW] = W[out_c, k] · im2col[k, OH·OW], as gemm with
    // beta = 0 computes it: C zeroed, then accumulated.
    const std::int64_t k = checked_mul(checked_mul(kernel, kernel), in_c);
    const std::int64_t n = checked_mul(out_h, out_w);
    std::fill(out, out + checked_mul(out_c, n), 0.0f);
    ScratchArena& arena = ScratchArena::for_this_thread();

    if (takes_small_path(out_c, n, k)) {
        ScratchLease col = arena.acquire(
            static_cast<std::size_t>(checked_mul(k, n)));
        im2col(image, in_c, in_h, in_w, kernel, kernel, stride, stride, pad,
               pad, col.data());
        gemm_small(out_c, n, k, 1.0f, weights, k, 1, col.data(), n, 1, out);
        return;
    }

    // Copy the image once, zero-padded, keeping only rows and columns
    // some receptive field reads. Adjacent outputs lie step = min(stride,
    // K) apart in the copy, so row t of the copy is input row
    // (t / step)·stride + t % step − pad: for stride ≤ K every padded
    // row t − pad, and for stride > K only the K rows under each
    // output, so the copy never outgrows the im2col matrix it replaces.
    const std::int64_t step = std::min(stride, kernel);
    const std::int64_t img_h = (out_h - 1) * step + kernel;
    const std::int64_t img_w = (out_w - 1) * step + kernel;
    ScratchLease padded = arena.acquire(static_cast<std::size_t>(
        checked_mul(checked_mul(img_h, img_w), in_c)));
    float* dst = padded.data();
    for (std::int64_t c = 0; c < in_c; ++c) {
        const float* plane = image + c * in_h * in_w;
        for (std::int64_t t = 0, q = 0, r = 0; t < img_h;
             ++t, dst += img_w) {
            const std::int64_t ih = q * stride + r - pad;
            if (++r == step) {
                r = 0;
                ++q;
            }
            if (ih < 0 || ih >= in_h) {
                std::fill(dst, dst + img_w, 0.0f);
                continue;
            }
            const float* src = plane + ih * in_w;
            if (step == stride) {
                // Column u reads input column u − pad: zeros, one
                // contiguous stretch, zeros.
                const std::int64_t lo = std::min(pad, img_w);
                const std::int64_t hi = std::max(lo, std::min(pad + in_w, img_w));
                std::fill(dst, dst + lo, 0.0f);
                if (hi > lo) {
                    std::copy(src + (lo - pad), src + (hi - pad), dst + lo);
                }
                std::fill(dst + hi, dst + img_w, 0.0f);
                continue;
            }
            for (std::int64_t u = 0, qu = 0, ru = 0; u < img_w; ++u) {
                const std::int64_t iw = qu * stride + ru - pad;
                if (++ru == step) {
                    ru = 0;
                    ++qu;
                }
                dst[u] = iw >= 0 && iw < in_w ? src[iw] : 0.0f;
            }
        }
    }
    gemm_blocked(kernel_for(gemm_detail::host_tile(), n), out_c, n, k, 1.0f,
                 weights, k, 1,
                 ConvPanels{padded.data(), kernel, step, img_h, img_w, out_w},
                 out);
}

}  // namespace shredder
