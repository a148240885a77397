/**
 * @file
 * Single-precision general matrix multiply, and convolution as one.
 *
 * `gemm` is BLAS-style; `conv_gemm` is one image's convolution as the
 * same product. The implementation is a register-tiled kernel
 * (GotoBLAS/BLIS loop nest): op(B) is packed into cache-resident
 * micro-panels through explicit strides — or, for a convolution,
 * straight from the image, so no im2col matrix is written — and an
 * MR×NR micro-kernel reads op(A) in place through strides and
 * accumulates in registers. The four transpose combinations and the
 * convolution share that one loop nest without materializing a
 * transposed or unfolded copy. The micro-kernel is picked at run time
 * from the host's features: a portable 6×8 tile, a 6×16 AVX2+FMA tile,
 * or a 6×32 AVX-512F tile where n > 16; the two wide tiles give the
 * same bits. Large-m calls split row panels with `parallel_for` (serial
 * on a pool worker); skinny/small problems take a strided fallback,
 * whose dot order (a batch-1 `Linear`) runs eight columns in AVX2
 * lanes with one double chain each. See docs/PERFORMANCE.md for
 * blocking parameters and measured throughput.
 */
#ifndef SHREDDER_TENSOR_GEMM_H
#define SHREDDER_TENSOR_GEMM_H

#include <cstdint>
#include <vector>

namespace shredder {

/**
 * C = alpha * op(A) · op(B) + beta * C
 *
 * where op(X) is X or Xᵀ. All matrices are dense row-major.
 *
 * @param trans_a  Use Aᵀ instead of A.
 * @param trans_b  Use Bᵀ instead of B.
 * @param m        Rows of op(A) and C.
 * @param n        Columns of op(B) and C.
 * @param k        Inner dimension.
 * @param alpha    Scale on the product.
 * @param a        A data, row-major, logical shape m×k (or k×m if
 *                 trans_a).
 * @param b        B data, row-major, logical shape k×n (or n×k if
 *                 trans_b).
 * @param beta     Scale on the existing C contents (0 overwrites).
 * @param c        C data, row-major m×n. Must not alias a or b.
 */
void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, const float* b,
          float beta, float* c);

/**
 * out = W · im2col(image): one image's square-kernel convolution,
 * without bias, as one GEMM.
 *
 * Bit for bit what `im2col` followed by
 * `gemm(false, false, out_c, OH·OW, in_c·K², 1, weights, col, 0, out)`
 * computes, and by the same route: a shape `gemm` would run on its
 * strided fallback unfolds the image and runs that fallback; any other
 * packs its B panels straight from a zero-padded copy of the image and
 * reads the filter bank in place, so no im2col matrix is written.
 *
 * @param weights  Filter bank, row-major out_c × (in_c·K·K).
 * @param out_c    Output channels (rows of the product).
 * @param image    Input image, in_c × in_h × in_w contiguous.
 * @param in_c     Input channels.
 * @param in_h     Input height.
 * @param in_w     Input width.
 * @param kernel   Kernel extent K (both axes).
 * @param stride   Stride (both axes).
 * @param pad      Zero padding (both axes).
 * @param out      Output, out_c × OH × OW contiguous (overwritten).
 */
void conv_gemm(const float* weights, std::int64_t out_c, const float* image,
               std::int64_t in_c, std::int64_t in_h, std::int64_t in_w,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               float* out);

/**
 * Maximum inner dimension `k` accepted by `gemm_s8`. Derived from the
 * int32 accumulator: packed activations are clamped to ±2047 and
 * weights span ±128, so k·2047·128 must stay below 2³¹.
 */
constexpr std::int64_t kS8MaxK = 8192;

/**
 * Symmetric per-tensor int8 image of a weight matrix, plus the
 * per-output-channel column sums the dequant epilogue needs.
 * Prepared once at endpoint construction, reused every batch.
 */
struct S8Weights
{
    /** n×k row-major int8 weights (same layout as the fp32 source). */
    std::vector<std::int8_t> data;
    /** Symmetric scale: w ≈ scale · q (zero point 0). */
    float scale = 1.0f;
    /** colsum[j] = Σ_p q[j][p] — the zero-point correction term. */
    std::vector<std::int32_t> colsum;
};

/**
 * Quantize an n×k row-major fp32 weight matrix (`nn::Linear`'s native
 * [out, in] layout) to symmetric per-tensor int8.
 */
S8Weights prepare_s8_weights(const float* w, std::int64_t n,
                             std::int64_t k);

/**
 * Quantized-activation × int8-weight GEMM with the dequant fused into
 * the fp32 epilogue and the noise policy's additive noise fused into
 * the packing pass:
 *
 *   C[i][j] = a_scale[i] · b_scale · (Σ_p â[i][p]·b[j][p]
 *             − a_zp[i] · b_colsum[j]) + (bias ? bias[j] : 0)
 *
 * where â[i][p] = clamp(a[i][p] + round(noise[i][p] / a_scale[i]),
 * ±2047) — the packing pass sign-extends each int8 activation to
 * int16 and adds the noise in the quantized domain, so the first
 * cloud layer consumes wire bytes directly (no dequantized fp32
 * activation is ever materialized). The int16 clamp bounds the int32
 * accumulator for k ≤ kS8MaxK (checked).
 *
 * Rows of A may come from different requests with different affine
 * codes, hence the per-row pointer/scale/zero-point arrays.
 *
 * @param m         Batch rows.
 * @param n         Output features (rows of `b`).
 * @param k         Inner dimension (must be ≤ kS8MaxK).
 * @param a_rows    m pointers to int8 activation rows of length k.
 * @param a_scale   Per-row affine scale.
 * @param a_zp      Per-row affine zero point.
 * @param a_noise   Per-row fp32 additive-noise pointers (the array or
 *                  individual entries may be null for "no noise").
 * @param b         n×k row-major int8 weights (S8Weights::data).
 * @param b_scale   Symmetric weight scale.
 * @param b_colsum  Per-output-channel weight column sums.
 * @param bias      Optional fp32 bias of length n (null for none).
 * @param c         Output, row-major m×n fp32 (overwritten).
 *
 * An AVX2 `madd`-based dot kernel is selected at runtime (same
 * dispatch discipline as the fp32 path); the portable fallback
 * computes identical values, so results are platform-independent.
 */
void gemm_s8(std::int64_t m, std::int64_t n, std::int64_t k,
             const std::int8_t* const* a_rows, const float* a_scale,
             const std::int32_t* a_zp, const float* const* a_noise,
             const std::int8_t* b, float b_scale,
             const std::int32_t* b_colsum, const float* bias, float* c);

}  // namespace shredder

#endif  // SHREDDER_TENSOR_GEMM_H
