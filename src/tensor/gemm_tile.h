/**
 * @file
 * GEMM on a named micro-tile (private to src/tensor and its tests).
 *
 * `gemm` runs its blocked path on the widest tile the host supports:
 * on an AVX-512F host the 6×32 tile for n > 16 and the 6×16 tile below
 * that, so nothing else would ever run the portable tile, nor the 6×16
 * tile at n > 16. This entry lets a test run each tile the host can
 * run, and pin its arithmetic.
 */
#ifndef SHREDDER_TENSOR_GEMM_TILE_H
#define SHREDDER_TENSOR_GEMM_TILE_H

#include <cstdint>

namespace shredder {
namespace gemm_detail {

/** The blocked path's micro-tiles. */
enum class Tile
{
    kPortable,  ///< 6×8, plain C++ (SSE2 on x86-64)
    kAvx2,      ///< 6×16, AVX2+FMA intrinsics
    kAvx512,    ///< 6×32 for n > 16, else 6×16; AVX-512F intrinsics
};

/** The tile `gemm` runs on the CPU it finds at run time. */
Tile host_tile();

/**
 * `gemm` with its blocked path on `tile`. `Tile::kAvx2` requires a host
 * with AVX2 and FMA, `Tile::kAvx512` one with AVX-512F as well.
 */
void gemm_on_tile(Tile tile, bool trans_a, bool trans_b, std::int64_t m,
                  std::int64_t n, std::int64_t k, float alpha, const float* a,
                  const float* b, float beta, float* c);

}  // namespace gemm_detail
}  // namespace shredder

#endif  // SHREDDER_TENSOR_GEMM_TILE_H
