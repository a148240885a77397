/**
 * @file
 * The bulk Laplace draw on a named path (private to src/tensor, its
 * tests and the substrate bench).
 *
 * `Rng::laplace_into` runs the four-lane AVX2+FMA path on a host that
 * has it and the scalar path elsewhere, and both give the same bits.
 * These entries let a test run either path on any engine state, and
 * pin the four-lane ln the vector path's rounding check rests on.
 */
#ifndef SHREDDER_TENSOR_RNG_PATH_H
#define SHREDDER_TENSOR_RNG_PATH_H

#include <cstddef>
#include <cstdint>

namespace shredder {
namespace rng_detail {

/** The bulk draw's paths. */
enum class DrawPath
{
    kScalar,  ///< uniforms in bulk, then glibc's scalar `log` per element
    kAvx2,    ///< four lanes, each checked against the scalar rounding
};

/** The path `Rng::laplace_into` runs on the CPU it finds at run time. */
DrawPath host_draw_path();

/**
 * The standard's mt19937_64 seeding rule: `Mt19937_64::kStateWords`
 * words into `state`, which a draw then twists first (pos = kStateWords).
 */
void seed_state(std::uint64_t seed, std::uint64_t* state);

/**
 * `Rng::laplace_into` on `path`, over an engine state of
 * `Mt19937_64::kStateWords` words and its read position `pos`, both
 * advanced exactly as the engine advances them. `DrawPath::kAvx2` requires
 * a host with AVX2 and FMA.
 *
 * @return How many lanes the vector path handed to the scalar finish
 *         (0 on the scalar path).
 */
std::int64_t laplace_draw(DrawPath path, std::uint64_t* state,
                          std::size_t& pos, const float* location,
                          const float* scale, float min_scale,
                          std::int64_t n, float* dst, bool accumulate);

/**
 * The vector path's four-lane natural log: out[i] = ln′(x[i]) for x in
 * [1e-300, 1]. Within a few ulp of `std::log`, and exactly 0 at 1.
 * Requires a host with AVX2 and FMA.
 */
void ln_lanes(const double* x, std::int64_t n, double* out);

}  // namespace rng_detail
}  // namespace shredder

#endif  // SHREDDER_TENSOR_RNG_PATH_H
