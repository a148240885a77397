/**
 * @file
 * The x86 vector extensions the tensor kernels choose their paths by,
 * probed once per process (private to src/tensor and its tests).
 *
 * Every run-time choice of a vector path — the GEMM micro-tile, the
 * int8 dot, the eight-column batch-1 dot, the four-lane Laplace draw —
 * reads this one probe, so a test asks the same question the kernel
 * asked. Non-x86 builds report no extension.
 */
#ifndef SHREDDER_TENSOR_CPU_FEATURES_H
#define SHREDDER_TENSOR_CPU_FEATURES_H

namespace shredder {

/** What the CPU (and the OS's saved vector state) supports. */
struct CpuFeatures
{
    /** AVX2 and FMA3: the 6×16 tile, the draw and the batch-1 dot. */
    bool avx2_fma = false;
    /** AVX-512F as well as AVX2 and FMA3: the 6×32 tile. */
    bool avx512f = false;
};

/** The host's features, probed on first use. */
const CpuFeatures& cpu_features();

}  // namespace shredder

#endif  // SHREDDER_TENSOR_CPU_FEATURES_H
