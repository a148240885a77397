/**
 * @file
 * The one CPU-feature probe behind `cpu_features()`.
 */
#include "src/tensor/cpu_features.h"

namespace shredder {

const CpuFeatures&
cpu_features()
{
    static const CpuFeatures features = [] {
        CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
        f.avx2_fma =
            __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
        f.avx512f = f.avx2_fma && __builtin_cpu_supports("avx512f");
#endif
        return f;
    }();
    return features;
}

}  // namespace shredder
