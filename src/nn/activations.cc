/**
 * @file
 * Implementation of the activation layers (ReLU, Tanh).
 */
#include "src/nn/activations.h"

#include <cmath>

#include "src/runtime/logging.h"

namespace shredder {
namespace nn {

Tensor
ReLU::forward(const Tensor& x, ExecutionContext& ctx, Mode /*mode*/) const
{
    Tensor y = x;
    float* p = y.data();
    const std::int64_t n = y.size();
    // An unconditional store vectorizes and has no branch to mispredict;
    // a NaN or -0.0 fails the test and keeps its bits, as std::max would
    // not.
    for (std::int64_t i = 0; i < n; ++i) {
        p[i] = p[i] < 0.0f ? 0.0f : p[i];
    }
    if (ctx.retain_activations()) {
        ctx.state(this).cached = x;
    }
    return y;
}

Tensor
ReLU::backward(const Tensor& grad_out, ExecutionContext& ctx)
{
    const Tensor& cached = ctx.state(this).cached;
    SHREDDER_CHECK(!cached.empty(), "ReLU::backward without forward");
    SHREDDER_CHECK(grad_out.shape() == cached.shape(),
                   "ReLU grad shape mismatch");
    Tensor grad_in = grad_out;
    float* g = grad_in.data();
    const float* x = cached.data();
    const std::int64_t n = grad_in.size();
    for (std::int64_t i = 0; i < n; ++i) {
        if (x[i] <= 0.0f) {
            g[i] = 0.0f;
        }
    }
    return grad_in;
}

Tensor
Tanh::forward(const Tensor& x, ExecutionContext& ctx, Mode /*mode*/) const
{
    Tensor y = x;
    float* p = y.data();
    const std::int64_t n = y.size();
    for (std::int64_t i = 0; i < n; ++i) {
        p[i] = std::tanh(p[i]);
    }
    if (ctx.retain_activations()) {
        ctx.state(this).cached = y;
    }
    return y;
}

Tensor
Tanh::backward(const Tensor& grad_out, ExecutionContext& ctx)
{
    const Tensor& cached = ctx.state(this).cached;
    SHREDDER_CHECK(!cached.empty(), "Tanh::backward without forward");
    SHREDDER_CHECK(grad_out.shape() == cached.shape(),
                   "Tanh grad shape mismatch");
    Tensor grad_in = grad_out;
    float* g = grad_in.data();
    const float* y = cached.data();
    const std::int64_t n = grad_in.size();
    for (std::int64_t i = 0; i < n; ++i) {
        g[i] *= 1.0f - y[i] * y[i];
    }
    return grad_in;
}

}  // namespace nn
}  // namespace shredder
