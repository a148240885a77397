/**
 * @file
 * Implementation of `Conv2d`: the forward pass is one `conv_gemm` per
 * image (no im2col matrix on the packed route); the backward pass lowers
 * through im2col/col2im into `gemm`.
 */
#include "src/nn/conv2d.h"

#include <vector>

#include "src/nn/init.h"
#include "src/runtime/logging.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/gemm.h"
#include "src/tensor/im2col.h"
#include "src/tensor/scratch.h"

namespace shredder {
namespace nn {

namespace {

void
require_valid(const Conv2dConfig& config)
{
    SHREDDER_REQUIRE(config.in_channels > 0 && config.out_channels > 0 &&
                         config.kernel > 0 && config.stride > 0 &&
                         config.padding >= 0,
                     "bad Conv2d config");
}

/**
 * Cin·K·K, the filter-bank width — or -1 when the product overflows
 * (a config read from a file is untrusted).
 */
std::int64_t
filter_width(const Conv2dConfig& config)
{
    std::int64_t width = 0;
    const bool overflow =
        __builtin_mul_overflow(config.kernel, config.kernel, &width) ||
        __builtin_mul_overflow(width, config.in_channels, &width);
    return overflow ? -1 : width;
}

/** A Kaiming-He initialized [Cout, Cin·K·K] filter bank. */
Tensor
kaiming_filters(const Conv2dConfig& config, Rng& rng)
{
    require_valid(config);
    const std::int64_t fan_in = filter_width(config);
    Tensor w(Shape({config.out_channels, fan_in}));
    kaiming_normal(w, fan_in, rng);
    return w;
}

}  // namespace

Conv2d::Conv2d(const Conv2dConfig& config, Rng& rng)
    : Conv2d(config, kaiming_filters(config, rng),
             config.bias ? Tensor(Shape({config.out_channels})) : Tensor())
{
}

Conv2d::Conv2d(const Conv2dConfig& config, Tensor weight, Tensor bias)
    : config_(config)
{
    require_valid(config);
    const std::int64_t width = filter_width(config);
    SHREDDER_REQUIRE(
        width > 0 && weight.shape() == Shape({config.out_channels, width}),
        "Conv2d weight ", weight.shape().to_string(), " does not match ",
        config.out_channels, " filters of ", config.in_channels, "x",
        config.kernel, "x", config.kernel);
    SHREDDER_REQUIRE(config.bias
                         ? bias.shape() == Shape({config.out_channels})
                         : bias.empty(),
                     "Conv2d bias ", bias.shape().to_string(),
                     " does not match config bias=", config.bias, " for ",
                     config.out_channels, " filters");
    weight_ = Parameter("conv2d.weight", std::move(weight));
    if (config.bias) {
        bias_ = Parameter("conv2d.bias", std::move(bias));
    }
}

Shape
Conv2d::output_shape(const Shape& in) const
{
    SHREDDER_REQUIRE(in.rank() == 4, "Conv2d wants NCHW, got ",
                     in.to_string());
    SHREDDER_REQUIRE(in[1] == config_.in_channels, "Conv2d expects ",
                     config_.in_channels, " channels, got ", in[1]);
    const std::int64_t oh =
        conv_out_extent(in[2], config_.kernel, config_.stride,
                        config_.padding);
    const std::int64_t ow =
        conv_out_extent(in[3], config_.kernel, config_.stride,
                        config_.padding);
    SHREDDER_REQUIRE(oh > 0 && ow > 0, "Conv2d output collapses for input ",
                     in.to_string());
    return Shape({in[0], config_.out_channels, oh, ow});
}

std::vector<Parameter*>
Conv2d::parameters()
{
    std::vector<Parameter*> out{&weight_};
    if (config_.bias) {
        out.push_back(&bias_);
    }
    return out;
}

std::int64_t
Conv2d::macs(const Shape& in) const
{
    const Shape out = output_shape(in);
    const std::int64_t fan_in =
        config_.in_channels * config_.kernel * config_.kernel;
    // Per sample: every output element is a fan_in-long dot product.
    return config_.out_channels * out[2] * out[3] * fan_in;
}

Tensor
Conv2d::forward(const Tensor& x, ExecutionContext& ctx, Mode /*mode*/) const
{
    const Shape out_shape = output_shape(x.shape());
    const std::int64_t batch = x.shape()[0];
    const std::int64_t in_c = x.shape()[1];
    const std::int64_t in_h = x.shape()[2];
    const std::int64_t in_w = x.shape()[3];
    const std::int64_t out_c = out_shape[1];
    const std::int64_t out_h = out_shape[2];
    const std::int64_t out_w = out_shape[3];
    const std::int64_t col_cols = out_h * out_w;

    Tensor y(out_shape);
    const float* xp = x.data();
    float* yp = y.data();
    const float* wp = weight_.value.data();

    parallel_for(0, batch, [&](std::int64_t n) {
        // out[Cout, OHOW] = W[Cout, Cin·K·K] · im2col(x[n]); conv_gemm
        // draws its scratch from this thread's arena, so chunks on pool
        // workers never share one.
        float* orow = yp + n * out_c * col_cols;
        conv_gemm(wp, out_c, xp + n * in_c * in_h * in_w, in_c, in_h, in_w,
                  config_.kernel, config_.stride, config_.padding, orow);
        if (config_.bias) {
            const float* bp = bias_.value.data();
            for (std::int64_t c = 0; c < out_c; ++c) {
                const float b = bp[c];
                for (std::int64_t i = 0; i < col_cols; ++i) {
                    orow[c * col_cols + i] += b;
                }
            }
        }
    });

    if (ctx.retain_activations()) {
        ctx.state(this).cached = x;
    }
    return y;
}

Tensor
Conv2d::backward(const Tensor& grad_out, ExecutionContext& ctx)
{
    const Tensor& x = ctx.state(this).cached;
    SHREDDER_CHECK(!x.empty(), "Conv2d::backward without forward");
    const Shape out_shape = output_shape(x.shape());
    SHREDDER_CHECK(grad_out.shape() == out_shape,
                   "Conv2d grad shape mismatch: ",
                   grad_out.shape().to_string(), " vs ",
                   out_shape.to_string());

    const std::int64_t batch = x.shape()[0];
    const std::int64_t in_c = x.shape()[1];
    const std::int64_t in_h = x.shape()[2];
    const std::int64_t in_w = x.shape()[3];
    const std::int64_t out_c = out_shape[1];
    const std::int64_t out_h = out_shape[2];
    const std::int64_t out_w = out_shape[3];
    const std::int64_t col_rows = in_c * config_.kernel * config_.kernel;
    const std::int64_t col_cols = out_h * out_w;

    Tensor grad_in(x.shape());
    const float* gp = grad_out.data();
    const float* wp = weight_.value.data();
    const bool need_wgrad = !weight_.frozen;

    // The context's arena: backward is serial over the batch, so the
    // scratch stays private to this call even with other contexts
    // forwarding concurrently on other threads.
    ScratchArena& arena = ctx.scratch();
    ScratchLease col =
        arena.acquire(static_cast<std::size_t>(col_rows * col_cols));
    ScratchLease col_grad =
        arena.acquire(static_cast<std::size_t>(col_rows * col_cols));

    // Serial over batch: weight gradients accumulate into shared
    // storage and batches are small; correctness over parallelism here.
    for (std::int64_t n = 0; n < batch; ++n) {
        const float* gn = gp + n * out_c * col_cols;
        if (need_wgrad) {
            im2col(x.data() + n * in_c * in_h * in_w, in_c, in_h, in_w,
                   config_.kernel, config_.kernel, config_.stride,
                   config_.stride, config_.padding, config_.padding,
                   col.data());
            // dW[Cout, col_rows] += g[Cout, OHOW] · colᵀ[OHOW, col_rows]
            gemm(false, true, out_c, col_rows, col_cols, 1.0f, gn,
                 col.data(), 1.0f, weight_.grad.data());
        }
        // col_grad[col_rows, OHOW] = Wᵀ[col_rows, Cout] · g[Cout, OHOW]
        gemm(true, false, col_rows, col_cols, out_c, 1.0f, wp, gn, 0.0f,
             col_grad.data());
        col2im(col_grad.data(), in_c, in_h, in_w, config_.kernel,
               config_.kernel, config_.stride, config_.stride,
               config_.padding, config_.padding,
               grad_in.data() + n * in_c * in_h * in_w);
    }

    if (config_.bias && !bias_.frozen) {
        float* bg = bias_.grad.data();
        for (std::int64_t n = 0; n < batch; ++n) {
            for (std::int64_t c = 0; c < out_c; ++c) {
                const float* row = gp + (n * out_c + c) * col_cols;
                double s = 0.0;
                for (std::int64_t i = 0; i < col_cols; ++i) {
                    s += row[i];
                }
                bg[c] += static_cast<float>(s);
            }
        }
    }
    return grad_in;
}

}  // namespace nn
}  // namespace shredder
