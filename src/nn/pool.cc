/**
 * @file
 * Implementation of the max/average pooling layers.
 *
 * Max-pool picks, per window, the first element strictly above −inf in
 * row order, or the window's first element when none is. A forward-only
 * 2×2, stride-2, unpadded max-pool (every served one in the zoo) keeps
 * that rule as a branch-free select, which the compiler vectorizes
 * across a row of outputs; other geometries, and contexts that record
 * the argmax for backward, run the general loop.
 */
#include "src/nn/pool.h"

#include <algorithm>
#include <limits>

#include "src/runtime/logging.h"
#include "src/tensor/im2col.h"

namespace shredder {
namespace nn {

namespace {

Shape
pool_output_shape(const Shape& in, const PoolConfig& cfg, const char* what)
{
    SHREDDER_REQUIRE(in.rank() == 4, what, " wants NCHW, got ",
                     in.to_string());
    const std::int64_t oh =
        conv_out_extent(in[2], cfg.kernel, cfg.stride, cfg.padding);
    const std::int64_t ow =
        conv_out_extent(in[3], cfg.kernel, cfg.stride, cfg.padding);
    SHREDDER_REQUIRE(oh > 0 && ow > 0, what, " output collapses for ",
                     in.to_string());
    return Shape({in[0], in[1], oh, ow});
}

/**
 * Forward-only 2×2, stride-2, unpadded max-pool over `planes` planes.
 * `best = best < v ? v : best` from −inf in row order is the general
 * loop's `v > best` rule without a branch: a strictly greater value
 * replaces, so NaN is skipped and the first of equal values (±0) stays.
 * A window with nothing above −inf answers its first element.
 */
void
max_pool_2x2(const float* __restrict__ x, std::int64_t planes,
             std::int64_t ih, std::int64_t iw, std::int64_t oh,
             std::int64_t ow, float* __restrict__ y)
{
    const float lowest = -std::numeric_limits<float>::infinity();
    for (std::int64_t pl = 0; pl < planes; ++pl) {
        const float* plane = x + pl * ih * iw;
        for (std::int64_t i = 0; i < oh; ++i, y += ow) {
            const float* top = plane + 2 * i * iw;
            const float* bottom = top + iw;
            for (std::int64_t j = 0; j < ow; ++j) {
                const float first = top[2 * j];
                float best = lowest < first ? first : lowest;
                best = best < top[2 * j + 1] ? top[2 * j + 1] : best;
                best = best < bottom[2 * j] ? bottom[2 * j] : best;
                best = best < bottom[2 * j + 1] ? bottom[2 * j + 1] : best;
                y[j] = lowest < best ? best : first;
            }
        }
    }
}

}  // namespace

MaxPool2d::MaxPool2d(const PoolConfig& config) : config_(config)
{
    // Padding below the kernel keeps an in-bounds element in every
    // window; a window wholly in the padding has no maximum.
    SHREDDER_REQUIRE(config.kernel > 0 && config.stride > 0 &&
                         config.padding >= 0 &&
                         config.padding < config.kernel,
                     "bad MaxPool2d config (kernel ", config.kernel,
                     ", stride ", config.stride, ", padding ",
                     config.padding, ")");
}

Shape
MaxPool2d::output_shape(const Shape& in) const
{
    return pool_output_shape(in, config_, "MaxPool2d");
}

Tensor
MaxPool2d::forward(const Tensor& x, ExecutionContext& ctx,
                   Mode /*mode*/) const
{
    const Shape out_shape = output_shape(x.shape());
    const std::int64_t batch = x.shape()[0], chans = x.shape()[1];
    const std::int64_t ih = x.shape()[2], iw = x.shape()[3];
    const std::int64_t oh = out_shape[2], ow = out_shape[3];

    Tensor y(out_shape);
    // The argmax table is one int64 per output element — as big as the
    // output itself — so forward-only contexts skip recording it.
    const bool retain = ctx.retain_activations();
    if (!retain && config_.kernel == 2 && config_.stride == 2 &&
        config_.padding == 0) {
        max_pool_2x2(x.data(), batch * chans, ih, iw, oh, ow, y.data());
        return y;
    }
    LayerState& state = ctx.state(this);
    std::vector<std::int64_t>& argmax = state.argmax;
    if (retain) {
        argmax.assign(static_cast<std::size_t>(y.size()), -1);
        state.in_shape = x.shape();
    }

    const std::int64_t k = config_.kernel;
    const float* xp = x.data();
    float* yp = y.data();
    std::int64_t out_idx = 0;
    for (std::int64_t n = 0; n < batch; ++n) {
        for (std::int64_t c = 0; c < chans; ++c) {
            const std::int64_t plane_base = (n * chans + c) * ih * iw;
            const float* plane = xp + plane_base;
            for (std::int64_t i = 0; i < oh; ++i) {
                const std::int64_t r0 = i * config_.stride - config_.padding;
                const std::int64_t r_begin = std::max<std::int64_t>(0, r0);
                const std::int64_t r_end = std::min(ih, r0 + k);
                for (std::int64_t j = 0; j < ow; ++j, ++out_idx) {
                    const std::int64_t c0 =
                        j * config_.stride - config_.padding;
                    const std::int64_t c_begin =
                        std::max<std::int64_t>(0, c0);
                    const std::int64_t c_end = std::min(iw, c0 + k);
                    SHREDDER_CHECK(r_begin < r_end && c_begin < c_end,
                                   "empty max-pool window");
                    // The first element strictly above −inf, scanning
                    // in row order, wins. A window of only NaN and −inf
                    // has none, and answers with its first element.
                    float best = -std::numeric_limits<float>::infinity();
                    std::int64_t best_at = r_begin * iw + c_begin;
                    for (std::int64_t r = r_begin; r < r_end; ++r) {
                        for (std::int64_t col = c_begin; col < c_end;
                             ++col) {
                            const float v = plane[r * iw + col];
                            if (v > best) {
                                best = v;
                                best_at = r * iw + col;
                            }
                        }
                    }
                    yp[out_idx] = plane[best_at];
                    if (retain) {
                        argmax[static_cast<std::size_t>(out_idx)] =
                            plane_base + best_at;
                    }
                }
            }
        }
    }
    return y;
}

Tensor
MaxPool2d::backward(const Tensor& grad_out, ExecutionContext& ctx)
{
    const LayerState& state = ctx.state(this);
    SHREDDER_CHECK(state.in_shape.rank() == 4,
                   "MaxPool2d::backward without forward");
    SHREDDER_CHECK(static_cast<std::size_t>(grad_out.size()) ==
                       state.argmax.size(),
                   "MaxPool2d grad size mismatch");
    Tensor grad_in(state.in_shape);
    float* gi = grad_in.data();
    const float* go = grad_out.data();
    for (std::size_t i = 0; i < state.argmax.size(); ++i) {
        gi[state.argmax[i]] += go[static_cast<std::int64_t>(i)];
    }
    return grad_in;
}

AvgPool2d::AvgPool2d(const PoolConfig& config) : config_(config)
{
    SHREDDER_REQUIRE(config.kernel > 0 && config.stride > 0 &&
                         config.padding >= 0,
                     "bad AvgPool2d config");
}

Shape
AvgPool2d::output_shape(const Shape& in) const
{
    return pool_output_shape(in, config_, "AvgPool2d");
}

Tensor
AvgPool2d::forward(const Tensor& x, ExecutionContext& ctx,
                   Mode /*mode*/) const
{
    const Shape out_shape = output_shape(x.shape());
    const std::int64_t batch = x.shape()[0], chans = x.shape()[1];
    const std::int64_t ih = x.shape()[2], iw = x.shape()[3];
    const std::int64_t oh = out_shape[2], ow = out_shape[3];
    const float inv_area =
        1.0f / static_cast<float>(config_.kernel * config_.kernel);

    Tensor y(out_shape);
    ctx.state(this).in_shape = x.shape();

    const float* xp = x.data();
    float* yp = y.data();
    std::int64_t out_idx = 0;
    for (std::int64_t n = 0; n < batch; ++n) {
        for (std::int64_t c = 0; c < chans; ++c) {
            const float* plane = xp + (n * chans + c) * ih * iw;
            for (std::int64_t i = 0; i < oh; ++i) {
                for (std::int64_t j = 0; j < ow; ++j, ++out_idx) {
                    double s = 0.0;
                    for (std::int64_t ki = 0; ki < config_.kernel; ++ki) {
                        const std::int64_t r =
                            i * config_.stride - config_.padding + ki;
                        if (r < 0 || r >= ih) {
                            continue;
                        }
                        for (std::int64_t kj = 0; kj < config_.kernel;
                             ++kj) {
                            const std::int64_t col =
                                j * config_.stride - config_.padding + kj;
                            if (col < 0 || col >= iw) {
                                continue;
                            }
                            s += plane[r * iw + col];
                        }
                    }
                    yp[out_idx] = static_cast<float>(s) * inv_area;
                }
            }
        }
    }
    return y;
}

Tensor
AvgPool2d::backward(const Tensor& grad_out, ExecutionContext& ctx)
{
    const Shape in_shape = ctx.state(this).in_shape;
    SHREDDER_CHECK(in_shape.rank() == 4,
                   "AvgPool2d::backward without forward");
    const Shape out_shape = output_shape(in_shape);
    SHREDDER_CHECK(grad_out.shape() == out_shape,
                   "AvgPool2d grad shape mismatch");
    const std::int64_t batch = in_shape[0];
    const std::int64_t chans = in_shape[1];
    const std::int64_t ih = in_shape[2], iw = in_shape[3];
    const std::int64_t oh = out_shape[2], ow = out_shape[3];
    const float inv_area =
        1.0f / static_cast<float>(config_.kernel * config_.kernel);

    Tensor grad_in(in_shape);
    float* gi = grad_in.data();
    const float* go = grad_out.data();
    std::int64_t out_idx = 0;
    for (std::int64_t n = 0; n < batch; ++n) {
        for (std::int64_t c = 0; c < chans; ++c) {
            float* plane = gi + (n * chans + c) * ih * iw;
            for (std::int64_t i = 0; i < oh; ++i) {
                for (std::int64_t j = 0; j < ow; ++j, ++out_idx) {
                    const float g = go[out_idx] * inv_area;
                    for (std::int64_t ki = 0; ki < config_.kernel; ++ki) {
                        const std::int64_t r =
                            i * config_.stride - config_.padding + ki;
                        if (r < 0 || r >= ih) {
                            continue;
                        }
                        for (std::int64_t kj = 0; kj < config_.kernel;
                             ++kj) {
                            const std::int64_t col =
                                j * config_.stride - config_.padding + kj;
                            if (col < 0 || col >= iw) {
                                continue;
                            }
                            plane[r * iw + col] += g;
                        }
                    }
                }
            }
        }
    }
    return grad_in;
}

}  // namespace nn
}  // namespace shredder
