/**
 * @file
 * Implementation of the fully connected `Linear` layer.
 */
#include "src/nn/linear.h"

#include "src/nn/init.h"
#include "src/runtime/logging.h"
#include "src/tensor/gemm.h"

namespace shredder {
namespace nn {

namespace {

/** A Kaiming-He initialized [out, in] weight matrix. */
Tensor
kaiming_weight(std::int64_t in_features, std::int64_t out_features,
               Rng& rng)
{
    SHREDDER_REQUIRE(in_features > 0 && out_features > 0,
                     "bad Linear dims ", in_features, "x", out_features);
    Tensor w(Shape({out_features, in_features}));
    kaiming_normal(w, in_features, rng);
    return w;
}

}  // namespace

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               bool with_bias)
    : Linear(in_features, out_features,
             kaiming_weight(in_features, out_features, rng),
             with_bias ? Tensor(Shape({out_features})) : Tensor())
{
}

Linear::Linear(std::int64_t in_features, std::int64_t out_features,
               Tensor weight, Tensor bias)
    : in_features_(in_features), out_features_(out_features),
      with_bias_(!bias.empty())
{
    SHREDDER_REQUIRE(in_features > 0 && out_features > 0,
                     "bad Linear dims ", in_features, "x", out_features);
    SHREDDER_REQUIRE(weight.shape() == Shape({out_features, in_features}),
                     "Linear weight ", weight.shape().to_string(),
                     " does not match ", out_features, "x", in_features);
    SHREDDER_REQUIRE(!with_bias_ || bias.shape() == Shape({out_features}),
                     "Linear bias ", bias.shape().to_string(),
                     " does not match ", out_features, " outputs");
    weight_ = Parameter("linear.weight", std::move(weight));
    if (with_bias_) {
        bias_ = Parameter("linear.bias", std::move(bias));
    }
}

Shape
Linear::output_shape(const Shape& in) const
{
    SHREDDER_REQUIRE(in.rank() == 2, "Linear wants rank-2 input, got ",
                     in.to_string());
    SHREDDER_REQUIRE(in[1] == in_features_, "Linear expects width ",
                     in_features_, ", got ", in[1]);
    return Shape({in[0], out_features_});
}

std::vector<Parameter*>
Linear::parameters()
{
    std::vector<Parameter*> out{&weight_};
    if (with_bias_) {
        out.push_back(&bias_);
    }
    return out;
}

std::int64_t
Linear::macs(const Shape& /*in*/) const
{
    return in_features_ * out_features_;
}

Tensor
Linear::forward(const Tensor& x, ExecutionContext& ctx, Mode /*mode*/) const
{
    const Shape out_shape = output_shape(x.shape());
    const std::int64_t batch = x.shape()[0];
    Tensor y(out_shape);
    // y[N, out] = x[N, in] · Wᵀ[in, out]
    gemm(false, true, batch, out_features_, in_features_, 1.0f, x.data(),
         weight_.value.data(), 0.0f, y.data());
    if (with_bias_) {
        const float* bp = bias_.value.data();
        float* yp = y.data();
        for (std::int64_t n = 0; n < batch; ++n) {
            for (std::int64_t o = 0; o < out_features_; ++o) {
                yp[n * out_features_ + o] += bp[o];
            }
        }
    }
    if (ctx.retain_activations()) {
        ctx.state(this).cached = x;
    }
    return y;
}

Tensor
Linear::backward(const Tensor& grad_out, ExecutionContext& ctx)
{
    const Tensor& x = ctx.state(this).cached;
    SHREDDER_CHECK(!x.empty(), "Linear::backward without forward");
    const std::int64_t batch = x.shape()[0];
    SHREDDER_CHECK(grad_out.shape() == Shape({batch, out_features_}),
                   "Linear grad shape mismatch");

    if (!weight_.frozen) {
        // dW[out, in] += gᵀ[out, N] · x[N, in]
        gemm(true, false, out_features_, in_features_, batch, 1.0f,
             grad_out.data(), x.data(), 1.0f, weight_.grad.data());
    }
    if (with_bias_ && !bias_.frozen) {
        float* bg = bias_.grad.data();
        const float* gp = grad_out.data();
        for (std::int64_t n = 0; n < batch; ++n) {
            for (std::int64_t o = 0; o < out_features_; ++o) {
                bg[o] += gp[n * out_features_ + o];
            }
        }
    }
    // dx[N, in] = g[N, out] · W[out, in]
    Tensor grad_in(x.shape());
    gemm(false, false, batch, in_features_, out_features_, 1.0f,
         grad_out.data(), weight_.value.data(), 0.0f, grad_in.data());
    return grad_in;
}

}  // namespace nn
}  // namespace shredder
