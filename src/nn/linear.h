/**
 * @file
 * Fully-connected (affine) layer.
 */
#ifndef SHREDDER_NN_LINEAR_H
#define SHREDDER_NN_LINEAR_H

#include <string>
#include <vector>

#include "src/nn/layer.h"
#include "src/tensor/rng.h"

namespace shredder {
namespace nn {

/**
 * y = x · Wᵀ + b with W stored [out_features, in_features].
 *
 * Inputs are rank-2 [N, in_features]; use Flatten before this layer
 * for image activations.
 */
class Linear final : public Layer
{
  public:
    /**
     * Construct with Kaiming-He initialization.
     *
     * @param in_features   Input width.
     * @param out_features  Output width.
     * @param rng           Weight-init randomness.
     * @param with_bias     Allocate a bias vector.
     */
    Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
           bool with_bias = true);

    /**
     * Construct around existing parameters — how a loaded network is
     * rebuilt, drawing nothing. Shapes are checked against the
     * feature counts (user error on mismatch).
     *
     * @param in_features   Input width.
     * @param out_features  Output width.
     * @param weight        [out_features, in_features].
     * @param bias          [out_features], or empty for no bias.
     */
    Linear(std::int64_t in_features, std::int64_t out_features,
           Tensor weight, Tensor bias = Tensor());

    Tensor forward(const Tensor& x, ExecutionContext& ctx,
                   Mode mode) const override;
    Tensor backward(const Tensor& grad_out, ExecutionContext& ctx) override;

    std::string kind() const override { return "linear"; }
    Shape output_shape(const Shape& in) const override;
    std::vector<Parameter*> parameters() override;
    std::int64_t macs(const Shape& in) const override;

    std::int64_t in_features() const { return in_features_; }
    std::int64_t out_features() const { return out_features_; }
    /** True when the layer carries a bias vector. */
    bool has_bias() const { return with_bias_; }
    Parameter& weight() { return weight_; }
    Parameter& bias() { return bias_; }

  private:
    std::int64_t in_features_;
    std::int64_t out_features_;
    bool with_bias_;
    Parameter weight_;  ///< [out, in]
    Parameter bias_;    ///< [out]
};

}  // namespace nn
}  // namespace shredder

#endif  // SHREDDER_NN_LINEAR_H
