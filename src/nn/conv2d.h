/**
 * @file
 * 2-D convolution layer (NCHW) implemented as im2col + GEMM.
 */
#ifndef SHREDDER_NN_CONV2D_H
#define SHREDDER_NN_CONV2D_H

#include <string>
#include <vector>

#include "src/nn/layer.h"
#include "src/tensor/rng.h"

namespace shredder {
namespace nn {

/** Static configuration of a Conv2d layer. */
struct Conv2dConfig
{
    std::int64_t in_channels = 0;
    std::int64_t out_channels = 0;
    std::int64_t kernel = 3;
    std::int64_t stride = 1;
    std::int64_t padding = 0;
    bool bias = true;
};

/**
 * 2-D convolution over NCHW batches.
 *
 * Forward: per-sample im2col unfolds patches into a
 * [Cin·K·K, OH·OW] matrix; the weight [Cout, Cin·K·K] GEMM produces
 * the output feature map. Backward recomputes im2col (memory over
 * speed) to accumulate weight gradients and uses col2im for the input
 * gradient.
 */
class Conv2d final : public Layer
{
  public:
    /**
     * Construct with Kaiming-He initialization.
     *
     * @param config  Layer geometry.
     * @param rng     Weight-init randomness.
     */
    Conv2d(const Conv2dConfig& config, Rng& rng);

    /**
     * Construct around existing parameters — how a loaded network is
     * rebuilt, drawing nothing. Shapes are checked against `config`
     * (user error on mismatch).
     *
     * @param config  Layer geometry.
     * @param weight  [Cout, Cin·K·K] filter bank.
     * @param bias    [Cout], or empty when `config.bias` is false.
     */
    Conv2d(const Conv2dConfig& config, Tensor weight, Tensor bias = Tensor());

    Tensor forward(const Tensor& x, ExecutionContext& ctx,
                   Mode mode) const override;
    Tensor backward(const Tensor& grad_out, ExecutionContext& ctx) override;

    std::string kind() const override { return "conv2d"; }
    Shape output_shape(const Shape& in) const override;
    std::vector<Parameter*> parameters() override;
    std::int64_t macs(const Shape& in) const override;

    const Conv2dConfig& config() const { return config_; }
    Parameter& weight() { return weight_; }
    Parameter& bias() { return bias_; }

  private:
    Conv2dConfig config_;
    Parameter weight_;  ///< [Cout, Cin·K·K] (flattened filter bank).
    Parameter bias_;    ///< [Cout] (empty when config.bias == false).
};

}  // namespace nn
}  // namespace shredder

#endif  // SHREDDER_NN_CONV2D_H
