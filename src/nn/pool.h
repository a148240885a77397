/**
 * @file
 * Spatial pooling layers (max and average) over NCHW batches.
 */
#ifndef SHREDDER_NN_POOL_H
#define SHREDDER_NN_POOL_H

#include <string>
#include <vector>

#include "src/nn/layer.h"

namespace shredder {
namespace nn {

/** Static configuration shared by the pooling layers. */
struct PoolConfig
{
    std::int64_t kernel = 2;
    std::int64_t stride = 2;
    std::int64_t padding = 0;
};

/** Max pooling; argmax indices routed through the context. */
class MaxPool2d final : public Layer
{
  public:
    /** Requires padding < kernel, so no window lies wholly in padding. */
    explicit MaxPool2d(const PoolConfig& config);

    Tensor forward(const Tensor& x, ExecutionContext& ctx,
                   Mode mode) const override;
    Tensor backward(const Tensor& grad_out, ExecutionContext& ctx) override;
    std::string kind() const override { return "maxpool2d"; }
    Shape output_shape(const Shape& in) const override;

    const PoolConfig& config() const { return config_; }

  private:
    PoolConfig config_;
};

/** Average pooling; gradients spread uniformly over the window. */
class AvgPool2d final : public Layer
{
  public:
    explicit AvgPool2d(const PoolConfig& config);

    Tensor forward(const Tensor& x, ExecutionContext& ctx,
                   Mode mode) const override;
    Tensor backward(const Tensor& grad_out, ExecutionContext& ctx) override;
    std::string kind() const override { return "avgpool2d"; }
    Shape output_shape(const Shape& in) const override;

    const PoolConfig& config() const { return config_; }

  private:
    PoolConfig config_;
};

}  // namespace nn
}  // namespace shredder

#endif  // SHREDDER_NN_POOL_H
