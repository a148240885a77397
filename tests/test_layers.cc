/** @file Gradient and behavior tests for every layer type. */
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/activations.h"
#include "src/nn/conv2d.h"
#include "src/nn/dropout.h"
#include "src/nn/flatten.h"
#include "src/nn/linear.h"
#include "src/nn/lrn.h"
#include "src/nn/pool.h"
#include "src/tensor/gemm.h"
#include "src/tensor/im2col.h"
#include "tests/test_util.h"

namespace shredder {
namespace {

using nn::ExecutionContext;
using nn::Mode;

// ---------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------

TEST(ReLU, ForwardClampsNegatives)
{
    nn::ReLU relu;
    ExecutionContext ctx;
    Tensor x = Tensor::from_vector({-1.0f, 0.0f, 2.0f});
    Tensor y = relu.forward(x, ctx, Mode::kEval);
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_EQ(y[1], 0.0f);
    EXPECT_EQ(y[2], 2.0f);
}

TEST(ReLU, KeepsTheBitsOfNegativeZeroAndNan)
{
    auto from_bits = [](std::uint32_t bits) {
        float v = 0.0f;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    };
    const float inf = std::numeric_limits<float>::infinity();
    // -0.0, a quiet NaN with a payload, a negative NaN, then ordinary
    // values: the first three must come back with their exact bits.
    const std::vector<float> in{from_bits(0x80000000u), from_bits(0x7FC00123u),
                                from_bits(0xFFC00001u), inf, -inf, -1.5f,
                                2.5f, 0.0f};
    const std::vector<float> want{from_bits(0x80000000u),
                                  from_bits(0x7FC00123u),
                                  from_bits(0xFFC00001u), inf, 0.0f, 0.0f,
                                  2.5f, 0.0f};
    nn::ReLU relu;
    ExecutionContext ctx;
    const Tensor y = relu.forward(Tensor::from_vector(in), ctx, Mode::kEval);
    ASSERT_EQ(y.size(), static_cast<std::int64_t>(want.size()));
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(std::memcmp(&y.data()[i], &want[i], sizeof(float)), 0)
            << "at " << i;
    }
}

TEST(ReLU, GradientMasksNegatives)
{
    nn::ReLU relu;
    ExecutionContext ctx;
    Tensor x = Tensor::from_vector({-1.0f, 3.0f});
    relu.forward(x, ctx, Mode::kEval);
    Tensor g = relu.backward(Tensor::from_vector({5.0f, 7.0f}), ctx);
    EXPECT_EQ(g[0], 0.0f);
    EXPECT_EQ(g[1], 7.0f);
}

TEST(ReLU, NumericGradient)
{
    nn::ReLU relu;
    Rng rng(1);
    // Keep values away from the kink for a clean finite difference.
    Tensor x = Tensor::normal(Shape({2, 5}), rng, 0.0f, 2.0f);
    ops::map_inplace(x, [](float v) {
        return std::abs(v) < 0.1f ? v + 0.2f : v;
    });
    testing::check_layer_gradients(relu, x, rng);
}

TEST(ReLU, IndependentContextsDoNotInterfere)
{
    // The statelessness contract: two execution streams may interleave
    // forwards on ONE layer object and still back-propagate correctly,
    // because caches live in the contexts.
    nn::ReLU relu;
    ExecutionContext ctx_a, ctx_b;
    Tensor xa = Tensor::from_vector({-1.0f, 3.0f});
    Tensor xb = Tensor::from_vector({2.0f, -4.0f});
    relu.forward(xa, ctx_a, Mode::kEval);
    relu.forward(xb, ctx_b, Mode::kEval);  // would clobber member caches
    Tensor ga = relu.backward(Tensor::from_vector({5.0f, 7.0f}), ctx_a);
    Tensor gb = relu.backward(Tensor::from_vector({11.0f, 13.0f}), ctx_b);
    EXPECT_EQ(ga[0], 0.0f);  // xa[0] < 0
    EXPECT_EQ(ga[1], 7.0f);
    EXPECT_EQ(gb[0], 11.0f);
    EXPECT_EQ(gb[1], 0.0f);  // xb[1] < 0
}

// ---------------------------------------------------------------------
// Tanh
// ---------------------------------------------------------------------

TEST(Tanh, ForwardRange)
{
    nn::Tanh tanh_layer;
    ExecutionContext ctx;
    Rng rng(2);
    Tensor x = Tensor::normal(Shape({10}), rng, 0.0f, 3.0f);
    Tensor y = tanh_layer.forward(x, ctx, Mode::kEval);
    for (std::int64_t i = 0; i < y.size(); ++i) {
        EXPECT_GT(y[i], -1.0f);
        EXPECT_LT(y[i], 1.0f);
    }
}

TEST(Tanh, NumericGradient)
{
    nn::Tanh tanh_layer;
    Rng rng(3);
    Tensor x = Tensor::normal(Shape({3, 4}), rng);
    testing::check_layer_gradients(tanh_layer, x, rng, 1e-2f, 2e-2);
}

// ---------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------

TEST(Linear, KnownForward)
{
    Rng rng(4);
    nn::Linear fc(2, 1, rng);
    fc.weight().value[0] = 2.0f;
    fc.weight().value[1] = -1.0f;
    fc.bias().value[0] = 0.5f;
    ExecutionContext ctx;
    Tensor x(Shape({1, 2}));
    x[0] = 3.0f;
    x[1] = 4.0f;
    Tensor y = fc.forward(x, ctx, Mode::kEval);
    EXPECT_FLOAT_EQ(y[0], 2.0f * 3.0f - 4.0f + 0.5f);
}

TEST(Linear, OutputShapeAndMacs)
{
    Rng rng(5);
    nn::Linear fc(10, 4, rng);
    EXPECT_EQ(fc.output_shape(Shape({8, 10})), Shape({8, 4}));
    EXPECT_EQ(fc.macs(Shape({8, 10})), 40);
}

TEST(Linear, NumericGradient)
{
    Rng rng(6);
    nn::Linear fc(6, 4, rng);
    Tensor x = Tensor::normal(Shape({3, 6}), rng);
    testing::check_layer_gradients(fc, x, rng);
}

TEST(Linear, FrozenWeightSkipsGradAccumulation)
{
    Rng rng(7);
    nn::Linear fc(3, 2, rng);
    fc.set_frozen(true);
    ExecutionContext ctx;
    Tensor x = Tensor::normal(Shape({2, 3}), rng);
    fc.zero_grad();
    Tensor y = fc.forward(x, ctx, Mode::kTrain);
    fc.backward(Tensor::ones(y.shape()), ctx);
    EXPECT_DOUBLE_EQ(fc.weight().grad.abs_sum(), 0.0);
    EXPECT_DOUBLE_EQ(fc.bias().grad.abs_sum(), 0.0);
}

// ---------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------

TEST(Conv2d, KnownForwardSumKernel)
{
    // All-ones 2×2 kernel on a 2×2 image of ones, no pad → sums to 4.
    Rng rng(8);
    nn::Conv2dConfig cfg;
    cfg.in_channels = 1;
    cfg.out_channels = 1;
    cfg.kernel = 2;
    nn::Conv2d conv(cfg, rng);
    conv.weight().value.fill(1.0f);
    conv.bias().value.fill(0.0f);
    ExecutionContext ctx;
    Tensor x = Tensor::ones(Shape({1, 1, 2, 2}));
    Tensor y = conv.forward(x, ctx, Mode::kEval);
    EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
    EXPECT_FLOAT_EQ(y[0], 4.0f);
}

TEST(Conv2d, BiasIsAdded)
{
    Rng rng(9);
    nn::Conv2dConfig cfg;
    cfg.in_channels = 1;
    cfg.out_channels = 2;
    cfg.kernel = 1;
    nn::Conv2d conv(cfg, rng);
    conv.weight().value.fill(0.0f);
    conv.bias().value[0] = 1.5f;
    conv.bias().value[1] = -2.0f;
    ExecutionContext ctx;
    Tensor x = Tensor::ones(Shape({1, 1, 3, 3}));
    Tensor y = conv.forward(x, ctx, Mode::kEval);
    EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 1.5f);
    EXPECT_FLOAT_EQ(y.at4(0, 1, 2, 2), -2.0f);
}

TEST(Conv2d, OutputShapeStridePad)
{
    Rng rng(10);
    nn::Conv2dConfig cfg;
    cfg.in_channels = 3;
    cfg.out_channels = 8;
    cfg.kernel = 5;
    cfg.stride = 2;
    cfg.padding = 2;
    nn::Conv2d conv(cfg, rng);
    EXPECT_EQ(conv.output_shape(Shape({2, 3, 64, 64})),
              Shape({2, 8, 32, 32}));
}

TEST(Conv2d, MacsFormula)
{
    Rng rng(11);
    nn::Conv2dConfig cfg;
    cfg.in_channels = 3;
    cfg.out_channels = 4;
    cfg.kernel = 3;
    cfg.padding = 1;
    nn::Conv2d conv(cfg, rng);
    // 4 out-ch × 8×8 positions × (3·3·3) fan-in = 6912.
    EXPECT_EQ(conv.macs(Shape({1, 3, 8, 8})), 4 * 8 * 8 * 27);
}

/**
 * The lowering Conv2d::forward must equal bit for bit: per image,
 * im2col, then gemm(false, false, ...) with beta = 0, then the bias.
 */
Tensor
lowered_conv_forward(nn::Conv2d& conv, const Tensor& x)
{
    const nn::Conv2dConfig& cfg = conv.config();
    const Shape out = conv.output_shape(x.shape());
    const std::int64_t rows = cfg.in_channels * cfg.kernel * cfg.kernel;
    const std::int64_t cols = out[2] * out[3];
    const std::int64_t image = x.shape()[1] * x.shape()[2] * x.shape()[3];
    Tensor y(out);
    std::vector<float> col(static_cast<std::size_t>(rows * cols));
    for (std::int64_t n = 0; n < x.shape()[0]; ++n) {
        im2col(x.data() + n * image, x.shape()[1], x.shape()[2],
               x.shape()[3], cfg.kernel, cfg.kernel, cfg.stride, cfg.stride,
               cfg.padding, cfg.padding, col.data());
        float* yn = y.data() + n * cfg.out_channels * cols;
        gemm(false, false, cfg.out_channels, cols, rows, 1.0f,
             conv.weight().value.data(), col.data(), 0.0f, yn);
        if (cfg.bias) {
            for (std::int64_t c = 0; c < cfg.out_channels; ++c) {
                for (std::int64_t i = 0; i < cols; ++i) {
                    yn[c * cols + i] += conv.bias().value[c];
                }
            }
        }
    }
    return y;
}

/** Forward `x` through a fresh conv; compare with the lowering. */
void
expect_forward_is_the_lowering(const nn::Conv2dConfig& cfg, const Tensor& x,
                               Rng& rng)
{
    nn::Conv2d conv(cfg, rng);
    if (cfg.bias) {
        conv.bias().value = Tensor::normal(conv.bias().value.shape(), rng);
    }
    ExecutionContext ctx;
    const Tensor y = conv.forward(x, ctx, Mode::kEval);
    const Tensor want = lowered_conv_forward(conv, x);
    ASSERT_EQ(y.shape(), want.shape());
    ASSERT_EQ(std::memcmp(y.data(), want.data(),
                          sizeof(float) * static_cast<std::size_t>(y.size())),
              0)
        << "k=" << cfg.kernel << " s=" << cfg.stride << " p=" << cfg.padding
        << " cin=" << cfg.in_channels << " cout=" << cfg.out_channels
        << " bias=" << cfg.bias << " input " << x.shape().to_string();
}

TEST(Conv2d, ForwardIsTheIm2colLoweringBitForBit)
{
    // Cin·K² on both sides of the 256-deep k block, per kernel size.
    struct KernelCase
    {
        std::int64_t kernel, cin_below, cin_above;
    };
    const KernelCase kernels[] = {{1, 250, 260}, {3, 28, 29}, {5, 10, 11}};
    int packed = 0;
    int strided = 0;
    for (const KernelCase& kc : kernels) {
        for (const std::int64_t stride : {1, 2}) {
            for (const std::int64_t pad : {0, 1, 2}) {
                for (const std::int64_t cin : {kc.cin_below, kc.cin_above}) {
                    for (const std::int64_t extent : {1, 4, 5, 8}) {
                        const std::int64_t in =
                            (extent - 1) * stride + kc.kernel - 2 * pad;
                        if (in < 1) {
                            continue;  // no input has this output extent
                        }
                        for (const std::int64_t cout : {5, 16}) {
                            for (const std::int64_t batch : {1, 3}) {
                                for (const bool bias : {false, true}) {
                                    nn::Conv2dConfig cfg;
                                    cfg.in_channels = cin;
                                    cfg.out_channels = cout;
                                    cfg.kernel = kc.kernel;
                                    cfg.stride = stride;
                                    cfg.padding = pad;
                                    cfg.bias = bias;
                                    Rng rng(static_cast<std::uint64_t>(
                                        cin * 1009 + extent * 101 +
                                        stride * 11 + pad));
                                    const Tensor x = Tensor::normal(
                                        Shape({batch, cin, in, in}), rng);
                                    expect_forward_is_the_lowering(cfg, x,
                                                                   rng);
                                    // gemm's dispatch (src/tensor/gemm.cc).
                                    const std::int64_t n = extent * extent;
                                    const std::int64_t k =
                                        cin * kc.kernel * kc.kernel;
                                    if (cout >= 6 && n >= 8 &&
                                        cout * n * k > 16 * 1024) {
                                        ++packed;
                                    } else {
                                        ++strided;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(packed, 0);
    EXPECT_GT(strided, 0);

    Rng rng(31);
    nn::Conv2dConfig cfg;
    cfg.in_channels = 29;
    cfg.out_channels = 16;
    cfg.kernel = 3;
    cfg.stride = 2;
    cfg.padding = 1;
    // A non-square input: 9×14 → 5×7.
    expect_forward_is_the_lowering(
        cfg, Tensor::normal(Shape({3, 29, 9, 14}), rng), rng);
    // Non-finite inputs reach every output their receptive fields cover.
    cfg.stride = 1;
    Tensor x = Tensor::normal(Shape({1, 29, 8, 8}), rng);
    x.data()[5] = std::numeric_limits<float>::quiet_NaN();
    x.data()[200] = std::numeric_limits<float>::infinity();
    x.data()[1000] = -std::numeric_limits<float>::infinity();
    expect_forward_is_the_lowering(cfg, x, rng);
}

struct ConvGradCase
{
    std::int64_t in_c, out_c, k, stride, pad, h, w;
};

class Conv2dGradient : public ::testing::TestWithParam<ConvGradCase>
{};

TEST_P(Conv2dGradient, MatchesNumeric)
{
    const auto p = GetParam();
    Rng rng(static_cast<std::uint64_t>(p.in_c * 100 + p.k * 10 + p.stride));
    nn::Conv2dConfig cfg;
    cfg.in_channels = p.in_c;
    cfg.out_channels = p.out_c;
    cfg.kernel = p.k;
    cfg.stride = p.stride;
    cfg.padding = p.pad;
    nn::Conv2d conv(cfg, rng);
    Tensor x = Tensor::normal(Shape({2, p.in_c, p.h, p.w}), rng);
    testing::check_layer_gradients(conv, x, rng, 1e-2f, 4e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Conv2dGradient,
    ::testing::Values(ConvGradCase{1, 2, 3, 1, 1, 5, 5},
                      ConvGradCase{2, 3, 3, 2, 1, 7, 6},
                      ConvGradCase{3, 2, 5, 1, 2, 6, 6},
                      ConvGradCase{2, 2, 1, 1, 0, 4, 4},
                      ConvGradCase{1, 4, 2, 2, 0, 6, 6}));

// ---------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------

TEST(MaxPool2d, SelectsWindowMaximum)
{
    nn::MaxPool2d pool(nn::PoolConfig{2, 2, 0});
    ExecutionContext ctx;
    Tensor x(Shape({1, 1, 2, 2}));
    x[0] = 1.0f;
    x[1] = 9.0f;
    x[2] = 3.0f;
    x[3] = 4.0f;
    Tensor y = pool.forward(x, ctx, Mode::kEval);
    EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
    EXPECT_FLOAT_EQ(y[0], 9.0f);
}

TEST(MaxPool2d, GradientRoutesToArgmax)
{
    nn::MaxPool2d pool(nn::PoolConfig{2, 2, 0});
    ExecutionContext ctx;
    Tensor x(Shape({1, 1, 2, 2}));
    x[0] = 1.0f;
    x[1] = 9.0f;
    x[2] = 3.0f;
    x[3] = 4.0f;
    pool.forward(x, ctx, Mode::kEval);
    Tensor g =
        pool.backward(Tensor::full(Shape({1, 1, 1, 1}), 2.0f), ctx);
    EXPECT_FLOAT_EQ(g[1], 2.0f);
    EXPECT_FLOAT_EQ(g[0], 0.0f);
    EXPECT_FLOAT_EQ(g[2], 0.0f);
}

TEST(MaxPool2d, OverlappingWindowsAlexNetStyle)
{
    nn::MaxPool2d pool(nn::PoolConfig{3, 2, 0});
    ExecutionContext ctx;
    Rng rng(12);
    Tensor x = Tensor::normal(Shape({1, 2, 7, 7}), rng);
    Tensor y = pool.forward(x, ctx, Mode::kEval);
    EXPECT_EQ(y.shape(), Shape({1, 2, 3, 3}));
}

TEST(MaxPool2d, NumericGradient)
{
    nn::MaxPool2d pool(nn::PoolConfig{2, 2, 0});
    Rng rng(13);
    // Spread values so argmax is stable under the FD perturbation.
    Tensor x = Tensor::normal(Shape({1, 2, 4, 4}), rng, 0.0f, 5.0f);
    testing::check_layer_gradients(pool, x, rng, 1e-3f, 2e-2);
}

TEST(MaxPool2d, NanAndNegInfWindowsAnswerWithTheirFirstElement)
{
    // No element of an all-NaN or all-−inf window beats −inf, so such a
    // window outputs its first element, and its gradient goes there.
    // A NaN beside a real value still loses to it.
    nn::MaxPool2d pool(nn::PoolConfig{2, 2, 0});
    ExecutionContext ctx;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float ninf = -std::numeric_limits<float>::infinity();
    Tensor x(Shape({1, 1, 2, 6}));
    const float values[] = {nan, nan, ninf, ninf, nan, 3.0f,
                            nan, nan, ninf, ninf, ninf, 1.0f};
    for (std::int64_t i = 0; i < x.size(); ++i) {
        x[i] = values[i];
    }
    const Tensor y = pool.forward(x, ctx, Mode::kEval);
    ASSERT_EQ(y.shape(), Shape({1, 1, 1, 3}));
    EXPECT_TRUE(std::isnan(y[0]));
    EXPECT_EQ(y[1], ninf);
    EXPECT_EQ(y[2], 3.0f);

    const Tensor g =
        pool.backward(Tensor::full(Shape({1, 1, 1, 3}), 2.0f), ctx);
    for (std::int64_t i = 0; i < g.size(); ++i) {
        const bool routed = i == 0 || i == 2 || i == 5;
        EXPECT_EQ(g[i], routed ? 2.0f : 0.0f) << i;
    }
}

TEST(MaxPool2d, PaddedNegInfWindowsAnswerWithTheirFirstInBoundsElement)
{
    // With padding, a window's first element is its first in-bounds one.
    nn::MaxPool2d pool(nn::PoolConfig{3, 2, 1});
    ExecutionContext ctx;
    const float ninf = -std::numeric_limits<float>::infinity();
    const Tensor x = Tensor::full(Shape({1, 1, 3, 3}), ninf);
    const Tensor y = pool.forward(x, ctx, Mode::kEval);
    ASSERT_EQ(y.shape(), Shape({1, 1, 2, 2}));
    for (std::int64_t i = 0; i < y.size(); ++i) {
        EXPECT_EQ(y[i], ninf);
    }
    const Tensor g =
        pool.backward(Tensor::full(Shape({1, 1, 2, 2}), 1.0f), ctx);
    // Windows start at rows/cols {−1, 1}: first in-bounds (0,0), (0,1),
    // (1,0), (1,1) — flat indices 0, 1, 3, 4.
    for (std::int64_t i = 0; i < g.size(); ++i) {
        const bool routed = i == 0 || i == 1 || i == 3 || i == 4;
        EXPECT_EQ(g[i], routed ? 1.0f : 0.0f) << i;
    }
}

TEST(MaxPool2d, ForwardOnlyEqualsArgmaxRecordingBitForBit)
{
    // A forward-only 2×2 stride-2 pool takes the branch-free path; one
    // that records the argmax takes the general loop. Both must give
    // the same bits: NaN is skipped, the first of equal values (±0)
    // stays, and a window with nothing above −inf answers its first
    // element.
    nn::MaxPool2d pool(nn::PoolConfig{2, 2, 0});
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {nan, inf, -inf, 0.0f, -0.0f, 1.0f, -1.0f};
    Rng rng(31);
    for (const std::int64_t batch : {1, 3}) {
        for (const std::int64_t h : {2, 3, 6, 7, 16}) {
            for (const std::int64_t w : {2, 5, 8, 17}) {
                Tensor x = Tensor::normal(Shape({batch, 2, h, w}), rng);
                for (std::int64_t i = 0; i < x.size(); ++i) {
                    // About half the elements special: ties, NaN, ±inf.
                    const std::int64_t pick = rng.randint(0, 13);
                    if (pick < 7) {
                        x[i] = specials[pick];
                    }
                }
                // An all-NaN and an all-±0 window (−0 first) in plane
                // 0, and an all-−inf window in plane 1.
                const std::int64_t plane = h * w;
                for (std::int64_t r = 0; r < 2; ++r) {
                    for (std::int64_t c = 0; c < 2; ++c) {
                        x[r * w + c] = nan;
                        x[plane + r * w + c] = -inf;
                        if (w >= 4) {
                            x[r * w + 2 + c] = r + c == 0 ? -0.0f : 0.0f;
                        }
                    }
                }
                ExecutionContext recording;
                ExecutionContext forward_only;
                forward_only.set_retain_activations(false);
                const Tensor want = pool.forward(x, recording, Mode::kEval);
                const Tensor got = pool.forward(x, forward_only, Mode::kEval);
                ASSERT_EQ(got.shape(), want.shape());
                EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                      sizeof(float) *
                                          static_cast<std::size_t>(got.size())),
                          0)
                    << "batch " << batch << " " << h << "x" << w;
                EXPECT_TRUE(forward_only.state(&pool).argmax.empty());
            }
        }
    }
}

TEST(MaxPool2dDeath, PaddingAtLeastTheKernelIsRejected)
{
    // PoolConfig{2, 2, 2} on [1,1,4,4] would give a [1,1,4,4] output
    // whose first window lies wholly in the padding: no maximum exists,
    // so the constructor refuses the geometry up front.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT({ nn::MaxPool2d pool(nn::PoolConfig{2, 2, 2}); },
                ::testing::ExitedWithCode(1), "bad MaxPool2d config");
    EXPECT_EXIT({ nn::MaxPool2d pool(nn::PoolConfig{3, 1, 4}); },
                ::testing::ExitedWithCode(1), "bad MaxPool2d config");
}

TEST(AvgPool2d, AveragesWindow)
{
    nn::AvgPool2d pool(nn::PoolConfig{2, 2, 0});
    ExecutionContext ctx;
    Tensor x(Shape({1, 1, 2, 2}));
    x[0] = 1.0f;
    x[1] = 2.0f;
    x[2] = 3.0f;
    x[3] = 4.0f;
    Tensor y = pool.forward(x, ctx, Mode::kEval);
    EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(AvgPool2d, NumericGradient)
{
    nn::AvgPool2d pool(nn::PoolConfig{2, 2, 0});
    Rng rng(14);
    Tensor x = Tensor::normal(Shape({2, 2, 4, 4}), rng);
    testing::check_layer_gradients(pool, x, rng);
}

// ---------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------

TEST(Flatten, ForwardShape)
{
    nn::Flatten flat;
    ExecutionContext ctx;
    Rng rng(15);
    Tensor x = Tensor::normal(Shape({4, 3, 2, 2}), rng);
    Tensor y = flat.forward(x, ctx, Mode::kEval);
    EXPECT_EQ(y.shape(), Shape({4, 12}));
    EXPECT_EQ(y[5], x[5]);  // data order preserved
}

TEST(Flatten, BackwardRestoresShape)
{
    nn::Flatten flat;
    ExecutionContext ctx;
    Rng rng(16);
    Tensor x = Tensor::normal(Shape({2, 3, 2, 2}), rng);
    Tensor y = flat.forward(x, ctx, Mode::kEval);
    Tensor g = flat.backward(Tensor::ones(y.shape()), ctx);
    EXPECT_EQ(g.shape(), x.shape());
}

// ---------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------

TEST(Dropout, EvalIsIdentity)
{
    nn::Dropout drop(0.5f);
    ExecutionContext ctx(17);
    Rng rng(17);
    Tensor x = Tensor::normal(Shape({100}), rng);
    Tensor y = drop.forward(x, ctx, Mode::kEval);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(x, y), 0.0);
}

TEST(Dropout, TrainZeroesRoughlyP)
{
    nn::Dropout drop(0.4f);
    ExecutionContext ctx(18);
    Tensor x = Tensor::ones(Shape({20000}));
    Tensor y = drop.forward(x, ctx, Mode::kTrain);
    std::int64_t zeros = 0;
    for (std::int64_t i = 0; i < y.size(); ++i) {
        if (y[i] == 0.0f) {
            ++zeros;
        } else {
            EXPECT_NEAR(y[i], 1.0f / 0.6f, 1e-5);
        }
    }
    EXPECT_NEAR(static_cast<double>(zeros) / y.size(), 0.4, 0.02);
}

TEST(Dropout, TrainPreservesExpectation)
{
    nn::Dropout drop(0.3f);
    ExecutionContext ctx(19);
    Tensor x = Tensor::ones(Shape({50000}));
    Tensor y = drop.forward(x, ctx, Mode::kTrain);
    EXPECT_NEAR(y.mean(), 1.0, 0.02);
}

TEST(Dropout, BackwardUsesSameMask)
{
    nn::Dropout drop(0.5f);
    ExecutionContext ctx(20);
    Tensor x = Tensor::ones(Shape({1000}));
    Tensor y = drop.forward(x, ctx, Mode::kTrain);
    Tensor g = drop.backward(Tensor::ones(x.shape()), ctx);
    for (std::int64_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(g[i], y[i]);  // identical mask & scale
    }
}

TEST(Dropout, SeededContextIsReproducible)
{
    nn::Dropout drop(0.5f);
    Tensor x = Tensor::ones(Shape({512}));
    ExecutionContext ctx_a(99), ctx_b(99);
    Tensor ya = drop.forward(x, ctx_a, Mode::kTrain);
    Tensor yb = drop.forward(x, ctx_b, Mode::kTrain);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(ya, yb), 0.0);
}

TEST(Dropout, EvalInAnotherContextDoesNotPoisonTraining)
{
    // Regression for the seed-era hazard: `last_was_train_` was a
    // layer member, so an eval forward (any other stream!) between a
    // train forward and its backward made backward skip the mask —
    // silently wrong gradients. With per-context state the training
    // stream is immune to interleaved eval traffic.
    nn::Dropout drop(0.5f);
    Tensor x = Tensor::ones(Shape({1000}));

    ExecutionContext train_ctx(21);
    Tensor y = drop.forward(x, train_ctx, Mode::kTrain);

    ExecutionContext serve_ctx;  // e.g. a concurrent inference stream
    drop.forward(x, serve_ctx, Mode::kEval);

    Tensor g = drop.backward(Tensor::ones(x.shape()), train_ctx);
    for (std::int64_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(g[i], y[i]) << "mask lost at " << i;
    }
    // And the eval stream's backward is a pass-through, as its own
    // forward was.
    Tensor ge = drop.backward(Tensor::ones(x.shape()), serve_ctx);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(ge, Tensor::ones(x.shape())), 0.0);
}

TEST(Dropout, TwoTrainingStreamsKeepDistinctMasks)
{
    nn::Dropout drop(0.5f);
    Tensor x = Tensor::ones(Shape({2000}));
    ExecutionContext ctx_a(1), ctx_b(2);
    Tensor ya = drop.forward(x, ctx_a, Mode::kTrain);
    Tensor yb = drop.forward(x, ctx_b, Mode::kTrain);
    // Backward through each context applies that context's own mask.
    Tensor ga = drop.backward(Tensor::ones(x.shape()), ctx_a);
    Tensor gb = drop.backward(Tensor::ones(x.shape()), ctx_b);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(ga, ya), 0.0);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(gb, yb), 0.0);
    // Different seeds ⇒ different masks (overwhelmingly likely).
    EXPECT_GT(ops::max_abs_diff(ya, yb), 0.0);
}

// ---------------------------------------------------------------------
// LocalResponseNorm
// ---------------------------------------------------------------------

TEST(Lrn, NormalizesAcrossChannels)
{
    nn::LrnConfig cfg;
    cfg.size = 3;
    cfg.alpha = 1.0f;
    cfg.beta = 1.0f;
    cfg.k = 1.0f;
    nn::LocalResponseNorm lrn(cfg);
    ExecutionContext ctx;
    Tensor x = Tensor::ones(Shape({1, 3, 1, 1}));
    Tensor y = lrn.forward(x, ctx, Mode::kEval);
    // Middle channel window covers all 3 ones: scale = 1 + (1/3)*3 = 2.
    EXPECT_NEAR(y.at4(0, 1, 0, 0), 0.5f, 1e-5);
    // Edge channels see a 2-wide window: scale = 1 + (1/3)*2.
    EXPECT_NEAR(y.at4(0, 0, 0, 0), 1.0f / (1.0f + 2.0f / 3.0f), 1e-5);
}

TEST(Lrn, IdentityWhenAlphaZero)
{
    nn::LrnConfig cfg;
    cfg.alpha = 0.0f;
    cfg.k = 1.0f;
    nn::LocalResponseNorm lrn(cfg);
    ExecutionContext ctx;
    Rng rng(21);
    Tensor x = Tensor::normal(Shape({2, 4, 3, 3}), rng);
    Tensor y = lrn.forward(x, ctx, Mode::kEval);
    EXPECT_NEAR(ops::max_abs_diff(x, y), 0.0, 1e-6);
}

TEST(Lrn, NumericGradient)
{
    nn::LrnConfig cfg;
    cfg.size = 3;
    cfg.alpha = 0.5f;
    cfg.beta = 0.75f;
    cfg.k = 2.0f;
    nn::LocalResponseNorm lrn(cfg);
    Rng rng(22);
    Tensor x = Tensor::normal(Shape({1, 4, 3, 3}), rng);
    testing::check_layer_gradients(lrn, x, rng, 1e-2f, 3e-2);
}

// ---------------------------------------------------------------------
// ExecutionContext plumbing
// ---------------------------------------------------------------------

TEST(ExecutionContext, StateSlotsAreKeyedByLayerIdentity)
{
    nn::ReLU a, b;
    ExecutionContext ctx;
    EXPECT_EQ(ctx.num_states(), 0u);
    ctx.state(&a).in_shape = Shape({1, 2});
    ctx.state(&b).in_shape = Shape({3, 4});
    EXPECT_EQ(ctx.num_states(), 2u);
    EXPECT_EQ(ctx.state(&a).in_shape, Shape({1, 2}));
    EXPECT_EQ(ctx.state(&b).in_shape, Shape({3, 4}));
    ctx.clear();
    EXPECT_EQ(ctx.num_states(), 0u);
    EXPECT_EQ(ctx.state(&a).in_shape.rank(), 0);
}

TEST(ExecutionContext, ForwardOnlyContextSkipsActivationCaches)
{
    // Serving contexts disable retention: outputs are identical, but
    // no per-layer activation copy is stored.
    Rng rng(30);
    nn::Linear fc(4, 3, rng);
    Tensor x = Tensor::normal(Shape({2, 4}), rng);

    ExecutionContext train_ctx;
    ExecutionContext serve_ctx;
    serve_ctx.set_retain_activations(false);
    Tensor y_train = fc.forward(x, train_ctx, Mode::kEval);
    Tensor y_serve = fc.forward(x, serve_ctx, Mode::kEval);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(y_train, y_serve), 0.0);
    EXPECT_FALSE(train_ctx.state(&fc).cached.empty());
    EXPECT_TRUE(serve_ctx.state(&fc).cached.empty());

    nn::MaxPool2d pool(nn::PoolConfig{2, 2, 0});
    Tensor img = Tensor::normal(Shape({1, 1, 4, 4}), rng);
    Tensor p_train = pool.forward(img, train_ctx, Mode::kEval);
    Tensor p_serve = pool.forward(img, serve_ctx, Mode::kEval);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(p_train, p_serve), 0.0);
    EXPECT_FALSE(train_ctx.state(&pool).argmax.empty());
    EXPECT_TRUE(serve_ctx.state(&pool).argmax.empty());
}

TEST(ExecutionContext, ClearResetsLayerState)
{
    nn::LayerState state;
    state.cached = Tensor::ones(Shape({4}));
    state.argmax = {1, 2};
    state.mask = {0.5f};
    state.stochastic = true;
    state.clear();
    EXPECT_TRUE(state.cached.empty());
    EXPECT_TRUE(state.argmax.empty());
    EXPECT_TRUE(state.mask.empty());
    EXPECT_FALSE(state.stochastic);
}

// ---------------------------------------------------------------------
// Identity
// ---------------------------------------------------------------------

TEST(Identity, PassThrough)
{
    nn::Identity id;
    ExecutionContext ctx;
    Rng rng(23);
    Tensor x = Tensor::normal(Shape({5}), rng);
    EXPECT_DOUBLE_EQ(
        ops::max_abs_diff(id.forward(x, ctx, Mode::kEval), x), 0.0);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(id.backward(x, ctx), x), 0.0);
    EXPECT_EQ(id.kind(), "identity");
}

}  // namespace
}  // namespace shredder
