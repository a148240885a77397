/**
 * @file
 * Substrate benchmark: the repo's performance counters, machine-readable.
 *
 * Measures the compute substrate every other binary bottlenecks on —
 * GEMM across sizes that cross the cache hierarchy, all four transpose
 * combinations, conv forward/backward, the served SVHN cloud convs,
 * cloud half and Laplace draw, end-to-end LeNet inference and the
 * batched `InferenceServer` — and writes `BENCH_substrate.json`
 * (path = argv[1], default `BENCH_substrate.json`) so the perf
 * trajectory accumulates across PRs. A frozen copy of the seed's
 * k-blocked kernel runs alongside the packed kernel, a frozen im2col +
 * gemm conv alongside each served conv, and a frozen copy of the
 * per-element std::mt19937_64 draw alongside the bulk draw, so every
 * report carries its own baseline: `speedup` is measured, not
 * remembered. The frozen conv and draw must also agree bit for bit
 * with the code they time; the binary exits 1 when one does not.
 *
 * Honors SHREDDER_BENCH_FAST=1 (smaller sweep, shorter timing windows)
 * for CI smoke runs. See docs/PERFORMANCE.md for how to read the JSON.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/tensor/gemm_tile.h"
#include "src/tensor/rng_path.h"

namespace {

using namespace shredder;

// ---------------------------------------------------------------------------
// Frozen seed kernel (PR 1's gemm): k-blocked i-k-j loop, transposes
// materialized. Kept verbatim as the speedup baseline; do not "fix".
// ---------------------------------------------------------------------------

void
seed_gemm_nn(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b, float* c)
{
    constexpr std::int64_t kBlockK = 256;
    for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
        const std::int64_t k1 = std::min(k, k0 + kBlockK);
        for (std::int64_t i = 0; i < m; ++i) {
            float* crow = c + i * n;
            const float* arow = a + i * k;
            for (std::int64_t kk = k0; kk < k1; ++kk) {
                const float av = alpha * arow[kk];
                const float* brow = b + kk * n;
                for (std::int64_t j = 0; j < n; ++j) {
                    crow[j] += av * brow[j];
                }
            }
        }
    }
}

void
seed_gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, const float* b,
          float beta, float* c)
{
    const std::int64_t cn = m * n;
    if (beta == 0.0f) {
        std::fill(c, c + cn, 0.0f);
    } else if (beta != 1.0f) {
        for (std::int64_t i = 0; i < cn; ++i) {
            c[i] *= beta;
        }
    }
    if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) {
        return;
    }
    std::vector<float> a_pack;
    const float* a_nn = a;
    if (trans_a) {
        a_pack.resize(static_cast<std::size_t>(m * k));
        for (std::int64_t i = 0; i < k; ++i) {
            for (std::int64_t j = 0; j < m; ++j) {
                a_pack[static_cast<std::size_t>(j * k + i)] = a[i * m + j];
            }
        }
        a_nn = a_pack.data();
    }
    std::vector<float> b_pack;
    const float* b_nn = b;
    if (trans_b) {
        b_pack.resize(static_cast<std::size_t>(k * n));
        for (std::int64_t i = 0; i < n; ++i) {
            for (std::int64_t j = 0; j < k; ++j) {
                b_pack[static_cast<std::size_t>(j * n + i)] = b[i * k + j];
            }
        }
        b_nn = b_pack.data();
    }
    seed_gemm_nn(m, n, k, alpha, a_nn, b_nn, c);
}

// ---------------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------------

double
gflops(double flops, double seconds)
{
    return flops / seconds * 1e-9;
}

/** GFLOP/s of one kernel at m=n=k=size for one transpose combo. */
template <typename Gemm>
double
measure_gemm(Gemm&& kernel, bool ta, bool tb, std::int64_t size)
{
    Rng rng(17 + size);
    Tensor a = Tensor::normal(Shape({size, size}), rng);
    Tensor b = Tensor::normal(Shape({size, size}), rng);
    Tensor c(Shape({size, size}));
    const double sec = bench::time_loop(
        [&] {
            kernel(ta, tb, size, size, size, 1.0f, a.data(), b.data(), 0.0f,
                   c.data());
        },
        bench::measure_seconds());
    return gflops(2.0 * static_cast<double>(size) * size * size, sec);
}

struct ConvTimes
{
    double fwd_ms = 0.0;
    double bwd_ms = 0.0;
    double fwd_gflops = 0.0;
};

/** Conv2d 16→32, 3×3, pad 1 on an 8×16×16×16 batch (PR-1 shape). */
ConvTimes
measure_conv()
{
    Rng rng(2);
    nn::Conv2dConfig cfg;
    cfg.in_channels = 16;
    cfg.out_channels = 32;
    cfg.kernel = 3;
    cfg.padding = 1;
    nn::Conv2d conv(cfg, rng);
    Tensor x = Tensor::normal(Shape({8, 16, 16, 16}), rng);
    nn::ExecutionContext ctx;
    ConvTimes out;
    out.fwd_ms = bench::time_loop(
                     [&] {
                         Tensor y = conv.forward(x, ctx, nn::Mode::kEval);
                     },
                     bench::measure_seconds()) *
                 1e3;
    Tensor y = conv.forward(x, ctx, nn::Mode::kTrain);
    Tensor g = Tensor::normal(y.shape(), rng);
    out.bwd_ms = bench::time_loop(
                     [&] {
                         conv.zero_grad();
                         Tensor dx = conv.backward(g, ctx);
                     },
                     bench::measure_seconds()) *
                 1e3;
    const double fwd_flops =
        2.0 * static_cast<double>(x.shape()[0]) * conv.macs(x.shape());
    out.fwd_gflops = gflops(fwd_flops, out.fwd_ms * 1e-3);
    return out;
}

/**
 * Median seconds per call of each variant over seven `time_loop`
 * windows, timed in turn (a, b, c, a, b, c, ...): one window that lost
 * the CPU to a neighbour cannot move a median, and a slow stretch of
 * the host lands on every variant alike, so their ratios hold.
 */
std::vector<double>
interleaved_median_seconds(const std::vector<std::function<void()>>& variants)
{
    constexpr int kWindows = 7;
    std::vector<std::vector<double>> windows(variants.size());
    for (int w = 0; w < kWindows; ++w) {
        for (std::size_t v = 0; v < variants.size(); ++v) {
            windows[v].push_back(
                bench::time_loop(variants[v], bench::measure_seconds() / 2));
        }
    }
    std::vector<double> medians;
    medians.reserve(windows.size());
    for (std::vector<double>& times : windows) {
        std::nth_element(times.begin(), times.begin() + kWindows / 2,
                         times.end());
        medians.push_back(times[kWindows / 2]);
    }
    return medians;
}

// ---------------------------------------------------------------------------
// Frozen conv forward (Conv2d::forward before conv_gemm): per image, im2col
// into a scratch lease, then gemm and the bias add. Kept verbatim as the
// served convs' baseline; do not "fix".
// ---------------------------------------------------------------------------

Tensor
frozen_conv_forward(nn::Conv2d& conv, const Tensor& x)
{
    const nn::Conv2dConfig& config = conv.config();
    const Shape out_shape = conv.output_shape(x.shape());
    const std::int64_t batch = x.shape()[0];
    const std::int64_t in_c = x.shape()[1];
    const std::int64_t in_h = x.shape()[2];
    const std::int64_t in_w = x.shape()[3];
    const std::int64_t out_c = out_shape[1];
    const std::int64_t out_h = out_shape[2];
    const std::int64_t out_w = out_shape[3];
    const std::int64_t col_rows = in_c * config.kernel * config.kernel;
    const std::int64_t col_cols = out_h * out_w;

    Tensor y(out_shape);
    const float* xp = x.data();
    float* yp = y.data();
    const float* wp = conv.weight().value.data();

    parallel_for(0, batch, [&](std::int64_t n) {
        ScratchLease col = ScratchArena::for_this_thread().acquire(
            static_cast<std::size_t>(col_rows * col_cols));
        im2col(xp + n * in_c * in_h * in_w, in_c, in_h, in_w,
               config.kernel, config.kernel, config.stride,
               config.stride, config.padding, config.padding,
               col.data());
        // out[Cout, OHOW] = W[Cout, col_rows] · col[col_rows, OHOW]
        gemm(false, false, out_c, col_cols, col_rows, 1.0f, wp, col.data(),
             0.0f, yp + n * out_c * col_cols);
        if (config.bias) {
            const float* bp = conv.bias().value.data();
            float* orow = yp + n * out_c * col_cols;
            for (std::int64_t c = 0; c < out_c; ++c) {
                const float b = bp[c];
                for (std::int64_t i = 0; i < col_cols; ++i) {
                    orow[c * col_cols + i] += b;
                }
            }
        }
    });
    return y;
}

struct ConvPoint
{
    std::int64_t in_channels = 0;
    std::int64_t extent = 0;
    std::int64_t out_channels = 0;
    double fwd_us = 0.0;
    double frozen_us = 0.0;
    double gflops = 0.0;
    bool bit_identical = false;
};

struct CloudConvs
{
    std::vector<ConvPoint> points;
    double cloud_forward_us = 0.0;
};

/**
 * Batch-1 forward of the three SVHN cloud convs after the Conv3 cut —
 * [1,48,8,8]→64, [1,64,8,8]→64 and [1,64,4,4]→16, 3×3, pad 1 — in a
 * forward-only context as the server runs them, each against the
 * frozen im2col + gemm forward; then the whole cloud half after the
 * Conv3 cut at batch 1.
 */
CloudConvs
measure_svhn_cloud()
{
    struct Shape3
    {
        std::int64_t cin, extent, cout;
    };
    Rng rng(3);
    CloudConvs out;
    for (const Shape3 s : {Shape3{48, 8, 64}, Shape3{64, 8, 64},
                           Shape3{64, 4, 16}}) {
        nn::Conv2dConfig cfg;
        cfg.in_channels = s.cin;
        cfg.out_channels = s.cout;
        cfg.kernel = 3;
        cfg.padding = 1;
        nn::Conv2d conv(cfg, rng);
        conv.bias().value = Tensor::normal(conv.bias().value.shape(), rng);
        Tensor x = Tensor::normal(Shape({1, s.cin, s.extent, s.extent}), rng);
        nn::ExecutionContext ctx;
        ctx.set_retain_activations(false);
        ConvPoint p;
        p.in_channels = s.cin;
        p.extent = s.extent;
        p.out_channels = s.cout;
        const Tensor y = conv.forward(x, ctx, nn::Mode::kEval);
        const Tensor frozen = frozen_conv_forward(conv, x);
        p.bit_identical =
            y.shape() == frozen.shape() &&
            std::memcmp(y.data(), frozen.data(),
                        sizeof(float) * static_cast<std::size_t>(y.size())) ==
                0;
        const std::vector<double> seconds = interleaved_median_seconds({
            [&] { Tensor t = conv.forward(x, ctx, nn::Mode::kEval); },
            [&] { Tensor t = frozen_conv_forward(conv, x); },
        });
        p.fwd_us = seconds[0] * 1e6;
        p.frozen_us = seconds[1] * 1e6;
        p.gflops = gflops(2.0 * static_cast<double>(conv.macs(x.shape())),
                          p.fwd_us * 1e-6);
        out.points.push_back(p);
    }

    Rng net_rng(1234);
    const std::unique_ptr<nn::Sequential> net =
        models::make_network("svhn", net_rng);
    const split::SplitModel model(*net, split::conv_cut_points(*net).at(3));
    const Tensor act = Tensor::normal(Shape({1, 48, 16, 16}), net_rng);
    nn::ExecutionContext ctx;
    ctx.set_retain_activations(false);
    out.cloud_forward_us = interleaved_median_seconds({[&] {
                               Tensor t = model.cloud_forward(act, ctx);
                           }})[0] *
                           1e6;
    return out;
}

// ---------------------------------------------------------------------------
// Frozen draw loop (the per-element draw before the in-tree engine): one
// std::mt19937_64 word per element through the standard's
// uniform_real_distribution, then the Laplace inverse CDF, into a
// temporary that is then added into the row — SamplePolicy::apply_into
// as it was. Kept verbatim as the draw's baseline; do not "fix".
// ---------------------------------------------------------------------------

void
frozen_laplace_apply(const core::NoiseDistribution& dist, std::uint64_t seed,
                     float* dst)
{
    // shredder-lint: allow(raw-rng) — the frozen baseline's own engine
    std::mt19937_64 engine(seed);
    Tensor noise(dist.location().shape());
    float* po = noise.data();
    const float* ploc = dist.location().data();
    const float* pscale = dist.scale().data();
    for (std::int64_t i = 0; i < noise.size(); ++i) {
        const float scale = std::max(1e-9f, pscale[i]);
        std::uniform_real_distribution<double> uniform(-0.5, 0.5);
        const double u = uniform(engine);
        const double mag = std::max(1e-300, 1.0 - 2.0 * std::abs(u));
        const double sign = (u >= 0.0) ? 1.0 : -1.0;
        po[i] = static_cast<float>(ploc[i] - scale * sign * std::log(mag));
    }
    for (std::int64_t i = 0; i < noise.size(); ++i) {
        dst[i] += po[i];
    }
}

/**
 * The bulk draw's own loop with the standard engine in place of the
 * in-tree one: std::mt19937_64 words through the shared conversion
 * (`rng_detail::centered_uniform`), then the same two-pass inverse CDF
 * in 256-element chunks. What the in-tree engine must beat to pay for
 * its code.
 */
void
std_engine_laplace_apply(const core::NoiseDistribution& dist,
                         std::uint64_t seed, float* dst)
{
    // shredder-lint: allow(raw-rng) — the engine the in-tree one replaces
    std::mt19937_64 engine(seed);
    const float* ploc = dist.location().data();
    const float* pscale = dist.scale().data();
    const std::int64_t n = dist.location().size();
    constexpr std::int64_t kChunk = 256;
    double arg[kChunk];
    double sign[kChunk];
    for (std::int64_t i0 = 0; i0 < n; i0 += kChunk) {
        const std::int64_t take = std::min(kChunk, n - i0);
        for (std::int64_t j = 0; j < take; ++j) {
            arg[j] = rng_detail::centered_uniform(engine());
        }
        for (std::int64_t j = 0; j < take; ++j) {
            sign[j] = (arg[j] >= 0.0) ? 1.0 : -1.0;
            arg[j] = std::max(1e-300, 1.0 - 2.0 * std::abs(arg[j]));
        }
        for (std::int64_t j = 0; j < take; ++j) {
            const std::int64_t i = i0 + j;
            const float scale = std::max(1e-9f, pscale[i]);
            dst[i] += static_cast<float>(ploc[i] -
                                         scale * sign[j] * std::log(arg[j]));
        }
    }
}

struct DrawPoint
{
    std::int64_t numel = 0;
    double draw_us = 0.0;
    double scalar_draw_us = 0.0;
    double std_engine_us = 0.0;
    double frozen_us = 0.0;
    std::int64_t checked_draws = 0;
    std::int64_t fallback_lanes = 0;
    bool bit_identical = false;
};

/**
 * One draw on `path` through the private entry, seeded as `Rng(seed)`
 * seeds: the Laplace fit's sample added into `dst`. Returns the lanes
 * the vector path handed to the scalar finish.
 */
std::int64_t
entry_laplace_apply(rng_detail::DrawPath path,
                    const core::NoiseDistribution& dist, std::uint64_t seed,
                    float* dst)
{
    std::uint64_t state[Mt19937_64::kStateWords];
    std::size_t pos = Mt19937_64::kStateWords;
    rng_detail::seed_state(seed, state);
    return rng_detail::laplace_draw(path, state, pos,
                                    dist.location().data(),
                                    dist.scale().data(), 1e-9f,
                                    dist.location().size(), dst, true);
}

/**
 * One request's Laplace draw at the served SVHN cut (48×16×16 = 12,288
 * elements): seed a state and add a fresh sample into a row, as
 * SamplePolicy::apply_into does, on the host's path and on the scalar
 * path through the private entry, against the same loop over the
 * standard engine and the frozen per-element loop. Over 64 request
 * ids, the served draw and all four variants must agree bit for bit.
 */
DrawPoint
measure_laplace_draw()
{
    const Shape shape({48, 16, 16});
    Rng rng(2024);
    core::NoiseCollection collection;
    for (int s = 0; s < 4; ++s) {
        core::NoiseSample sample;
        sample.noise = Tensor::laplace(shape, rng, 0.0f, 1.0f);
        collection.add(std::move(sample));
    }
    const core::NoiseDistribution dist =
        core::NoiseDistribution::fit(collection);
    Tensor row = Tensor::normal(shape, rng);
    const rng_detail::DrawPath host = rng_detail::host_draw_path();

    DrawPoint p;
    p.numel = shape.numel();
    p.bit_identical = true;
    const std::size_t bytes =
        sizeof(float) * static_cast<std::size_t>(row.size());
    for (std::uint64_t id = 0; id < 64; ++id) {
        const std::uint64_t seed = runtime::noise_seed(77, id);
        Tensor served = row;
        Tensor on_host = row;
        Tensor scalar = row;
        Tensor std_engine = row;
        Tensor frozen = row;
        Rng served_rng(seed);
        dist.add_sample(served_rng, served.data());
        p.fallback_lanes += entry_laplace_apply(host, dist, seed,
                                                on_host.data());
        entry_laplace_apply(rng_detail::DrawPath::kScalar, dist, seed,
                            scalar.data());
        std_engine_laplace_apply(dist, seed, std_engine.data());
        frozen_laplace_apply(dist, seed, frozen.data());
        for (const Tensor* t : {&served, &on_host, &scalar, &std_engine}) {
            p.bit_identical = p.bit_identical &&
                              std::memcmp(t->data(), frozen.data(), bytes) == 0;
        }
        ++p.checked_draws;
    }

    std::uint64_t seed = 0;
    const std::vector<double> seconds = interleaved_median_seconds({
        [&] { entry_laplace_apply(host, dist, ++seed, row.data()); },
        [&] {
            entry_laplace_apply(rng_detail::DrawPath::kScalar, dist, ++seed,
                                row.data());
        },
        [&] { std_engine_laplace_apply(dist, ++seed, row.data()); },
        [&] { frozen_laplace_apply(dist, ++seed, row.data()); },
    });
    p.draw_us = seconds[0] * 1e6;
    p.scalar_draw_us = seconds[1] * 1e6;
    p.std_engine_us = seconds[2] * 1e6;
    p.frozen_us = seconds[3] * 1e6;
    return p;
}

/** The blocked GEMM's widest micro-tile on this host. */
const char*
host_tile_name()
{
    switch (gemm_detail::host_tile()) {
    case gemm_detail::Tile::kAvx512:
        return "avx512";
    case gemm_detail::Tile::kAvx2:
        return "avx2";
    case gemm_detail::Tile::kPortable:
        break;
    }
    return "portable";
}

/** CPU model, hardware threads, source revision and GEMM tile of this run. */
void
write_stamp(bench::JsonWriter& json)
{
    json.key("stamp");
    json.begin_object();
    json.key("cpu_model");
    json.value(bench::cpu_model());
    json.key("hw_threads");
    json.value(static_cast<std::int64_t>(
        std::max(1u, std::thread::hardware_concurrency())));
    json.key("git");
    json.value(bench::git_describe());
    json.key("tile");
    json.value(host_tile_name());
    json.end_object();
}

/** Single-image LeNet forward latency in milliseconds. */
double
measure_lenet_ms()
{
    Rng rng(5);
    auto net = models::make_lenet(rng);
    Tensor x = Tensor::normal(Shape({1, 1, 28, 28}), rng);
    nn::ExecutionContext ctx;
    return bench::time_loop(
               [&] {
                   Tensor y = net->forward(x, ctx, nn::Mode::kEval);
               },
               bench::measure_seconds()) *
           1e3;
}

struct ServerPoint
{
    std::int64_t max_batch = 0;
    double req_per_sec = 0.0;
    double mean_batch = 0.0;
};

/** InferenceServer req/sec at the LeNet last-conv cut (flooded queue). */
std::vector<ServerPoint>
measure_server()
{
    Rng rng(4242);
    auto net = models::make_lenet(rng);
    const std::int64_t cut = split::conv_cut_points(*net).back();
    split::SplitModel model(*net, cut);
    const Shape act = model.activation_shape(Shape({1, 28, 28}));
    const Shape per_sample({act[1], act[2], act[3]});

    core::NoiseCollection coll;
    for (int i = 0; i < 4; ++i) {
        core::NoiseSample sample;
        sample.noise = Tensor::laplace(per_sample, rng, 0.0f, 0.5f);
        coll.add(std::move(sample));
    }

    const std::int64_t total = bench::fast_mode() ? 64 : 256;
    std::vector<Tensor> activations;
    activations.reserve(static_cast<std::size_t>(total));
    for (std::int64_t i = 0; i < total; ++i) {
        activations.push_back(Tensor::normal(per_sample, rng));
    }

    const runtime::ReplayPolicy policy(coll, 0xC0FFEE);
    ThreadPool pool(1);
    std::vector<ServerPoint> points;
    for (const std::int64_t max_batch : {1, 8, 32}) {
        runtime::EndpointConfig cfg;
        cfg.max_batch = max_batch;
        cfg.batch_timeout_ms = 2.0;
        runtime::InferenceServer server(model, policy, cfg, pool);
        std::vector<std::future<Tensor>> futures;
        futures.reserve(activations.size());
        for (const Tensor& a : activations) {
            futures.push_back(server.submit(a));
        }
        for (auto& f : futures) {
            f.get();
        }
        const runtime::ServerStats stats = server.stats();
        server.shutdown();
        points.push_back(
            {max_batch, stats.requests_per_sec(), stats.mean_batch_size()});
    }
    return points;
}

constexpr const char* kComboNames[4] = {"nn", "nt", "tn", "tt"};

}  // namespace

int
main(int argc, char** argv)
{
    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_substrate.json";

    bench::banner("Substrate: packed GEMM / conv / serving counters");
    std::printf("fast_mode=%d  hw_threads=%u  output=%s\n",
                bench::fast_mode() ? 1 : 0,
                std::max(1u, std::thread::hardware_concurrency()),
                json_path.c_str());

    bench::JsonWriter json;
    json.begin_object();
    json.key("schema");
    json.value("shredder-substrate-v1");
    json.key("generated");
    json.value(bench::now_iso8601());
    json.key("fast_mode");
    json.value(bench::fast_mode());
    json.key("compiler");
    json.value(__VERSION__);
    json.key("hw_threads");
    json.value(static_cast<std::int64_t>(
        std::max(1u, std::thread::hardware_concurrency())));

    // --- GEMM size sweep (NN), packed kernel vs frozen seed kernel ---
    std::vector<std::int64_t> sizes = bench::fast_mode()
                                          ? std::vector<std::int64_t>{64, 256}
                                          : std::vector<std::int64_t>{
                                                48, 64, 128, 192, 256, 384,
                                                512};
    std::printf("\nGEMM m=n=k sweep (not transposed):\n");
    std::printf("%8s %14s %14s %10s\n", "size", "packed GF/s", "seed GF/s",
                "speedup");
    json.key("gemm_nn");
    json.begin_array();
    for (const std::int64_t size : sizes) {
        const double packed = measure_gemm(gemm, false, false, size);
        const double seed = measure_gemm(seed_gemm, false, false, size);
        std::printf("%8lld %14.2f %14.2f %9.2fx\n",
                    static_cast<long long>(size), packed, seed,
                    packed / seed);
        json.begin_object();
        json.key("size");
        json.value(size);
        json.key("gflops");
        json.value(packed);
        json.key("seed_gflops");
        json.value(seed);
        json.key("speedup");
        json.value(packed / seed);
        json.end_object();
        std::fflush(stdout);
    }
    json.end_array();

    // --- Transpose combos at a fixed size ---
    const std::int64_t tsize = bench::fast_mode() ? 128 : 256;
    std::printf("\nGEMM transpose combos at m=n=k=%lld:\n",
                static_cast<long long>(tsize));
    std::printf("%8s %14s %14s %10s\n", "combo", "packed GF/s", "seed GF/s",
                "speedup");
    json.key("gemm_trans");
    json.begin_array();
    for (int combo = 0; combo < 4; ++combo) {
        const bool ta = (combo & 2) != 0;
        const bool tb = (combo & 1) != 0;
        const double packed = measure_gemm(gemm, ta, tb, tsize);
        const double seed = measure_gemm(seed_gemm, ta, tb, tsize);
        std::printf("%8s %14.2f %14.2f %9.2fx\n", kComboNames[combo], packed,
                    seed, packed / seed);
        json.begin_object();
        json.key("combo");
        json.value(kComboNames[combo]);
        json.key("size");
        json.value(tsize);
        json.key("gflops");
        json.value(packed);
        json.key("seed_gflops");
        json.value(seed);
        json.key("speedup");
        json.value(packed / seed);
        json.end_object();
        std::fflush(stdout);
    }
    json.end_array();

    // --- Conv2d forward/backward ---
    const ConvTimes conv = measure_conv();
    std::printf("\nConv2d 16→32 3×3 pad1, batch 8×16×16: fwd %.3f ms"
                " (%.2f GF/s), bwd %.3f ms\n",
                conv.fwd_ms, conv.fwd_gflops, conv.bwd_ms);
    json.key("conv");
    json.begin_object();
    json.key("fwd_ms");
    json.value(conv.fwd_ms);
    json.key("fwd_gflops");
    json.value(conv.fwd_gflops);
    json.key("bwd_ms");
    json.value(conv.bwd_ms);
    json.end_object();

    // --- SVHN cloud convs and half, and the served Laplace draw ---
    std::printf("\nSVHN cloud convs (batch 1, 3×3 pad 1, median of 7) vs "
                "frozen im2col + gemm:\n");
    const CloudConvs cloud = measure_svhn_cloud();
    bool all_bit_identical = true;
    json.key("svhn_cloud_conv");
    json.begin_object();
    write_stamp(json);
    json.key("points");
    json.begin_array();
    for (const ConvPoint& p : cloud.points) {
        const std::string input = "[1," + std::to_string(p.in_channels) +
                                  "," + std::to_string(p.extent) + "," +
                                  std::to_string(p.extent) + "]";
        std::printf("  %s→%lld: %.1f us (%.2f GF/s) vs frozen %.1f us "
                    "(%.2fx), bit-identical: %s\n",
                    input.c_str(), static_cast<long long>(p.out_channels),
                    p.fwd_us, p.gflops, p.frozen_us, p.frozen_us / p.fwd_us,
                    p.bit_identical ? "yes" : "NO");
        all_bit_identical = all_bit_identical && p.bit_identical;
        json.begin_object();
        json.key("input");
        json.value(input);
        json.key("out_channels");
        json.value(p.out_channels);
        json.key("fwd_us");
        json.value(p.fwd_us);
        json.key("gflops");
        json.value(p.gflops);
        json.key("frozen_us");
        json.value(p.frozen_us);
        json.key("speedup");
        json.value(p.frozen_us / p.fwd_us);
        json.key("bit_identical");
        json.value(p.bit_identical);
        json.end_object();
    }
    json.end_array();
    std::printf("  cloud half after the Conv3 cut, batch 1: %.1f us\n",
                cloud.cloud_forward_us);
    json.key("cloud_forward_us");
    json.value(cloud.cloud_forward_us);
    json.end_object();

    const DrawPoint draw = measure_laplace_draw();
    const char* draw_path =
        rng_detail::host_draw_path() == rng_detail::DrawPath::kAvx2
            ? "avx2"
            : "scalar";
    std::printf("Laplace draw, %lld elements: %.1f us (%s path) vs scalar "
                "path %.1f us vs standard engine %.1f us vs frozen %.1f us "
                "(%.2fx); %lld fallback lanes over %lld draws, "
                "bit-identical: %s\n",
                static_cast<long long>(draw.numel), draw.draw_us, draw_path,
                draw.scalar_draw_us, draw.std_engine_us, draw.frozen_us,
                draw.frozen_us / draw.draw_us,
                static_cast<long long>(draw.fallback_lanes),
                static_cast<long long>(draw.checked_draws),
                draw.bit_identical ? "yes" : "NO");
    json.key("laplace_draw");
    json.begin_object();
    write_stamp(json);
    json.key("path");
    json.value(draw_path);
    json.key("numel");
    json.value(draw.numel);
    json.key("draw_us");
    json.value(draw.draw_us);
    json.key("scalar_draw_us");
    json.value(draw.scalar_draw_us);
    json.key("std_engine_us");
    json.value(draw.std_engine_us);
    json.key("frozen_us");
    json.value(draw.frozen_us);
    json.key("speedup");
    json.value(draw.frozen_us / draw.draw_us);
    json.key("checked_draws");
    json.value(draw.checked_draws);
    json.key("fallback_lanes");
    json.value(draw.fallback_lanes);
    json.key("bit_identical");
    json.value(draw.bit_identical);
    json.end_object();
    all_bit_identical = all_bit_identical && draw.bit_identical;

    // --- End-to-end model latency ---
    const double lenet_ms = measure_lenet_ms();
    std::printf("LeNet batch-1 inference: %.3f ms\n", lenet_ms);
    json.key("lenet_infer_ms");
    json.value(lenet_ms);

    // --- Serving throughput ---
    std::printf("\nInferenceServer at the LeNet last-conv cut:\n");
    std::printf("%10s %14s %12s\n", "max_batch", "req/sec", "mean batch");
    json.key("server");
    json.begin_array();
    for (const ServerPoint& p : measure_server()) {
        std::printf("%10lld %14.1f %12.2f\n",
                    static_cast<long long>(p.max_batch), p.req_per_sec,
                    p.mean_batch);
        json.begin_object();
        json.key("max_batch");
        json.value(p.max_batch);
        json.key("req_per_sec");
        json.value(p.req_per_sec);
        json.key("mean_batch");
        json.value(p.mean_batch);
        json.end_object();
    }
    json.end_array();
    json.end_object();

    if (!json.write_file(json_path)) {
        std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
        return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
    if (!all_bit_identical) {
        std::fprintf(stderr, "a measured path differs from its frozen "
                             "baseline bit for bit (see NO above)\n");
        return 1;
    }
    return 0;
}
