/**
 * @file
 * Workload declarations, seeded inputs, identity check and references.
 */
#include "servebench/driver/workload.h"

#include <cstring>
#include <future>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "servebench/driver/common.h"

namespace servebench {

using namespace shredder;

namespace {

/** Learned-noise samples in each bundle's collection. */
constexpr int kCollectionSamples = 8;
/** Distinct activations the edge sends (request i uses a seeded pick). */
constexpr int kPoolSize = 64;

/** `s` (rank 1-3) with a leading batch dimension of one. */
Shape
with_batch(const Shape& s)
{
    switch (s.rank()) {
    case 1:
        return Shape({1, s[0]});
    case 2:
        return Shape({1, s[0], s[1]});
    default:
        return Shape({1, s[0], s[1], s[2]});
    }
}

/** `batched` (rank 2-4) without its leading batch dimension. */
Shape
per_sample(const Shape& batched)
{
    switch (batched.rank()) {
    case 2:
        return Shape({batched[1]});
    case 3:
        return Shape({batched[1], batched[2]});
    default:
        return Shape({batched[1], batched[2], batched[3]});
    }
}

/** Layer kinds in order: what "the same network" means here. */
std::string
layer_signature(const nn::Sequential& net)
{
    std::string sig;
    for (std::int64_t i = 0; i < net.size(); ++i) {
        sig += net.layer(i).kind();
        sig += ' ';
    }
    return sig;
}

}  // namespace

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> all = {
        {"lenet-lastconv-tcp", "lenet", "lenet", 2, Shape({120, 1, 1}),
         deploy::PolicyKind::kReplay, "replay", WireDtype::kF32, 541,
         1000.0, 8000.0},
        {"lenet-lastconv-int8-tcp", "lenet", "lenet", 2, Shape({120, 1, 1}),
         deploy::PolicyKind::kReplay, "replay", WireDtype::kI8, 179,
         1000.0, 8000.0},
        {"svhn-conv3-tcp", "svhn", "svhn", 3, Shape({48, 16, 16}),
         deploy::PolicyKind::kSample, "sample", WireDtype::kF32, 49212,
         50.0, 200.0},
    };
    return all;
}

const Workload*
find_workload(const std::string& name)
{
    for (const Workload& w : workloads()) {
        if (w.name == name) {
            return &w;
        }
    }
    return nullptr;
}

Prepared
prepare(const Workload& w, std::uint64_t seed, const std::string& dir)
{
    Rng rng(mix_seed(seed, 1));
    const std::unique_ptr<nn::Sequential> net =
        models::make_network(w.network, rng);
    const std::int64_t cut = split::conv_cut_points(*net).at(w.conv_cut);
    const Shape input = models::input_shape_for(w.network);
    const split::SplitModel model(*net, cut);
    const Shape act = per_sample(model.activation_shape(input));

    core::NoiseCollection collection;
    for (int i = 0; i < kCollectionSamples; ++i) {
        core::NoiseSample sample;
        sample.noise = Tensor::normal(act, rng);
        collection.add(std::move(sample));
    }
    const core::NoiseDistribution distribution =
        core::NoiseDistribution::fit(collection);

    Prepared p;
    p.bundle_path = dir + "/" + w.endpoint + ".shb";
    p.manifest_path = dir + "/manifest.txt";
    deploy::BundleContents contents;
    contents.network = net.get();
    contents.cut = cut;
    contents.input_shape = input;
    contents.policy.kind = w.policy;
    contents.policy.seed = mix_seed(seed, 2);
    contents.collection = &collection;
    contents.distribution = &distribution;
    contents.wire_dtype = w.wire;
    contents.int8_compute = w.wire == WireDtype::kI8;
    deploy::save_bundle(p.bundle_path, contents);

    std::ofstream manifest(p.manifest_path);
    manifest << "endpoint " << w.endpoint << ' ' << w.endpoint << ".shb "
             << kEndpointKeys << '\n';
    if (!manifest) {
        throw std::runtime_error("cannot write " + p.manifest_path);
    }

    nn::ExecutionContext ctx;
    ctx.set_retain_activations(false);
    for (int i = 0; i < kPoolSize; ++i) {
        const Tensor x = Tensor::uniform(with_batch(input), rng);
        p.pool.push_back(
            model.edge_forward(x, ctx, nn::Mode::kEval).reshaped(act));
    }
    return p;
}

std::string
encode_request(const Workload& w, const Tensor& activation,
               std::uint64_t request_id)
{
    net::Request request;
    request.request_id = request_id;
    request.endpoint = w.endpoint;
    if (w.wire == WireDtype::kF32) {
        request.activation = activation;
    } else {
        request.quantized = quantize(activation, w.wire);
        request.is_quantized = true;
    }
    return net::encode_request(request);
}

void
check_identity(const Workload& w, const Prepared& p)
{
    const auto expect = [&w](bool ok, const std::string& what) {
        if (!ok) {
            throw std::runtime_error("workload '" + w.name +
                                     "' identity check failed: " + what);
        }
    };
    const deploy::Bundle bundle = deploy::load_bundle(p.bundle_path);
    Rng any;
    const auto declared = models::make_network(w.network, any);
    expect(layer_signature(bundle.network()) == layer_signature(*declared),
           "network layers are not " + w.network + "'s");
    expect(bundle.cut() ==
               split::conv_cut_points(*declared).at(w.conv_cut),
           "cut " + std::to_string(bundle.cut()) + " is not after conv " +
               std::to_string(w.conv_cut));
    expect(bundle.activation_shape() == w.activation,
           "activation " + bundle.activation_shape().to_string() +
               " != declared " + w.activation.to_string());
    expect(p.pool.front().shape() == w.activation,
           "edge activation " + p.pool.front().shape().to_string());
    const std::string policy = bundle.make_policy()->name();
    expect(policy == w.policy_name,
           "policy '" + policy + "' != declared '" + w.policy_name + "'");
    expect(bundle.wire_dtype() == w.wire, "bundle wire dtype hint");
    const std::int64_t frame =
        static_cast<std::int64_t>(encode_request(w, p.pool.front(), 0).size());
    expect(frame == w.frame_bytes, "request frame is " +
                                       std::to_string(frame) +
                                       " B, declared " +
                                       std::to_string(w.frame_bytes));
}

Reference::Reference(const Workload& workload, const Prepared& prepared)
    : workload_(workload)
{
    if (workload.wire == WireDtype::kF32) {
        bundle_ = std::make_unique<deploy::Bundle>(
            deploy::load_bundle(prepared.bundle_path));
        policy_ = bundle_->make_policy();
        ctx_.set_retain_activations(false);
        const nn::Sequential& net = bundle_->network();
        tail_ = bundle_->cut();
        while (tail_ < net.size() &&
               dynamic_cast<const nn::Linear*>(&net.layer(tail_)) == nullptr) {
            ++tail_;
        }
        return;
    }
    // One endpoint per batch size; a long straggler wait makes `batch`
    // back-to-back submits leave as exactly one batch.
    engine_ = std::make_unique<runtime::ServingEngine>();
    for (std::int64_t batch = 1; batch <= kMaxBatch; ++batch) {
        runtime::EndpointConfig config;
        config.max_batch = batch;
        config.batch_timeout_ms = 1000.0;
        config.max_concurrent_batches = 1;
        engine_->register_endpoint_from_bundle(
            "batch" + std::to_string(batch), prepared.bundle_path, config);
    }
}

Reference::~Reference() = default;

std::vector<Tensor>
Reference::rows(const Tensor& activation, std::uint64_t request_id,
                std::int64_t batch)
{
    std::vector<Tensor> out;
    if (engine_) {
        const std::string endpoint = "batch" + std::to_string(batch);
        std::vector<std::future<Tensor>> futures;
        for (std::int64_t i = 0; i < batch; ++i) {
            futures.push_back(engine_->submit_quantized(
                endpoint, quantize(activation, workload_.wire), request_id));
        }
        for (auto& f : futures) {
            out.push_back(f.get());
        }
        return out;
    }
    // Layers before the first Linear run batch items one at a time, so
    // only the Linear tail can round differently with the batch size:
    // run the head once at batch 1 and replicate its output.
    const nn::Sequential& net = bundle_->network();
    const Tensor noisy = policy_->apply(activation, request_id);
    const Tensor head =
        net.forward_range(noisy.reshaped(with_batch(noisy.shape())),
                          bundle_->cut(), tail_, ctx_, nn::Mode::kEval);
    Tensor stacked(head.shape().with_dim(0, batch));
    for (std::int64_t i = 0; i < batch; ++i) {
        std::copy(head.data(), head.data() + head.size(),
                  stacked.data() + i * head.size());
    }
    const Tensor logits =
        net.forward_range(stacked, tail_, -1, ctx_, nn::Mode::kEval);
    const std::int64_t classes = logits.shape()[1];
    for (std::int64_t i = 0; i < batch; ++i) {
        Tensor row(Shape({classes}));
        std::copy(logits.data() + i * classes,
                  logits.data() + (i + 1) * classes, row.data());
        out.push_back(std::move(row));
    }
    return out;
}

bool
Reference::matches(const Tensor& activation, std::uint64_t request_id,
                   const Tensor& output)
{
    for (std::int64_t batch = 1; batch <= kMaxBatch; ++batch) {
        for (const Tensor& row : rows(activation, request_id, batch)) {
            if (same_bits(row, output)) {
                return true;
            }
        }
    }
    return false;
}

bool
same_bits(const Tensor& a, const Tensor& b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) * sizeof(float)) ==
               0;
}

}  // namespace servebench
