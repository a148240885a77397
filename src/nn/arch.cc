/**
 * @file
 * Implementation of the `SARC` architecture codec and its layer-tag
 * registry.
 */
#include "src/nn/arch.h"

#include <cstring>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "src/nn/activations.h"
#include "src/nn/conv2d.h"
#include "src/nn/dropout.h"
#include "src/nn/extras.h"
#include "src/nn/flatten.h"
#include "src/nn/linear.h"
#include "src/nn/lrn.h"
#include "src/nn/pool.h"
#include "src/runtime/logging.h"
#include "src/tensor/serialize.h"

namespace shredder {
namespace nn {

namespace {

constexpr std::uint32_t kArchMagic = 0x43524153;  // 'SARC'

/** Registry entry: config writer + factory for one layer kind. */
struct KindCodec
{
    /** Serialize the layer's static config (not its parameters). */
    void (*write_config)(std::ostream&, const Layer&);
    /**
     * Rebuild the layer from its config blob, reading its parameter
     * tensors (if it has any) from the stream first and constructing
     * the layer around them.
     */
    LayerPtr (*read)(std::istream& config, std::istream& params);
};

template <typename L>
LayerPtr
make_plain(std::istream&, std::istream&)
{
    return std::make_unique<L>();
}

void
write_nothing(std::ostream&, const Layer&)
{
}

std::int64_t
read_dim(std::istream& is, const char* what)
{
    const auto v = static_cast<std::int64_t>(wire::read_u64(is));
    if (v < 0 || v >= (1LL << 32)) {
        std::ostringstream oss;
        oss << "bad " << what << " " << v << " in layer config";
        throw SerializeError(oss.str());
    }
    return v;
}

const std::map<std::string, KindCodec>&
registry()
{
    static const std::map<std::string, KindCodec> reg = {
        {"relu", {write_nothing, make_plain<ReLU>}},
        {"tanh", {write_nothing, make_plain<Tanh>}},
        {"sigmoid", {write_nothing, make_plain<Sigmoid>}},
        {"softmax", {write_nothing, make_plain<Softmax>}},
        {"flatten", {write_nothing, make_plain<Flatten>}},
        {"identity", {write_nothing, make_plain<Identity>}},
        {"upsample2x", {write_nothing, make_plain<Upsample2x>}},
        {"leaky_relu",
         {[](std::ostream& os, const Layer& l) {
              wire::write_f32(os,
                              static_cast<const LeakyReLU&>(l).slope());
          },
          [](std::istream& is, std::istream&) -> LayerPtr {
              return std::make_unique<LeakyReLU>(wire::read_f32(is));
          }}},
        {"dropout",
         {[](std::ostream& os, const Layer& l) {
              wire::write_f32(
                  os, static_cast<const Dropout&>(l).drop_probability());
          },
          [](std::istream& is, std::istream&) -> LayerPtr {
              const float p = wire::read_f32(is);
              if (!(p >= 0.0f && p < 1.0f)) {
                  throw SerializeError("bad dropout probability");
              }
              return std::make_unique<Dropout>(p);
          }}},
        {"crop2d",
         {[](std::ostream& os, const Layer& l) {
              const auto& c = static_cast<const Crop2d&>(l);
              wire::write_u64(os, static_cast<std::uint64_t>(c.height()));
              wire::write_u64(os, static_cast<std::uint64_t>(c.width()));
          },
          [](std::istream& is, std::istream&) -> LayerPtr {
              const std::int64_t h = read_dim(is, "crop height");
              const std::int64_t w = read_dim(is, "crop width");
              if (h <= 0 || w <= 0) {
                  throw SerializeError("bad crop2d extent");
              }
              return std::make_unique<Crop2d>(h, w);
          }}},
        {"conv2d",
         {[](std::ostream& os, const Layer& l) {
              const Conv2dConfig& c =
                  static_cast<const Conv2d&>(l).config();
              wire::write_u64(os,
                              static_cast<std::uint64_t>(c.in_channels));
              wire::write_u64(os,
                              static_cast<std::uint64_t>(c.out_channels));
              wire::write_u64(os, static_cast<std::uint64_t>(c.kernel));
              wire::write_u64(os, static_cast<std::uint64_t>(c.stride));
              wire::write_u64(os, static_cast<std::uint64_t>(c.padding));
              wire::write_u8(os, c.bias ? 1 : 0);
          },
          [](std::istream& is, std::istream& params) -> LayerPtr {
              Conv2dConfig c;
              c.in_channels = read_dim(is, "conv in_channels");
              c.out_channels = read_dim(is, "conv out_channels");
              c.kernel = read_dim(is, "conv kernel");
              c.stride = read_dim(is, "conv stride");
              c.padding = read_dim(is, "conv padding");
              c.bias = wire::read_u8(is) != 0;
              Tensor weight = read_tensor_checked(params);
              Tensor bias = c.bias ? read_tensor_checked(params) : Tensor();
              return std::make_unique<Conv2d>(c, std::move(weight),
                                              std::move(bias));
          }}},
        {"linear",
         {[](std::ostream& os, const Layer& l) {
              const auto& lin = static_cast<const Linear&>(l);
              wire::write_u64(os,
                              static_cast<std::uint64_t>(lin.in_features()));
              wire::write_u64(
                  os, static_cast<std::uint64_t>(lin.out_features()));
              wire::write_u8(os, lin.has_bias() ? 1 : 0);
          },
          [](std::istream& is, std::istream& params) -> LayerPtr {
              const std::int64_t in = read_dim(is, "linear in_features");
              const std::int64_t out = read_dim(is, "linear out_features");
              const bool has_bias = wire::read_u8(is) != 0;
              Tensor weight = read_tensor_checked(params);
              Tensor bias =
                  has_bias ? read_tensor_checked(params) : Tensor();
              return std::make_unique<Linear>(in, out, std::move(weight),
                                              std::move(bias));
          }}},
        {"maxpool2d",
         {[](std::ostream& os, const Layer& l) {
              const PoolConfig& c =
                  static_cast<const MaxPool2d&>(l).config();
              wire::write_u64(os, static_cast<std::uint64_t>(c.kernel));
              wire::write_u64(os, static_cast<std::uint64_t>(c.stride));
              wire::write_u64(os, static_cast<std::uint64_t>(c.padding));
          },
          [](std::istream& is, std::istream&) -> LayerPtr {
              PoolConfig c;
              c.kernel = read_dim(is, "pool kernel");
              c.stride = read_dim(is, "pool stride");
              c.padding = read_dim(is, "pool padding");
              if (c.kernel <= 0 || c.stride <= 0 || c.padding < 0 ||
                  c.padding >= c.kernel) {
                  throw SerializeError("bad maxpool2d geometry");
              }
              return std::make_unique<MaxPool2d>(c);
          }}},
        {"avgpool2d",
         {[](std::ostream& os, const Layer& l) {
              const PoolConfig& c =
                  static_cast<const AvgPool2d&>(l).config();
              wire::write_u64(os, static_cast<std::uint64_t>(c.kernel));
              wire::write_u64(os, static_cast<std::uint64_t>(c.stride));
              wire::write_u64(os, static_cast<std::uint64_t>(c.padding));
          },
          [](std::istream& is, std::istream&) -> LayerPtr {
              PoolConfig c;
              c.kernel = read_dim(is, "pool kernel");
              c.stride = read_dim(is, "pool stride");
              c.padding = read_dim(is, "pool padding");
              if (c.kernel <= 0 || c.stride <= 0 || c.padding < 0) {
                  throw SerializeError("bad avgpool2d geometry");
              }
              return std::make_unique<AvgPool2d>(c);
          }}},
        {"lrn",
         {[](std::ostream& os, const Layer& l) {
              const LrnConfig& c =
                  static_cast<const LocalResponseNorm&>(l).config();
              wire::write_u64(os, static_cast<std::uint64_t>(c.size));
              wire::write_f32(os, c.alpha);
              wire::write_f32(os, c.beta);
              wire::write_f32(os, c.k);
          },
          [](std::istream& is, std::istream&) -> LayerPtr {
              LrnConfig c;
              c.size = read_dim(is, "lrn size");
              c.alpha = wire::read_f32(is);
              c.beta = wire::read_f32(is);
              c.k = wire::read_f32(is);
              if (c.size <= 0) {
                  throw SerializeError("bad lrn window size");
              }
              return std::make_unique<LocalResponseNorm>(c);
          }}},
    };
    return reg;
}

/** The config blob `save_arch` writes for `layer`. */
std::string
config_bytes(const Layer& layer)
{
    const std::string tag = layer.kind();
    const auto it = registry().find(tag);
    SHREDDER_REQUIRE(it != registry().end(), "layer kind '", tag,
                     "' is not in the arch registry — register it "
                     "before bundling");
    std::ostringstream config(std::ios::binary);
    it->second.write_config(config, layer);
    return config.str();
}

/** A layer's parameters (`parameters()` is logically const). */
std::vector<Parameter*>
params_of(const Layer& layer)
{
    return const_cast<Layer&>(layer).parameters();
}

/** Fold one 64-bit word into a running hash (multiply-xorshift). */
std::uint64_t
mix(std::uint64_t hash, std::uint64_t word)
{
    hash = (hash ^ word) * 0x9E3779B97F4A7C15ULL;
    return hash ^ (hash >> 32);
}

/** Fold `size` bytes in 8-byte words, then their length. */
std::uint64_t
mix_bytes(std::uint64_t hash, const void* data, std::size_t size)
{
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::size_t at = 0;
    for (; at + sizeof(std::uint64_t) <= size; at += sizeof(std::uint64_t)) {
        std::uint64_t word = 0;
        std::memcpy(&word, bytes + at, sizeof(word));
        hash = mix(hash, word);
    }
    if (at < size) {
        std::uint64_t word = 0;
        std::memcpy(&word, bytes + at, size - at);
        hash = mix(hash, word);
    }
    return mix(hash, size);
}

}  // namespace

void
save_arch(std::ostream& os, const Sequential& net)
{
    wire::write_u32(os, kArchMagic);
    wire::write_u32(os, static_cast<std::uint32_t>(net.size()));
    for (std::int64_t i = 0; i < net.size(); ++i) {
        const Layer& layer = net.layer(i);
        wire::write_string(os, layer.kind());
        wire::write_string(os, config_bytes(layer));
        layer.save_params(os);
    }
    SHREDDER_CHECK(static_cast<bool>(os), "arch write failed");
}

std::unique_ptr<Sequential>
load_arch(std::istream& is)
{
    wire::expect_magic(is, kArchMagic, "arch");
    const std::uint32_t count = wire::read_u32(is);
    if (count > 4096) {
        throw SerializeError("implausible layer count in arch stream");
    }
    auto net = std::make_unique<Sequential>();
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::string tag = wire::read_string(is, /*max_len=*/256);
        const auto it = registry().find(tag);
        if (it == registry().end()) {
            throw SerializeError("unknown layer tag '" + tag +
                                 "' in arch stream");
        }
        const std::string config = wire::read_string(is);
        std::istringstream config_stream(config, std::ios::binary);
        LayerPtr layer;
        try {
            // Constructors check parameters against their config with
            // user-error checks; here a mismatch is the stream's fault.
            ScopedFatalThrow guard;
            layer = it->second.read(config_stream, is);
        } catch (const FatalError& e) {
            throw SerializeError("layer '" + tag + "': " + e.what());
        }
        // The reader must consume the blob exactly: leftovers mean the
        // writer and reader disagree about this kind's config layout.
        config_stream.peek();
        if (!config_stream.eof()) {
            throw SerializeError("layer '" + tag +
                                 "' config blob has trailing bytes");
        }
        net->add(std::move(layer));
    }
    return net;
}

std::uint64_t
arch_hash(const Sequential& net)
{
    std::uint64_t hash = mix(0, static_cast<std::uint64_t>(net.size()));
    for (std::int64_t i = 0; i < net.size(); ++i) {
        const Layer& layer = net.layer(i);
        const std::string tag = layer.kind();
        const std::string config = config_bytes(layer);
        hash = mix_bytes(hash, tag.data(), tag.size());
        hash = mix_bytes(hash, config.data(), config.size());
        for (const Parameter* p : params_of(layer)) {
            const Shape& shape = p->value.shape();
            for (int d = 0; d < shape.rank(); ++d) {
                hash = mix(hash, static_cast<std::uint64_t>(shape[d]));
            }
            hash = mix_bytes(hash, p->value.data(),
                             static_cast<std::size_t>(p->value.size()) *
                                 sizeof(float));
        }
    }
    return hash;
}

bool
same_arch(const Sequential& a, const Sequential& b)
{
    if (&a == &b) {
        return true;
    }
    if (a.size() != b.size()) {
        return false;
    }
    for (std::int64_t i = 0; i < a.size(); ++i) {
        const Layer& la = a.layer(i);
        const Layer& lb = b.layer(i);
        if (la.kind() != lb.kind() || config_bytes(la) != config_bytes(lb)) {
            return false;
        }
        const std::vector<Parameter*> pa = params_of(la);
        const std::vector<Parameter*> pb = params_of(lb);
        if (pa.size() != pb.size()) {
            return false;
        }
        for (std::size_t j = 0; j < pa.size(); ++j) {
            const Tensor& va = pa[j]->value;
            const Tensor& vb = pb[j]->value;
            if (!(va.shape() == vb.shape()) ||
                std::memcmp(va.data(), vb.data(),
                            static_cast<std::size_t>(va.size()) *
                                sizeof(float)) != 0) {
                return false;
            }
        }
    }
    return true;
}

bool
arch_registry_knows(const std::string& kind)
{
    return registry().count(kind) > 0;
}

std::vector<std::string>
arch_registry_kinds()
{
    std::vector<std::string> kinds;
    for (const auto& [tag, codec] : registry()) {
        (void)codec;
        kinds.push_back(tag);
    }
    return kinds;
}

}  // namespace nn
}  // namespace shredder
