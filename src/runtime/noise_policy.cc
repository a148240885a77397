/**
 * @file
 * Implementation of the noise policies (see header).
 */
#include "src/runtime/noise_policy.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/runtime/logging.h"

namespace shredder {
namespace runtime {

namespace {

/** SplitMix64 finalizer (Steele et al.) — a strong 64-bit mix. */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Guard shared by the additive policies. */
void
require_matching_size(const Tensor& activation, std::int64_t noise_size,
                      const char* who)
{
    SHREDDER_REQUIRE(activation.size() == noise_size, who,
                     ": activation size ", activation.size(),
                     " does not match the policy's noise size ",
                     noise_size);
}

}  // namespace

std::uint64_t
noise_seed(std::uint64_t root_seed, std::uint64_t request_id)
{
    // Two mixing rounds keep (seed, id) pairs far apart even for
    // consecutive ids under the same root seed.
    return splitmix64(splitmix64(root_seed) ^ request_id);
}

void
NoisePolicy::apply_into(const Tensor& activation, std::uint64_t request_id,
                        float* dst) const
{
    const Tensor noisy = apply(activation, request_id);
    SHREDDER_CHECK(noisy.size() == activation.size(),
                   "policy '", name(), "' changed the element count");
    std::copy(noisy.data(), noisy.data() + noisy.size(), dst);
}

// ---------------------------------------------------------------------
// NoNoisePolicy
// ---------------------------------------------------------------------

Tensor
NoNoisePolicy::apply(const Tensor& activation, std::uint64_t) const
{
    return activation;
}

void
NoNoisePolicy::apply_into(const Tensor&, std::uint64_t, float*) const
{
    // dst already holds the activation copy; nothing to add.
}

// ---------------------------------------------------------------------
// ReplayPolicy
// ---------------------------------------------------------------------

ReplayPolicy::ReplayPolicy(const core::NoiseCollection& collection,
                           std::uint64_t seed)
    : collection_(collection), seed_(seed)
{
    SHREDDER_REQUIRE(!collection.empty(),
                     "ReplayPolicy needs a non-empty noise collection");
}

Shape
ReplayPolicy::noise_shape() const
{
    return collection_.noise_shape();
}

Tensor
ReplayPolicy::apply(const Tensor& activation,
                    std::uint64_t request_id) const
{
    Tensor out = activation;
    apply_into(activation, request_id, out.data());
    return out;
}

void
ReplayPolicy::apply_into(const Tensor& activation,
                         std::uint64_t request_id, float* dst) const
{
    // The draw RNG is derived from (root seed, request id), so it
    // touches no shared state: concurrent applies are lock-free and a
    // replay with the same seed and ids reproduces the assignment.
    Rng draw_rng(noise_seed(seed_, request_id));
    const Tensor& noise = collection_.draw(draw_rng).noise;
    require_matching_size(activation, noise.size(), "ReplayPolicy");
    const float* pn = noise.data();
    for (std::int64_t j = 0; j < noise.size(); ++j) {
        dst[j] += pn[j];
    }
}

// ---------------------------------------------------------------------
// SamplePolicy
// ---------------------------------------------------------------------

SamplePolicy::SamplePolicy(core::NoiseDistribution distribution,
                           std::uint64_t seed)
    : dist_(std::move(distribution)), seed_(seed)
{
}

SamplePolicy::SamplePolicy(const core::NoiseCollection& collection,
                           core::NoiseFamily family, std::uint64_t seed)
    : SamplePolicy(core::NoiseDistribution::fit(collection, family), seed)
{
}

Shape
SamplePolicy::noise_shape() const
{
    return dist_.location().shape();
}

Tensor
SamplePolicy::apply(const Tensor& activation,
                    std::uint64_t request_id) const
{
    Tensor out = activation;
    apply_into(activation, request_id, out.data());
    return out;
}

void
SamplePolicy::apply_into(const Tensor& activation,
                         std::uint64_t request_id, float* dst) const
{
    // Fresh per-element draw, added straight into the row; the per-id
    // RNG keeps it deterministic under replay yet independent across
    // distinct request ids.
    require_matching_size(activation, dist_.location().size(),
                          "SamplePolicy");
    Rng draw_rng(noise_seed(seed_, request_id));
    dist_.add_sample(draw_rng, dst);
}

// ---------------------------------------------------------------------
// FixedNoisePolicy
// ---------------------------------------------------------------------

FixedNoisePolicy::FixedNoisePolicy(Tensor noise) : noise_(std::move(noise))
{
    SHREDDER_REQUIRE(noise_.size() > 0,
                     "FixedNoisePolicy needs a non-empty noise tensor");
}

Tensor
FixedNoisePolicy::apply(const Tensor& activation, std::uint64_t) const
{
    Tensor out = activation;
    apply_into(activation, 0, out.data());
    return out;
}

void
FixedNoisePolicy::apply_into(const Tensor& activation, std::uint64_t,
                             float* dst) const
{
    require_matching_size(activation, noise_.size(), "FixedNoisePolicy");
    const float* pn = noise_.data();
    for (std::int64_t j = 0; j < noise_.size(); ++j) {
        dst[j] += pn[j];
    }
}

// ---------------------------------------------------------------------
// ShufflePolicy
// ---------------------------------------------------------------------

namespace {

/**
 * Indices of `data[0..n)` in ascending value order, ties broken by
 * index — a *stable* argsort, so the permutation is a pure function of
 * the values (concurrent callers and replays agree bit-for-bit).
 */
std::vector<std::int64_t>
argsort(const float* data, std::int64_t n)
{
    std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [data](std::int64_t a, std::int64_t b) {
                  return data[a] != data[b] ? data[a] < data[b] : a < b;
              });
    return idx;
}

}  // namespace

ShufflePolicy::ShufflePolicy(std::uint64_t seed) : seed_(seed) {}

ShufflePolicy::ShufflePolicy(core::NoiseDistribution distribution,
                             std::uint64_t seed)
    : dist_(std::move(distribution)), seed_(seed)
{
}

Shape
ShufflePolicy::noise_shape() const
{
    return rank_matched() ? dist_->location().shape() : Shape{};
}

Tensor
ShufflePolicy::apply(const Tensor& activation,
                     std::uint64_t request_id) const
{
    Tensor out = activation;
    apply_into(activation, request_id, out.data());
    return out;
}

void
ShufflePolicy::apply_into(const Tensor& activation,
                          std::uint64_t request_id, float* dst) const
{
    const float* src = activation.data();
    const std::int64_t n = activation.size();
    Rng draw_rng(noise_seed(seed_, request_id));
    if (!rank_matched()) {
        // Plain Fisher–Yates permutation of the element positions.
        const std::vector<std::int64_t> perm = draw_rng.permutation(n);
        for (std::int64_t j = 0; j < n; ++j) {
            dst[j] = src[perm[static_cast<std::size_t>(j)]];
        }
        return;
    }
    // Rank-matched: fresh draw, reordered so the k-th smallest draw
    // lands on the position of the k-th smallest activation element,
    // then added (see header).
    const Tensor noise = dist_->sample(draw_rng);
    require_matching_size(activation, noise.size(), "ShufflePolicy");
    const std::vector<std::int64_t> act_rank = argsort(src, n);
    const std::vector<std::int64_t> noise_rank = argsort(noise.data(), n);
    const float* pn = noise.data();
    for (std::int64_t k = 0; k < n; ++k) {
        dst[act_rank[static_cast<std::size_t>(k)]] +=
            pn[noise_rank[static_cast<std::size_t>(k)]];
    }
}

Tensor
ShufflePolicy::invert(const Tensor& shuffled,
                      std::uint64_t request_id) const
{
    SHREDDER_REQUIRE(!rank_matched(),
                     "ShufflePolicy::invert: the rank-matched variant "
                     "adds noise and has no inverse");
    const std::int64_t n = shuffled.size();
    Rng draw_rng(noise_seed(seed_, request_id));
    const std::vector<std::int64_t> perm = draw_rng.permutation(n);
    Tensor out = shuffled;
    const float* src = shuffled.data();
    float* dst = out.data();
    // apply() wrote dst[j] = src[perm[j]]; undo by scattering back.
    for (std::int64_t j = 0; j < n; ++j) {
        dst[perm[static_cast<std::size_t>(j)]] = src[j];
    }
    return out;
}

// ---------------------------------------------------------------------
// ComposedPolicy
// ---------------------------------------------------------------------

ComposedPolicy::ComposedPolicy(
    std::vector<std::shared_ptr<const NoisePolicy>> stages)
    : stages_(std::move(stages))
{
    SHREDDER_REQUIRE(!stages_.empty(),
                     "ComposedPolicy needs at least one stage");
    Shape pinned{};
    for (const auto& stage : stages_) {
        SHREDDER_REQUIRE(stage != nullptr,
                         "ComposedPolicy: null stage policy");
        const Shape s = stage->noise_shape();
        if (s.rank() == 0) {
            continue;
        }
        if (pinned.rank() == 0) {
            pinned = s;
        } else {
            SHREDDER_REQUIRE(
                pinned.numel() == s.numel(),
                "ComposedPolicy: stage '", stage->name(), "' shape ",
                s.to_string(), " disagrees with earlier stage shape ",
                pinned.to_string());
        }
    }
}

Shape
ComposedPolicy::noise_shape() const
{
    for (const auto& stage : stages_) {
        const Shape s = stage->noise_shape();
        if (s.rank() > 0) {
            return s;
        }
    }
    return Shape{};
}

std::string
ComposedPolicy::name() const
{
    std::string joined;
    for (const auto& stage : stages_) {
        if (!joined.empty()) {
            joined += '+';
        }
        joined += stage->name();
    }
    return joined;
}

Tensor
ComposedPolicy::apply(const Tensor& activation,
                      std::uint64_t request_id) const
{
    // Stage i's output is stage i+1's activation; every stage draws
    // under the same request id with its own root seed (see header).
    Tensor current = stages_.front()->apply(activation, request_id);
    for (std::size_t i = 1; i < stages_.size(); ++i) {
        current = stages_[i]->apply(current, request_id);
    }
    return current;
}

bool
ComposedPolicy::additive() const
{
    for (const auto& stage : stages_) {
        if (!stage->additive()) {
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// QuantizePolicy
// ---------------------------------------------------------------------

QuantizePolicy::QuantizePolicy(WireDtype dtype) : dtype_(dtype)
{
    SHREDDER_REQUIRE(dtype != WireDtype::kF32,
                     "QuantizePolicy: fp32 transport adds no distortion "
                     "— compose the noise policy directly");
}

Tensor
QuantizePolicy::apply(const Tensor& activation, std::uint64_t) const
{
    return dequantize(quantize(activation, dtype_));
}

std::string
QuantizePolicy::name() const
{
    return std::string("quant-") + to_string(dtype_);
}

}  // namespace runtime
}  // namespace shredder
