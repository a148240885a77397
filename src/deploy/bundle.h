/**
 * @file
 * Deployment bundles — the `SHBL` artifact that closes the paper's
 * train→ship→serve loop.
 *
 * Shredder's premise (§2.5) is that noise distributions are *learned
 * offline* and then *deployed* on devices that only ever apply them.
 * A bundle is the unit of that deployment: one versioned binary file
 * packing everything a cold process needs to serve a trained split —
 *
 *   - the network architecture + weights (`SARC` codec, src/nn/arch.h:
 *     the topology is rebuilt from layer tags, not assumed),
 *   - the cut index and the input CHW shape,
 *   - the learned `NoiseCollection` (replay deployment),
 *   - the fitted `NoiseDistribution` (sampling deployment),
 *   - a policy spec (`none|replay|sample|fixed|shuffle|composed` +
 *     root seed, plus the shuffle-variant flag and composed stage
 *     chain) naming the mechanism this artifact was measured under.
 *
 * `save_bundle` writes the artifact from in-process objects;
 * `load_bundle` reconstructs an owning `Bundle` and cross-validates
 * every section (cut range, activation-shape agreement of collection/
 * distribution/fixed tensor, exact end-of-file). Bundles cross a trust
 * boundary, so *every* load failure throws a typed
 * `runtime::ServingError` — `kBadBundle` for damage, `kVersionMismatch`
 * for a future format — and never terminates the process.
 *
 * A text **manifest** maps endpoint names to bundle paths and batch
 * config; `parse_manifest` feeds
 * `ServingEngine::register_endpoints_from_manifest` and the
 * `shredder_serve` CLI, so a multi-endpoint engine cold-starts from
 * disk with zero application code. Formats are specified normatively
 * in docs/DEPLOYMENT.md.
 */
#ifndef SHREDDER_DEPLOY_BUNDLE_H
#define SHREDDER_DEPLOY_BUNDLE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/noise_collection.h"
#include "src/core/noise_distribution.h"
#include "src/nn/sequential.h"
#include "src/runtime/inference_server.h"
#include "src/runtime/noise_policy.h"
#include "src/tensor/quantize.h"
#include "src/tensor/tensor.h"

namespace shredder {
namespace deploy {

/**
 * Current bundle format version (`load_bundle` accepts ≤ this).
 * Version 2 added the `shuffle` and `composed` policy-spec encodings;
 * version 3 added the transport hints (`wire_dtype` u8 + `int8_compute`
 * u8 after the cut index). Version-1/2 files still load — older
 * versions imply fp32 transport.
 */
constexpr std::uint32_t kBundleVersion = 3;

/** The noise mechanism a bundle deploys (mirrors `NoisePolicy`). */
enum class PolicyKind : std::uint32_t {
    kNone = 0,      ///< Clean baseline (`NoNoisePolicy`).
    kReplay = 1,    ///< Stored-collection draw (`ReplayPolicy`).
    kSample = 2,    ///< Fresh fitted-distribution draw (`SamplePolicy`).
    kFixed = 3,     ///< One fixed tensor (`FixedNoisePolicy`).
    kShuffle = 4,   ///< Per-request permutation (`ShufflePolicy`).
    kComposed = 5,  ///< Ordered policy chain (`ComposedPolicy`).
};

/**
 * Stable mechanism tag ("none", "replay", "sample", "fixed",
 * "shuffle", "composed").
 */
const char* to_string(PolicyKind kind);

/** Stage count ceiling of a composed policy spec. */
constexpr std::uint32_t kMaxComposedStages = 8;

/**
 * What mechanism to run at deployment, and under which root seed.
 * `kShuffle` and `kComposed` carry spec extras (format version 2):
 * the shuffle variant flag, and the stage chain respectively.
 */
struct PolicySpec
{
    PolicyKind kind = PolicyKind::kReplay;
    /** Root seed of the id-keyed noise draws (see `noise_seed`). */
    std::uint64_t seed = 0xC0FFEE;
    /**
     * `kShuffle` only: rank-matched variant (argsort re-sampling,
     * needs the bundled distribution) instead of plain permutation.
     */
    bool rank_matched = false;
    /**
     * `kComposed` only: 1–`kMaxComposedStages` stages in application
     * order. Stages must not be `kComposed` themselves (one level of
     * composition — readers reject deeper nesting).
     */
    std::vector<PolicySpec> stages;
};

/**
 * Borrowed views of the in-process objects a bundle is saved from.
 * Everything is non-owning; the pointers must stay valid for the
 * duration of the `save_bundle` call only.
 */
struct BundleContents
{
    /** The trained network (required). */
    const nn::Sequential* network = nullptr;
    /** Cut index: edge = [0, cut), cloud = [cut, size). */
    std::int64_t cut = 0;
    /** Per-sample input shape (CHW) the network was trained for. */
    Shape input_shape{};
    /** Deployment mechanism + seed. */
    PolicySpec policy{};
    /** Learned collection (required for `kReplay`; else optional). */
    const core::NoiseCollection* collection = nullptr;
    /** Fitted distribution (required for `kSample`; else optional). */
    const core::NoiseDistribution* distribution = nullptr;
    /** Fixed tensor (required for `kFixed`; else ignored). */
    const Tensor* fixed_noise = nullptr;
    /**
     * Transport hint: the wire dtype this artifact was measured under
     * (clients of a cold-started endpoint should quantize to it so
     * measured = served). fp32 = plain v1 transport.
     */
    WireDtype wire_dtype = WireDtype::kF32;
    /**
     * Transport hint: enable the server's int8 direct-consume GEMM
     * path for endpoints cold-started from this artifact.
     */
    bool int8_compute = false;
};

/**
 * Write one deployable artifact. The save side is trusted (it runs in
 * the training process), so argument mistakes — null network, cut out
 * of range, a policy without its backing artifact, shape disagreements
 * — are fatal, exactly like other local misuse.
 */
void save_bundle(const std::string& path, const BundleContents& contents);

/**
 * An owning, validated, loaded bundle. Holds the rebuilt network and
 * every embedded artifact; `make_policy()` materializes the spec'd
 * `NoisePolicy`. A `ReplayPolicy` borrows this bundle's collection,
 * so the bundle must outlive any policy it produced (the engine's
 * cold-start path keeps the bundle inside the endpoint for exactly
 * this reason).
 */
class Bundle
{
  public:
    /** The rebuilt network (owned, possibly shared via the registry). */
    nn::Sequential& network() { return *network_; }
    const nn::Sequential& network() const { return *network_; }

    /**
     * Shared ownership of the network — the handle
     * `deploy::WeightRegistry::intern` takes, so several bundles with
     * identical content can end up aliasing one weight set.
     */
    std::shared_ptr<nn::Sequential> share_network() const
    {
        return network_;
    }

    /**
     * Replace this bundle's network with the registry's canonical one
     * (content-identical by the registry's byte-equality contract;
     * checked). Registry use only, and only before any `SplitModel`
     * or policy is built over `network()` — existing references keep
     * pointing at the replaced object.
     */
    void adopt_network(std::shared_ptr<nn::Sequential> canonical);

    /** Cut index the split was trained at. */
    std::int64_t cut() const { return cut_; }

    /** Per-sample input shape (CHW). */
    const Shape& input_shape() const { return input_shape_; }

    /** The input shape promoted to a batch of one (for edge forwards). */
    Shape batched_input_shape() const;

    /** Per-sample activation shape at the cut (no batch dim). */
    const Shape& activation_shape() const { return activation_shape_; }

    /** The deployment mechanism this artifact was saved under. */
    const PolicySpec& policy_spec() const { return policy_; }

    /** Transport hint: wire dtype the artifact was measured under. */
    WireDtype wire_dtype() const { return wire_dtype_; }

    /** Transport hint: run the int8 direct-consume path when serving. */
    bool int8_compute() const { return int8_compute_; }

    /** Embedded learned collection (may be empty). */
    const core::NoiseCollection& collection() const { return collection_; }

    /** True when a fitted distribution is embedded. */
    bool has_distribution() const { return distribution_.has_value(); }

    /** The embedded fit (valid only when `has_distribution()`). */
    const core::NoiseDistribution& distribution() const
    {
        return *distribution_;
    }

    /**
     * Build the `NoisePolicy` the spec names. Replay policies borrow
     * this bundle's collection — keep the bundle alive as long as the
     * policy serves.
     */
    std::shared_ptr<const runtime::NoisePolicy> make_policy() const;

  private:
    friend Bundle load_bundle(const std::string& path);

    /** Materialize one (possibly stage-level) spec against the artifacts. */
    std::shared_ptr<const runtime::NoisePolicy> make_policy_for(
        const PolicySpec& spec) const;

    std::shared_ptr<nn::Sequential> network_;
    std::int64_t cut_ = 0;
    Shape input_shape_{};
    Shape activation_shape_{};
    PolicySpec policy_{};
    core::NoiseCollection collection_;
    std::optional<core::NoiseDistribution> distribution_;
    Tensor fixed_noise_;
    WireDtype wire_dtype_ = WireDtype::kF32;
    bool int8_compute_ = false;
};

/**
 * Load and validate a bundle written by `save_bundle`.
 *
 * @throws runtime::ServingError `kBadBundle` for any malformed input
 *         (missing file, bad magic, truncation, unknown layer tag,
 *         section shape disagreement, trailing garbage) and
 *         `kVersionMismatch` for a format version newer than
 *         `kBundleVersion`. Never terminates the process.
 */
Bundle load_bundle(const std::string& path);

/** One parsed manifest line: a named endpoint backed by a bundle. */
struct ManifestEntry
{
    std::string name;
    /** Bundle path, resolved against the manifest's directory. */
    std::string bundle_path;
    /** Per-endpoint serving knobs (manifest keys override defaults). */
    runtime::EndpointConfig config{};
};

/**
 * Parse a deployment manifest (see docs/DEPLOYMENT.md):
 *
 *   # comment
 *   endpoint <name> <bundle-path> [key=value ...]
 *
 * with keys `max_batch`, `batch_timeout_ms`, `max_concurrent_batches`,
 * `adaptive_batching`, `slo_ms`, `ewma_alpha`, `wire_dtype`
 * (`fp32|int8|int16`), `int8_compute` (`true|false|1|0`), `shard`
 * (shard name or bare index), `rate_limit_qps`, `rate_limit_burst`
 * and `max_in_flight`. Real-valued keys must be finite. Relative
 * bundle paths resolve against the manifest file's directory.
 * `wire_dtype`/`int8_compute` left unset defer to the bundle's own
 * transport hints; the shard key is validated at registration.
 *
 * @throws runtime::ServingError `kBadBundle` on a missing file, an
 *         unknown directive/key, a malformed value, or a duplicate
 *         endpoint name.
 */
std::vector<ManifestEntry> parse_manifest(const std::string& path);

}  // namespace deploy
}  // namespace shredder

#endif  // SHREDDER_DEPLOY_BUNDLE_H
