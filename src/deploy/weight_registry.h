/**
 * @file
 * Content-addressed weight registry: N endpoints sharing one backbone
 * alias ONE immutable weight set instead of costing N× RAM.
 *
 * A multi-tenant deployment commonly serves many endpoints from the
 * same trained network — the same bundle shipped under several names,
 * or per-tenant bundles saved from one training run. Each
 * `load_bundle` rebuilds its own `nn::Sequential`, so without
 * interning a zoo of same-backbone endpoints multiplies the weight
 * memory by the endpoint count.
 *
 * The registry fixes this at bundle-load time: `intern` returns the
 * canonical network for a candidate's exact content. "Same content"
 * is what the `SARC` codec (src/nn/arch.h) defines — equal layer
 * kinds, config bytes, parameter shapes and parameter bits, i.e. the
 * networks `save_arch` would write as equal bytes — but the network is
 * not serialized (only each layer's few config bytes are):
 * `nn::arch_hash` keys the candidate's parameters in place, a word at
 * a time, and on a hash hit `nn::same_arch` compares them with the
 * stored canonical's in place before aliasing. So a hash collision can never
 * alias two *different* weight sets; the hash only prunes candidates.
 * Parameters compare by bit pattern, so −0.0 and +0.0 never alias and
 * identical NaN payloads do.
 *
 * Interning is load-time only. Serving never touches the registry:
 * endpoints hold plain `shared_ptr`s to immutable networks and the
 * lock-free shared-weight execution model is unchanged. Canonical
 * networks are retained for the registry's lifetime, so an interned
 * weight set survives endpoint deregistration and a re-registered
 * endpoint aliases it again without reloading.
 */
#ifndef SHREDDER_DEPLOY_WEIGHT_REGISTRY_H
#define SHREDDER_DEPLOY_WEIGHT_REGISTRY_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/nn/sequential.h"

namespace shredder {
namespace deploy {

/** Aggregate registry counters (see `WeightRegistry::stats`). */
struct WeightRegistryStats
{
    /** Total `intern` calls (one per bundle-backed endpoint). */
    std::int64_t interned_networks = 0;
    /** Distinct weight sets the registry holds canonically. */
    std::int64_t unique_weight_sets = 0;
    /**
     * Parameter bytes saved by aliasing: Σ over deduplicated interns
     * of that network's parameter payload (fp32 bytes). Zero until a
     * second endpoint shares a backbone.
     */
    std::int64_t weights_dedupe_bytes = 0;
};

/** See file comment. */
class WeightRegistry
{
  public:
    /**
     * Return the canonical network for `net`'s exact content. First
     * sight of a content: `net` itself becomes canonical (retained by
     * the registry). Identical content seen before: the existing
     * canonical is returned and `net` is released — the caller should
     * replace every reference with the returned pointer.
     *
     * Thread-safe; cost is one read of `net`'s parameters to hash
     * them, plus one side-by-side compare with each same-hash
     * canonical. That is load-time work; serving never calls this.
     */
    std::shared_ptr<nn::Sequential> intern(
        std::shared_ptr<nn::Sequential> net);

    /** Snapshot of the aggregate counters. */
    WeightRegistryStats stats() const;

  private:
    struct Entry
    {
        std::uint64_t hash = 0;       ///< `nn::arch_hash` of the network.
        std::int64_t param_bytes = 0; ///< Parameter payload (fp32).
        std::shared_ptr<nn::Sequential> network;
    };

    mutable std::mutex mutex_;
    std::vector<Entry> entries_;
    WeightRegistryStats stats_;
};

}  // namespace deploy
}  // namespace shredder

#endif  // SHREDDER_DEPLOY_WEIGHT_REGISTRY_H
