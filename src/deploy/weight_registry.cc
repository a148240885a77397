/**
 * @file
 * Implementation of the content-addressed weight registry.
 */
#include "src/deploy/weight_registry.h"

#include <utility>

#include "src/nn/arch.h"
#include "src/runtime/logging.h"

namespace shredder {
namespace deploy {

std::shared_ptr<nn::Sequential>
WeightRegistry::intern(std::shared_ptr<nn::Sequential> net)
{
    SHREDDER_CHECK(net != nullptr, "intern() of a null network");
    const std::uint64_t hash = nn::arch_hash(*net);
    const std::int64_t param_bytes =
        net->num_parameters() * static_cast<std::int64_t>(sizeof(float));

    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.interned_networks;
    for (const Entry& entry : entries_) {
        // Equality is decided on the content, never by the hash alone:
        // a collision must not alias two different weight sets.
        if (entry.hash == hash && nn::same_arch(*entry.network, *net)) {
            stats_.weights_dedupe_bytes += entry.param_bytes;
            return entry.network;
        }
    }
    Entry entry;
    entry.hash = hash;
    entry.param_bytes = param_bytes;
    entry.network = std::move(net);
    entries_.push_back(entry);
    ++stats_.unique_weight_sets;
    return entries_.back().network;
}

WeightRegistryStats
WeightRegistry::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

}  // namespace deploy
}  // namespace shredder
