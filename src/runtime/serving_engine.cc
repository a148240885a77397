/**
 * @file
 * Implementation of the multi-endpoint serving engine (see header).
 */
#include "src/runtime/serving_engine.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "src/deploy/bundle.h"
#include "src/runtime/logging.h"

namespace shredder {
namespace runtime {

ServingEngine::ServingEngine(const ServingEngineConfig& config)
{
    SHREDDER_REQUIRE(config.shards >= 1,
                     "ServingEngineConfig::shards must be >= 1, got ",
                     config.shards);
    SHREDDER_REQUIRE(config.threads_per_shard >= 1,
                     "ServingEngineConfig::threads_per_shard must be >= 1, "
                     "got ", config.threads_per_shard);
    shards_.reserve(config.shards);
    for (unsigned i = 0; i < config.shards; ++i) {
        shards_.push_back(std::make_unique<PoolShard>(
            "shard" + std::to_string(i), config.threads_per_shard));
    }
}

ServingEngine::~ServingEngine() { shutdown(); }

void
ServingEngine::register_endpoint(const std::string& name,
                                 split::SplitModel& model,
                                 std::shared_ptr<const NoisePolicy> policy,
                                 const EndpointConfig& config)
{
    Endpoint endpoint;
    endpoint.policy = std::move(policy);
    endpoint.model = &model;
    install_endpoint(name, std::move(endpoint), config);
}

void
ServingEngine::register_endpoint_from_bundle(const std::string& name,
                                             const std::string& path,
                                             const EndpointConfig& config)
{
    Endpoint endpoint;
    endpoint.bundle =
        std::make_unique<deploy::Bundle>(deploy::load_bundle(path));
    // Intern the rebuilt network BEFORE anything references it: when an
    // earlier bundle carried identical content, this endpoint's split
    // view and policy are built over the registry's canonical weight
    // set and the freshly loaded copy is dropped here.
    endpoint.shared_network =
        weight_registry_.intern(endpoint.bundle->share_network());
    endpoint.bundle->adopt_network(endpoint.shared_network);
    endpoint.owned_model = std::make_unique<split::SplitModel>(
        endpoint.bundle->network(), endpoint.bundle->cut());
    endpoint.model = endpoint.owned_model.get();
    // The replay policy borrows the bundle's collection; the Endpoint
    // keeps the bundle alive for exactly as long as the policy serves.
    endpoint.policy = endpoint.bundle->make_policy();

    EndpointConfig pinned = config;
    if (pinned.sample_shape.rank() == 0) {
        // Pin the shape contract from the validated artifact — a
        // cold-started endpoint should never adopt its contract from
        // the first request.
        pinned.sample_shape = endpoint.bundle->activation_shape();
    }
    // Bundle transport hints fill only what the caller left unset: an
    // explicit manifest/config choice (including fp32) always wins.
    if (!pinned.wire_dtype.has_value()) {
        pinned.wire_dtype = endpoint.bundle->wire_dtype();
    }
    if (!pinned.int8_compute.has_value()) {
        pinned.int8_compute = endpoint.bundle->int8_compute();
    }
    install_endpoint(name, std::move(endpoint), pinned);
}

void
ServingEngine::register_endpoints_from_manifest(const std::string& path)
{
    for (const deploy::ManifestEntry& entry : deploy::parse_manifest(path)) {
        register_endpoint_from_bundle(entry.name, entry.bundle_path,
                                      entry.config);
    }
}

ServingEngine::PoolShard&
ServingEngine::resolve_shard(const std::string& key)
{
    if (key.empty()) {
        // Round-robin placement; the caller advances `next_shard_`
        // only once the registration actually succeeds.
        return *shards_[next_shard_ % shards_.size()];
    }
    const bool all_digits =
        std::all_of(key.begin(), key.end(), [](unsigned char c) {
            return std::isdigit(c) != 0;
        });
    if (all_digits) {
        // Bare index form ("1" == "shard1"). Shard counts are tiny, so
        // a length guard is enough to keep stoull in range.
        if (key.size() <= 6) {
            const std::size_t index = std::stoull(key);
            if (index < shards_.size()) {
                return *shards_[index];
            }
        }
    } else {
        for (const std::unique_ptr<PoolShard>& shard : shards_) {
            if (shard->name == key) {
                return *shard;
            }
        }
    }
    throw ServingError(ServingErrorCode::kBadBundle,
                       "unknown shard '" + key + "' (engine has " +
                       std::to_string(shards_.size()) + " shards)");
}

void
ServingEngine::install_endpoint(const std::string& name, Endpoint endpoint,
                                const EndpointConfig& config)
{
    if (endpoint.policy == nullptr) {
        throw ServingError(ServingErrorCode::kNoPolicy,
                           "endpoint '" + name + "' registered without a "
                           "noise policy (use NoNoisePolicy for clean "
                           "serving)");
    }
    endpoint.wire_dtype = config.wire_dtype.value_or(WireDtype::kF32);

    std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_) {
        throw ServingError(ServingErrorCode::kShutdown,
                           "register_endpoint('" + name +
                           "') after shutdown");
    }
    if (endpoints_.count(name) > 0) {
        throw ServingError(ServingErrorCode::kDuplicateEndpoint,
                           "endpoint '" + name + "' is already "
                           "registered");
    }
    PoolShard& shard = resolve_shard(config.shard);
    endpoint.shard_name = shard.name;
    endpoint.server = std::make_unique<InferenceServer>(
        *endpoint.model, *endpoint.policy, config, shard.pool);
    endpoints_.emplace(name,
                       std::make_shared<Endpoint>(std::move(endpoint)));
    shard.endpoints.push_back(name);
    if (config.shard.empty()) {
        ++next_shard_;  // Only a successful round-robin install advances.
    }
}

std::shared_ptr<ServingEngine::Endpoint>
ServingEngine::find(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = endpoints_.find(name);
    return it != endpoints_.end() ? it->second : nullptr;
}

std::shared_ptr<const ServingEngine::Endpoint>
ServingEngine::find(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = endpoints_.find(name);
    return it != endpoints_.end() ? it->second : nullptr;
}

namespace {

ServingError
unknown_endpoint(const std::string& name)
{
    return ServingError(ServingErrorCode::kUnknownEndpoint,
                        "no endpoint named '" + name + "'");
}

}  // namespace

std::future<Tensor>
ServingEngine::submit(const std::string& name, Tensor activation,
                      std::uint64_t request_id)
{
    PromisedCompletion promised = promised_completion();
    submit(name, std::move(activation), request_id,
           std::move(promised.done));
    return std::move(promised.future);
}

std::future<Tensor>
ServingEngine::submit(const std::string& name, Tensor activation)
{
    const std::shared_ptr<Endpoint> endpoint = find(name);
    if (endpoint == nullptr) {
        PromisedCompletion promised = promised_completion();
        const ServingError error = unknown_endpoint(name);
        promised.done(Tensor(), &error);
        return std::move(promised.future);
    }
    return endpoint->server->submit(std::move(activation));
}

std::future<Tensor>
ServingEngine::submit_quantized(const std::string& name,
                                QuantizedTensor activation,
                                std::uint64_t request_id)
{
    PromisedCompletion promised = promised_completion();
    submit_quantized(name, std::move(activation), request_id,
                     std::move(promised.done));
    return std::move(promised.future);
}

void
ServingEngine::submit(const std::string& name, Tensor activation,
                      std::uint64_t request_id, Completion done)
{
    const std::shared_ptr<Endpoint> endpoint = find(name);
    if (endpoint == nullptr) {
        const ServingError error = unknown_endpoint(name);
        done(Tensor(), &error);
        return;
    }
    // The endpoint's server does its own accepting/shape/admission
    // validation (kShutdown / kInvalidShape / kRateLimited /
    // kAdmissionReject) — outside the engine lock.
    endpoint->server->submit(std::move(activation), request_id,
                             std::move(done));
}

void
ServingEngine::submit_quantized(const std::string& name,
                                QuantizedTensor activation,
                                std::uint64_t request_id, Completion done)
{
    const std::shared_ptr<Endpoint> endpoint = find(name);
    if (endpoint == nullptr) {
        const ServingError error = unknown_endpoint(name);
        done(Tensor(), &error);
        return;
    }
    endpoint->server->submit_quantized(std::move(activation), request_id,
                                       std::move(done));
}

Tensor
ServingEngine::infer(const std::string& name, const Tensor& activation)
{
    return submit(name, activation).get();
}

void
ServingEngine::deregister_endpoint(const std::string& name)
{
    std::shared_ptr<Endpoint> endpoint;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = endpoints_.find(name);
        if (it == endpoints_.end()) {
            throw ServingError(ServingErrorCode::kUnknownEndpoint,
                               "no endpoint named '" + name + "'");
        }
        endpoint = std::move(it->second);
        endpoints_.erase(it);
        for (const std::unique_ptr<PoolShard>& shard : shards_) {
            auto& list = shard->endpoints;
            list.erase(std::remove(list.begin(), list.end(), name),
                       list.end());
        }
    }
    // Outside the lock: drain the endpoint's queue and wait for its
    // in-flight batches. Submits that raced the erase still hold their
    // own shared_ptr, so the server object outlives their calls; new
    // lookups already miss.
    endpoint->server->shutdown();
}

std::vector<std::string>
ServingEngine::endpoint_names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(endpoints_.size());
    for (const auto& entry : endpoints_) {
        names.push_back(entry.first);
    }
    return names;  // std::map iterates sorted
}

bool
ServingEngine::has_endpoint(const std::string& name) const
{
    return find(name) != nullptr;
}

std::vector<ShardInfo>
ServingEngine::shard_info() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ShardInfo> info;
    info.reserve(shards_.size());
    for (const std::unique_ptr<PoolShard>& shard : shards_) {
        ShardInfo entry;
        entry.name = shard->name;
        entry.threads = shard->pool.size();
        entry.endpoints = shard->endpoints;
        info.push_back(std::move(entry));
    }
    return info;
}

std::string
ServingEngine::shard_of(const std::string& name) const
{
    const std::shared_ptr<const Endpoint> endpoint = find(name);
    if (endpoint == nullptr) {
        throw ServingError(ServingErrorCode::kUnknownEndpoint,
                           "no endpoint named '" + name + "'");
    }
    return endpoint->shard_name;
}

deploy::WeightRegistryStats
ServingEngine::weight_registry_stats() const
{
    return weight_registry_.stats();
}

const NoisePolicy&
ServingEngine::policy(const std::string& name) const
{
    const std::shared_ptr<const Endpoint> endpoint = find(name);
    if (endpoint == nullptr) {
        throw ServingError(ServingErrorCode::kUnknownEndpoint,
                           "no endpoint named '" + name + "'");
    }
    return *endpoint->policy;
}

split::SplitModel&
ServingEngine::model(const std::string& name)
{
    const std::shared_ptr<Endpoint> endpoint = find(name);
    if (endpoint == nullptr) {
        throw ServingError(ServingErrorCode::kUnknownEndpoint,
                           "no endpoint named '" + name + "'");
    }
    return *endpoint->model;
}

const deploy::Bundle*
ServingEngine::bundle(const std::string& name) const
{
    const std::shared_ptr<const Endpoint> endpoint = find(name);
    if (endpoint == nullptr) {
        throw ServingError(ServingErrorCode::kUnknownEndpoint,
                           "no endpoint named '" + name + "'");
    }
    return endpoint->bundle.get();
}

WireDtype
ServingEngine::wire_dtype(const std::string& name) const
{
    const std::shared_ptr<const Endpoint> endpoint = find(name);
    if (endpoint == nullptr) {
        throw ServingError(ServingErrorCode::kUnknownEndpoint,
                           "no endpoint named '" + name + "'");
    }
    return endpoint->wire_dtype;
}

ServerStats
ServingEngine::stats(const std::string& name) const
{
    const std::shared_ptr<const Endpoint> endpoint = find(name);
    if (endpoint == nullptr) {
        throw ServingError(ServingErrorCode::kUnknownEndpoint,
                           "no endpoint named '" + name + "'");
    }
    return endpoint->server->stats();
}

ServerStats
ServingEngine::stats() const
{
    ServerStats aggregate;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& entry : endpoints_) {
        const ServerStats s = entry.second->server->stats();
        aggregate.requests += s.requests;
        aggregate.batches += s.batches;
        aggregate.busy_ms += s.busy_ms;
        aggregate.queue_ms += s.queue_ms;
        aggregate.max_batch_seen =
            std::max(aggregate.max_batch_seen, s.max_batch_seen);
        aggregate.full_dispatches += s.full_dispatches;
        aggregate.deadline_dispatches += s.deadline_dispatches;
        aggregate.quantized_requests += s.quantized_requests;
        aggregate.int8_direct_batches += s.int8_direct_batches;
        aggregate.rate_limited += s.rate_limited;
        aggregate.admission_rejected += s.admission_rejected;
        aggregate.in_flight += s.in_flight;
        aggregate.merge_queue_wait_hist(s);
    }
    // Endpoints serve concurrently on the engine's shards: wall time is
    // the engine's lifetime, not a per-endpoint sum.
    aggregate.wall_seconds = lifetime_.seconds();
    return aggregate;
}

void
ServingEngine::shutdown()
{
    std::vector<std::shared_ptr<Endpoint>> bindings;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        accepting_ = false;
        bindings.reserve(endpoints_.size());
        for (auto& entry : endpoints_) {
            bindings.push_back(entry.second);
        }
    }
    // Outside the lock: each shutdown drains that endpoint's queue and
    // waits for its in-flight batches on its shard's pool.
    for (const std::shared_ptr<Endpoint>& binding : bindings) {
        binding->server->shutdown();
    }
}

bool
ServingEngine::running() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return accepting_;
}

}  // namespace runtime
}  // namespace shredder
