/**
 * @file
 * Multi-endpoint serving engine: one process, many models, many noise
 * mechanisms, one thread budget.
 *
 * A production Shredder deployment rarely hosts exactly one network
 * under exactly one noise mechanism. The engine is the façade for the
 * general case:
 *
 *   ServingEngine engine(cfg);
 *   engine.register_endpoint("mnist-replay",  model_a, replay_policy);
 *   engine.register_endpoint("mnist-sample",  model_a, sample_policy);
 *   engine.register_endpoint("svhn-clean",    model_b, no_noise);
 *   auto logits = engine.submit("mnist-replay", activation, id);
 *
 * Each endpoint is a name → (`SplitModel`, `NoisePolicy`,
 * `InferenceServer` dispatcher) binding. Endpoints share the engine's
 * pool shards: batches from every endpoint placed on a shard
 * interleave on its workers, so capacity is provisioned once per
 * process instead of per model. The stateless-layer execution model
 * makes this safe — each in-flight batch runs against its endpoint's
 * pooled `ExecutionContext`, weights are read-only, and two endpoints
 * may even serve the *same* `SplitModel` under different policies
 * (the replay-vs-sample A/B above).
 *
 * Policies are held by `shared_ptr`, so one policy object may back
 * several endpoints and callers may keep measuring through it
 * (`PrivacyMeter::measure_policy`) while it serves: the measured
 * mechanism is bit-for-bit the served one.
 *
 * Failures are typed (`ServingError`): setup mistakes
 * (`kNoPolicy`, `kDuplicateEndpoint`, `kShutdown`) throw from
 * `register_endpoint`; per-request problems (`kUnknownEndpoint`,
 * `kInvalidShape`, `kShutdown`) fail the request's own future (or
 * completion callback) and never disturb other traffic.
 */
#ifndef SHREDDER_RUNTIME_SERVING_ENGINE_H
#define SHREDDER_RUNTIME_SERVING_ENGINE_H

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/deploy/weight_registry.h"
#include "src/runtime/inference_server.h"
#include "src/runtime/noise_policy.h"
#include "src/runtime/serving_error.h"
#include "src/runtime/stopwatch.h"
#include "src/runtime/thread_pool.h"
#include "src/split/split_model.h"
#include "src/tensor/tensor.h"

namespace shredder {

namespace deploy {
class Bundle;
}  // namespace deploy

namespace runtime {

/**
 * Engine-wide knobs: the process's whole serving thread budget is
 * `shards × threads_per_shard` workers.
 */
struct ServingEngineConfig
{
    /**
     * Named pool shards ("shard0" … "shardN-1"), each an independent
     * `ThreadPool`. Endpoints are placed on exactly one shard
     * (`EndpointConfig::shard`, or round-robin when unset), so
     * tenants get CPU isolation: a hot endpoint saturates its own
     * shard's workers and queue, never the whole engine. Must be
     * >= 1.
     */
    unsigned shards = 1;
    /**
     * Worker threads per shard; must be >= 1. A served batch runs
     * wholly on the worker that took it: intra-op loops
     * (`parallel_for`) run inline on pool workers.
     */
    unsigned threads_per_shard = 1;
};

/** Read-only view of one pool shard (see `ServingEngine::shard_info`). */
struct ShardInfo
{
    std::string name;     ///< "shard0" … "shardN-1".
    std::size_t threads;  ///< Worker threads in this shard's pool.
    /** Endpoints placed on this shard, registration order. */
    std::vector<std::string> endpoints;
};

/** See file comment. */
class ServingEngine
{
  public:
    explicit ServingEngine(const ServingEngineConfig& config = {});

    /** Shuts every endpoint down (draining queued requests). */
    ~ServingEngine();

    ServingEngine(const ServingEngine&) = delete;
    ServingEngine& operator=(const ServingEngine&) = delete;

    /**
     * Bind `name` to (`model`, `policy`) and start its dispatcher.
     *
     * @param model  Split view served by this endpoint (borrowed; must
     *               outlive the engine). May be shared with other
     *               endpoints — weights are read-only during serving.
     * @param policy Noise mechanism (shared ownership; may back
     *               several endpoints and concurrent measurement).
     * @param config Endpoint knobs.
     * @throws ServingError `kNoPolicy` for a null policy,
     *         `kDuplicateEndpoint` for a reused name, `kShutdown`
     *         after `shutdown()`.
     */
    void register_endpoint(const std::string& name,
                           split::SplitModel& model,
                           std::shared_ptr<const NoisePolicy> policy,
                           const EndpointConfig& config = {});

    /**
     * Cold-start an endpoint from a deployment bundle on disk
     * (src/deploy/bundle.h): load + validate the artifact, rebuild the
     * network, materialize the bundled noise policy, and serve it as
     * `name`. The engine owns everything the endpoint needs — no
     * application objects, which is the paper's train→ship→serve
     * story.
     *
     * @throws ServingError `kBadBundle` / `kVersionMismatch` for a
     *         malformed or future-format bundle (the engine and its
     *         other endpoints are unaffected), plus the
     *         `register_endpoint` codes (`kDuplicateEndpoint`,
     *         `kShutdown`).
     */
    void register_endpoint_from_bundle(const std::string& name,
                                       const std::string& path,
                                       const EndpointConfig& config = {});

    /**
     * Cold-start every endpoint a deployment manifest lists
     * (`endpoint <name> <bundle-path> [key=value ...]` — see
     * docs/DEPLOYMENT.md). Entries register in file order; the first
     * failure throws and leaves previously registered endpoints
     * serving.
     */
    void register_endpoints_from_manifest(const std::string& path);

    /**
     * Enqueue one request on endpoint `name` under a caller-chosen
     * request id (the id keys the noise draw; see
     * `InferenceServer::submit`). An unknown name, a shape-contract
     * violation or a post-shutdown submit fails the returned future
     * with the corresponding `ServingError` code.
     */
    std::future<Tensor> submit(const std::string& name, Tensor activation,
                               std::uint64_t request_id);

    /** As above with an endpoint-auto-assigned id (`kAutoIdBase + n`). */
    std::future<Tensor> submit(const std::string& name, Tensor activation);

    /**
     * Enqueue one quantized request on endpoint `name`
     * (`InferenceServer::submit_quantized`): the activation crossed
     * the wire as `activation.dtype` and is dequantized — or consumed
     * directly by the int8 GEMM path when the endpoint enables
     * `int8_compute` — on a worker. Failure modes match `submit`.
     */
    std::future<Tensor> submit_quantized(const std::string& name,
                                         QuantizedTensor activation,
                                         std::uint64_t request_id);

    /**
     * The callback form of `submit(name, activation, request_id)` —
     * the request path the future forms wrap and the network front
     * door calls directly. `done` runs exactly once
     * (`runtime::Completion`): before this returns for an unknown
     * endpoint or any up-front rejection, otherwise on the pool worker
     * that ran the request's batch.
     */
    void submit(const std::string& name, Tensor activation,
                std::uint64_t request_id, Completion done);

    /** The callback form of `submit_quantized` (see `submit` above). */
    void submit_quantized(const std::string& name,
                          QuantizedTensor activation,
                          std::uint64_t request_id, Completion done);

    /** Blocking convenience wrapper around `submit`. */
    Tensor infer(const std::string& name, const Tensor& activation);

    /**
     * Remove endpoint `name`: stop accepting its requests, drain its
     * queue, and release the binding (bundle, model, policy). Other
     * endpoints are unaffected; weight sets interned through the
     * registry survive (a later re-registration aliases them again).
     * In-flight submits racing the deregistration finish normally —
     * they hold shared ownership of the endpoint for the call.
     *
     * @throws ServingError `kUnknownEndpoint` for an unknown name.
     */
    void deregister_endpoint(const std::string& name);

    /** Registered endpoint names, sorted. */
    std::vector<std::string> endpoint_names() const;

    /** True if `name` is a registered endpoint. */
    bool has_endpoint(const std::string& name) const;

    /** Per-shard layout and placement (for tooling and /metrics). */
    std::vector<ShardInfo> shard_info() const;

    /** The shard endpoint `name` executes on (throws `kUnknownEndpoint`). */
    std::string shard_of(const std::string& name) const;

    /**
     * Counters of the content-addressed weight registry every
     * bundle-backed endpoint interns through (`weights_dedupe_bytes`
     * > 0 once two endpoints share a backbone).
     */
    deploy::WeightRegistryStats weight_registry_stats() const;

    /** The policy endpoint `name` executes (throws `kUnknownEndpoint`). */
    const NoisePolicy& policy(const std::string& name) const;

    /** The split model endpoint `name` serves (throws `kUnknownEndpoint`). */
    split::SplitModel& model(const std::string& name);

    /**
     * The deployment bundle backing endpoint `name`, or null when the
     * endpoint was registered in-process (throws `kUnknownEndpoint`
     * for an unregistered name). Cold-start tooling uses this for the
     * bundled input shape and metadata.
     */
    const deploy::Bundle* bundle(const std::string& name) const;

    /**
     * The transport dtype endpoint `name` advertises (resolved from
     * the endpoint config, else the bundle hint, else fp32; throws
     * `kUnknownEndpoint`). Tooling prints this and TCP servers use it
     * to pick the client-facing wire format.
     */
    WireDtype wire_dtype(const std::string& name) const;

    /**
     * Per-endpoint counters (throws `kUnknownEndpoint` for an unknown
     * name).
     */
    ServerStats stats(const std::string& name) const;

    /**
     * Aggregate counters across all endpoints: requests/batches/times
     * are summed, `max_batch_seen` is the maximum, `wall_seconds` is
     * the engine's lifetime (NOT a sum — endpoints run concurrently,
     * so `requests_per_sec()` stays meaningful).
     */
    ServerStats stats() const;

    /**
     * Stop accepting registrations and new requests, drain every
     * endpoint's queue, and stop the dispatchers. Idempotent; called
     * by the destructor.
     */
    void shutdown();

    /** True until `shutdown` begins. */
    bool running() const;

  private:
    /**
     * One endpoint binding. Member order is load-bearing: destruction
     * runs bottom-up, so the `server` (which executes against `model`
     * and `policy`) dies first, the `policy` (whose replay variant
     * borrows the bundle's collection) before the `bundle`, and the
     * cold-start artifacts last.
     */
    struct Endpoint
    {
        /**
         * Cold-start artifacts: a bundle-backed endpoint owns its
         * loaded bundle (network, collection, distribution) and the
         * split view built over it; in-process endpoints leave both
         * null and borrow the caller's model instead.
         */
        std::unique_ptr<deploy::Bundle> bundle;
        std::unique_ptr<split::SplitModel> owned_model;
        std::shared_ptr<const NoisePolicy> policy;
        /** The model the server runs (caller's, or `owned_model`). */
        split::SplitModel* model = nullptr;
        std::unique_ptr<InferenceServer> server;
        /** Resolved transport dtype (config → bundle hint → fp32). */
        WireDtype wire_dtype = WireDtype::kF32;
        /** Resolved pool-shard name this endpoint executes on. */
        std::string shard_name;
        /**
         * Shared ownership of the (possibly registry-canonical)
         * network `owned_model` splits — cold-start endpoints only.
         * Keeps an aliased weight set alive even if the registry and
         * sibling endpoints release theirs first.
         */
        std::shared_ptr<nn::Sequential> shared_network;
    };

    /**
     * One named execution shard: an independent worker pool plus the
     * endpoints placed on it. The shard objects are created at engine
     * construction and never move (endpoint lists mutate under
     * `mutex_`); `InferenceServer`s hold references to the pools.
     */
    struct PoolShard
    {
        PoolShard(std::string shard_name, unsigned threads)
            : name(std::move(shard_name)), pool(threads)
        {
        }

        std::string name;
        ThreadPool pool;
        std::vector<std::string> endpoints;  ///< Guarded by `mutex_`.
    };

    /**
     * Look up an endpoint (shared ownership) or null. Submit paths
     * keep the returned pointer for the duration of the call, so a
     * concurrent `deregister_endpoint` cannot pull the server out
     * from under them.
     */
    std::shared_ptr<Endpoint> find(const std::string& name);
    std::shared_ptr<const Endpoint> find(const std::string& name) const;

    /**
     * Resolve an `EndpointConfig::shard` key to a shard (under
     * `mutex_`): empty = round-robin, digits = index, else name.
     * Throws `kBadBundle` for an unknown key.
     */
    PoolShard& resolve_shard(const std::string& key);

    /**
     * Shared registration tail: validate the name under the lock,
     * place the endpoint on its shard, start the dispatcher, install.
     * `endpoint.policy` and `endpoint.model` must be set (plus the
     * cold-start artifacts for bundle-backed endpoints).
     */
    void install_endpoint(const std::string& name, Endpoint endpoint,
                          const EndpointConfig& config);

    /**
     * The execution shards (fixed at construction; declared before
     * the endpoint map so servers die before their pools).
     */
    std::vector<std::unique_ptr<PoolShard>> shards_;
    /** Content-addressed weight interning for bundle-backed loads. */
    deploy::WeightRegistry weight_registry_;

    /**
     * Guards the endpoint map, the accepting flag, shard endpoint
     * lists, and the round-robin cursor. Endpoints are held by
     * `shared_ptr`, so a binding looked up under the lock stays valid
     * for the caller even across a concurrent deregistration; submits
     * run outside the lock.
     */
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<Endpoint>> endpoints_;
    std::size_t next_shard_ = 0;  ///< Round-robin placement cursor.
    bool accepting_ = true;

    Stopwatch lifetime_;
};

}  // namespace runtime
}  // namespace shredder

#endif  // SHREDDER_RUNTIME_SERVING_ENGINE_H
