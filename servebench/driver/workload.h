/**
 * @file
 * The benchmark's workloads: what each one serves, the inputs it
 * derives from a seed, the identity check that runs before timing,
 * and the bit-exact reference its responses are checked against.
 */
#ifndef SERVEBENCH_WORKLOAD_H
#define SERVEBENCH_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/shredder/shredder.h"

namespace servebench {

/** One declared workload (see servebench/README.md for the reasons). */
struct Workload
{
    std::string name;
    std::string network;     ///< models::make_network name.
    std::string endpoint;    ///< Served endpoint name.
    std::size_t conv_cut;    ///< Cut after this conv (conv_cut_points index).
    shredder::Shape activation;          ///< Per-sample activation at the cut.
    shredder::deploy::PolicyKind policy;
    std::string policy_name;             ///< NoisePolicy::name() served.
    shredder::WireDtype wire;            ///< Request activation encoding.
    std::int64_t frame_bytes;            ///< One request frame, encoded.
    double low_qps;
    double high_qps;
};

/** Every workload, in BENCHMARK.json order. */
const std::vector<Workload>& workloads();

/** The workload named `name`, or null. */
const Workload* find_workload(const std::string& name);

/**
 * Engine shape every workload serves with, fixed so no number depends
 * on the host's core count: one shard of two workers (command-line
 * flags of shredder_serve) and these endpoint keys.
 */
constexpr unsigned kShards = 1;
constexpr unsigned kThreadsPerShard = 2;
constexpr std::int64_t kMaxBatch = 8;
constexpr const char* kEndpointKeys =
    "max_batch=8 adaptive_batching=true slo_ms=2 max_concurrent_batches=2";

/** Seeded inputs of one run, written under the run's work directory. */
struct Prepared
{
    std::string bundle_path;
    std::string manifest_path;
    /** Per-sample cut activations the edge half produced (request payloads). */
    std::vector<shredder::Tensor> pool;
};

/**
 * Build the workload's network with seeded weights, a seeded noise
 * collection and its fitted distribution, save the bundle and the
 * manifest into `dir`, and run the edge half on seeded inputs to fill
 * the activation pool. Same seed, same files and pool.
 */
Prepared prepare(const Workload& workload, std::uint64_t seed,
                 const std::string& dir);

/**
 * Assert, before any timing, that the bundle on disk is the declared
 * workload: network layers, cut, activation shape, policy name, wire
 * dtype and the encoded request frame size. Throws std::runtime_error
 * naming the first mismatch.
 */
void check_identity(const Workload& workload, const Prepared& prepared);

/** Encode one request frame exactly as the edge sends it. */
std::string encode_request(const Workload& workload,
                           const shredder::Tensor& activation,
                           std::uint64_t request_id);

/**
 * Bit-exact output check against the references the repository's
 * tests pin: for fp32 requests `policy.apply` then `cloud_forward`, for
 * int8 requests an in-process `ServingEngine::submit_quantized` on the
 * same bundle. The tests pin batch 1, and a batched GEMM rounds a row
 * in a full register tile differently (in the last bit) from a row in
 * an edge tile, so a response that differs from the batch-1 reference
 * is also compared with the same request at every row of a batch of
 * 2..max_batch; it must equal one of them exactly.
 */
class Reference
{
  public:
    Reference(const Workload& workload, const Prepared& prepared);
    ~Reference();

    Reference(const Reference&) = delete;
    Reference& operator=(const Reference&) = delete;

    /** True when `output` is a correct answer for (activation, id). */
    bool matches(const shredder::Tensor& activation, std::uint64_t request_id,
                 const shredder::Tensor& output);

  private:
    /** Logits of the request replicated `batch` times, one row each. */
    std::vector<shredder::Tensor> rows(const shredder::Tensor& activation,
                                       std::uint64_t request_id,
                                       std::int64_t batch);

    const Workload& workload_;
    std::unique_ptr<shredder::deploy::Bundle> bundle_;
    /** First Linear of the cloud half (fp32 references). */
    std::int64_t tail_ = 0;
    std::shared_ptr<const shredder::runtime::NoisePolicy> policy_;
    shredder::nn::ExecutionContext ctx_;
    std::unique_ptr<shredder::runtime::ServingEngine> engine_;
};

/** Bit-for-bit equality of shape and every float. */
bool same_bits(const shredder::Tensor& a, const shredder::Tensor& b);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H
