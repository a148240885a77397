/**
 * @file
 * In-process layer probes of the traced run (see probe.h).
 */
#include "servebench/driver/probe.h"

#include <sys/prctl.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <mutex>
#include <thread>

#include "servebench/driver/common.h"
#include "servebench/driver/loadgen.h"

namespace servebench {

using namespace shredder;

const char* const kProbeItems[] = {
    "deploy::load_bundle",
    "ServingEngine::register_endpoint_from_bundle",
    "net::encode_request",
    "net::decode_request_payload",
    "quantize",
    "NoisePolicy::apply",
    "SplitModel::cloud_forward.b1",
    "SplitModel::cloud_forward.b8",
    "gemm.cut",
    "gemm_s8.cut",
    "ServingEngine::submit",
};
const int kProbeItemCount =
    static_cast<int>(sizeof(kProbeItems) / sizeof(kProbeItems[0]));

namespace {

/** Per-item timing budget: at least kMinReps calls and kBudgetNs. */
constexpr std::int64_t kBudgetNs = 150'000'000;
constexpr int kMinReps = 5;
constexpr int kMaxReps = 5000;
/** Batch of the b8 forward and of the cut GEMMs. */
constexpr std::int64_t kBatch = 8;

class SpanWriter
{
  public:
    std::int64_t reserve() { return next_++; }

    void write(std::int64_t index, const char* name, std::int64_t start,
               std::int64_t end, std::int64_t parent, std::uint64_t id)
    {
        std::printf("span %lld %s %lld %lld %lld %llu\n",
                    static_cast<long long>(index), name,
                    static_cast<long long>(start),
                    static_cast<long long>(end),
                    static_cast<long long>(parent),
                    static_cast<unsigned long long>(id));
    }

    /**
     * Time `op` repeatedly under one root span; `after` runs untimed
     * after each call.
     */
    void repeat(const char* name, const std::function<void(int)>& op,
                const std::function<void(int)>& after = nullptr)
    {
        const std::int64_t root = reserve();
        const std::int64_t begin = now_ns();
        for (int rep = 0; rep < kMaxReps; ++rep) {
            if (rep >= kMinReps && now_ns() - begin >= kBudgetNs) {
                break;
            }
            const std::int64_t start = now_ns();
            op(rep);
            const std::int64_t end = now_ns();
            write(reserve(), name, start, end, root, 0);
            if (after) {
                after(rep);
            }
        }
        write(root, "probe", begin, now_ns(), -1, 0);
    }

  private:
    std::int64_t next_ = 0;
};

Tensor
stack(const std::vector<Tensor>& pool, std::int64_t n)
{
    const Shape& s = pool.front().shape();
    Tensor batch(Shape({n, s[0], s[1], s[2]}));
    const std::int64_t size = pool.front().size();
    for (std::int64_t i = 0; i < n; ++i) {
        const Tensor& a = pool[static_cast<std::size_t>(i) % pool.size()];
        std::copy(a.data(), a.data() + size, batch.data() + i * size);
    }
    return batch;
}

/** Open-loop replay of the low-rate schedule through submit(). */
void
replay(SpanWriter& spans, const Workload& w, const Prepared& p,
       std::uint64_t replay_seed, double replay_seconds)
{
    // Same engine shape and endpoint keys as the served process.
    runtime::ServingEngineConfig config;
    config.shards = kShards;
    config.threads_per_shard = kThreadsPerShard;
    runtime::ServingEngine served(config);
    served.register_endpoints_from_manifest(p.manifest_path);

    std::vector<Scheduled> merged;
    for (auto& connection : make_schedule(replay_seed, w.low_qps,
                                          replay_seconds, p.pool.size(), 0)) {
        merged.insert(merged.end(), connection.begin(), connection.end());
    }
    std::sort(merged.begin(), merged.end(),
              [](const Scheduled& a, const Scheduled& b) {
                  return a.offset_ns < b.offset_ns;
              });

    struct InFlight
    {
        std::int64_t due = 0;
        std::uint64_t id = 0;
        std::future<Tensor> result;
    };
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<InFlight> queue;
    bool done = false;
    const std::int64_t root = spans.reserve();
    const std::int64_t t0 = now_ns() + 20'000'000;
    std::thread waiter([&] {
        ::prctl(PR_SET_TIMERSLACK, 1UL);
        for (;;) {
            InFlight next;
            {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] { return done || !queue.empty(); });
                if (queue.empty()) {
                    return;
                }
                next = std::move(queue.front());
                queue.pop_front();
            }
            try {
                next.result.get();
            } catch (const runtime::ServingError&) {
                continue;  // a failed request has no latency
            }
            spans.write(spans.reserve(), kProbeItems[kProbeItemCount - 1],
                        next.due, now_ns(), root, next.id);
        }
    });
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    for (const Scheduled& s : merged) {
        const std::int64_t due = t0 + s.offset_ns;
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(due)));
        const Tensor& a = p.pool[s.pool_index];
        InFlight f{due, s.id,
                   w.wire == WireDtype::kF32
                       ? served.submit(w.endpoint, a, s.id)
                       : served.submit_quantized(
                             w.endpoint, quantize(a, w.wire), s.id)};
        {
            std::lock_guard<std::mutex> lock(mutex);
            queue.push_back(std::move(f));
        }
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        done = true;
    }
    cv.notify_one();
    waiter.join();
    spans.write(root, "probe", t0, now_ns(), -1, 0);
}

}  // namespace

int
run_probe(const Workload& w, std::uint64_t seed, const std::string& dir,
          int first, std::uint64_t replay_seed, double replay_seconds)
{
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    std::filesystem::create_directories(dir);
    const Prepared p = prepare(w, seed, dir);
    deploy::Bundle bundle = deploy::load_bundle(p.bundle_path);
    const split::SplitModel model(bundle.network(), bundle.cut());
    const auto policy = bundle.make_policy();
    const std::vector<deploy::ManifestEntry> manifest =
        deploy::parse_manifest(p.manifest_path);
    nn::ExecutionContext ctx;
    ctx.set_retain_activations(false);

    // The first cloud Linear: the layer both cut GEMM probes time.
    nn::Linear* linear = nullptr;
    for (std::int64_t i = bundle.cut(); i < bundle.network().size(); ++i) {
        linear = dynamic_cast<nn::Linear*>(&bundle.network().layer(i));
        if (linear != nullptr) {
            break;
        }
    }
    const std::int64_t k = linear->in_features();
    const std::int64_t n = linear->out_features();
    Rng rng(mix_seed(seed, 7));
    const Tensor a = Tensor::normal(Shape({kBatch, k}), rng);
    Tensor c(Shape({kBatch, n}));

    SpanWriter spans;
    for (int item = first; item < kProbeItemCount; ++item) {
        const char* name = kProbeItems[item];
        const auto& act = [&](int rep) -> const Tensor& {
            return p.pool[static_cast<std::size_t>(rep) % p.pool.size()];
        };
        switch (item) {
        case 0:
            spans.repeat(name, [&](int) { deploy::load_bundle(p.bundle_path); });
            break;
        case 1: {
            runtime::ServingEngineConfig config;
            config.shards = kShards;
            config.threads_per_shard = kThreadsPerShard;
            runtime::ServingEngine engine(config);
            const deploy::ManifestEntry& entry = manifest.front();
            spans.repeat(
                name,
                [&](int rep) {
                    engine.register_endpoint_from_bundle(
                        entry.name + std::to_string(rep), entry.bundle_path,
                        entry.config);
                },
                [&](int rep) {
                    engine.deregister_endpoint(entry.name +
                                               std::to_string(rep));
                });
            break;
        }
        case 2:
            spans.repeat(name, [&](int rep) {
                encode_request(w, act(rep), static_cast<std::uint64_t>(rep));
            });
            break;
        case 3: {
            std::vector<std::string> payloads;
            for (const Tensor& t : p.pool) {
                payloads.push_back(encode_request(w, t, 0).substr(12));
            }
            spans.repeat(name, [&](int rep) {
                net::decode_request_payload(
                    payloads[static_cast<std::size_t>(rep) % payloads.size()]);
            });
            break;
        }
        case 4:
            spans.repeat(name,
                         [&](int rep) { quantize(act(rep), WireDtype::kI8); });
            break;
        case 5:
            spans.repeat(name, [&](int rep) {
                policy->apply(act(rep), static_cast<std::uint64_t>(rep));
            });
            break;
        case 6:
        case 7: {
            const std::int64_t batch = item == 6 ? 1 : kBatch;
            const Tensor input = stack(p.pool, batch);
            spans.repeat(name, [&](int) {
                model.cloud_forward(input, ctx, nn::Mode::kEval);
            });
            break;
        }
        case 8:
            spans.repeat(name, [&](int) {
                gemm(false, true, kBatch, n, k, 1.0f, a.data(),
                     linear->weight().value.data(), 0.0f, c.data());
            });
            break;
        case 9: {
            const S8Weights weights =
                prepare_s8_weights(linear->weight().value.data(), n, k);
            std::vector<QuantizedTensor> rows;
            std::vector<const std::int8_t*> row_ptrs;
            std::vector<float> scales;
            std::vector<std::int32_t> zero_points;
            for (std::int64_t r = 0; r < kBatch; ++r) {
                Tensor row(Shape({k}));
                std::copy(a.data() + r * k, a.data() + (r + 1) * k,
                          row.data());
                rows.push_back(quantize(row, WireDtype::kI8));
            }
            for (const QuantizedTensor& q : rows) {
                row_ptrs.push_back(q.i8());
                scales.push_back(q.scale);
                zero_points.push_back(q.zero_point);
            }
            const float* bias =
                linear->has_bias() ? linear->bias().value.data() : nullptr;
            spans.repeat(name, [&](int) {
                gemm_s8(kBatch, n, k, row_ptrs.data(), scales.data(),
                        zero_points.data(), nullptr, weights.data.data(),
                        weights.scale, weights.colsum.data(), bias,
                        c.data());
            });
            break;
        }
        default:
            replay(spans, w, p, replay_seed, replay_seconds);
            break;
        }
        std::printf("done %d\n", item);
    }
    return 0;
}

}  // namespace servebench
