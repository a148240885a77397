/**
 * @file
 * Open-loop serving benchmark: latency distributions of the batched
 * engine under Poisson arrivals, in-process and through the SHRQ/SHRP
 * TCP front door.
 *
 * The previous version of this bench was closed-loop (flood the queue,
 * measure completions/sec), which can only see throughput — a
 * closed-loop driver slows down when the server does, so queueing
 * delay never shows up in the numbers (coordinated omission). This
 * rewrite drives the engine the way real traffic does:
 *
 *  - **Open loop**: request arrival times are drawn up front from a
 *    Poisson process at a target rate and submitted on schedule
 *    whether or not earlier requests finished. Latency is measured
 *    from the *scheduled* arrival, so a stalled server shows up as
 *    growing tail latency instead of a politely reduced offered load.
 *  - **Swept across target QPS**: each operating point reports
 *    p50/p95/p99/mean/max and a log2 latency histogram.
 *  - **Three transports**: `inproc` submits straight into
 *    `ServingEngine::submit`; `tcp` sends every activation through a
 *    loopback `net::Server` speaking the wire protocol, so the
 *    serialization + socket cost of the network front door is its own
 *    measured column; `tcp-int8` ships the same activations quantized
 *    to int8 (SHRT v2 frames, ~4× fewer bytes per request) into an
 *    endpoint running the int8 direct-consume GEMM path. Every point
 *    reports its exact `bytes_per_request` from a real frame encode.
 *  - **Two batchers**: the fixed straggler window (`batch_timeout_ms`)
 *    vs the SLO-aware adaptive controller
 *    (src/runtime/batch_controller.h). The acceptance shape: at
 *    mid-QPS the controller stops charging sparse traffic the full
 *    window, so p95 queue wait drops vs fixed.
 *
 * A quantization section reruns the PrivacyMeter on the TRAINED LeNet
 * zoo endpoint through the quantized mechanism
 * (`ComposedPolicy{QuantizePolicy, noise}` — exactly what a
 * wire_dtype=int8 endpoint serves), pinning the acceptance numbers:
 * ≥3× smaller requests at ≤0.5 pp top-1 accuracy delta.
 *
 * A sharding section (schema v5) floods engines built with 1, 2 and 4
 * pool shards (one single-threaded endpoint per shard, batch 8,
 * closed loop) and records requests/sec per shard count plus the
 * 4-vs-1 speedup — the scale-out acceptance axis. On a single-core
 * container the speedup degenerates to ~1×; the ≥2× criterion is
 * evaluated on a multi-core runner.
 *
 * Results land in `BENCH_server.json` (or argv[1]) via the shared
 * `bench::JsonWriter`, schema `shredder-server-v5`.
 *
 * Honors SHREDDER_BENCH_FAST=1 (lower rates, shorter runs).
 */
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace {

using namespace shredder;

constexpr std::int64_t kMaxBatch = 8;
constexpr std::int64_t kInFlight = 2;
constexpr double kWindowMs = 2.0;  ///< Fixed timeout AND adaptive SLO.
constexpr std::uint64_t kPolicySeed = 0x5EED;

using Clock = std::chrono::steady_clock;

double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** One operating point's measured result. */
struct PointResult
{
    bench::LatencyHistogram latency;  ///< Scheduled-arrival → completion.
    std::int64_t completed = 0;
    std::int64_t failed = 0;
    double run_seconds = 0.0;
    runtime::ServerStats server;  ///< Endpoint counters for the run.
};

/** Poisson schedule: cumulative arrival offsets (ms) at `qps`. */
std::vector<double>
poisson_schedule(double qps, std::int64_t n, std::uint64_t seed)
{
    Rng rng(seed);  // same engine bits as before: Rng wraps mt19937_64
    std::exponential_distribution<double> gap(qps / 1e3);  // per ms
    auto& gen = rng.engine();
    std::vector<double> at;
    at.reserve(static_cast<std::size_t>(n));
    double t = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
        t += gap(gen);
        at.push_back(t);
    }
    return at;
}

/** Fresh single-endpoint engine for one operating point. */
std::unique_ptr<runtime::ServingEngine>
make_engine(split::SplitModel& model,
            const std::shared_ptr<const runtime::NoisePolicy>& policy,
            bool adaptive, WireDtype wire_dtype)
{
    runtime::ServingEngineConfig ec;
    ec.threads_per_shard = static_cast<unsigned>(kInFlight);
    auto engine = std::make_unique<runtime::ServingEngine>(ec);

    runtime::EndpointConfig ep;
    ep.max_batch = kMaxBatch;
    ep.max_concurrent_batches = kInFlight;
    ep.batch_timeout_ms = kWindowMs;
    ep.adaptive_batching = adaptive;
    ep.slo_ms = kWindowMs;
    ep.wire_dtype = wire_dtype;
    // Always safe: the server falls back to dequantize→fp32 when a
    // batch is not uniformly int8 or the cut layer is not a Linear.
    ep.int8_compute = wire_dtype == WireDtype::kI8;
    engine->register_endpoint("bench", model, policy, ep);
    return engine;
}

/**
 * In-process open loop: a submitter thread fires `submit` on the
 * Poisson schedule; a pool of waiter threads stamps each future's
 * completion (each waiter blocks on its own future, so stamps are
 * per-request accurate as long as the pool outnumbers the in-flight
 * backlog — sized generously below).
 */
PointResult
run_inproc(runtime::ServingEngine& engine,
           const std::vector<Tensor>& activations,
           const std::vector<double>& schedule_ms)
{
    const auto n = static_cast<std::int64_t>(schedule_ms.size());
    struct Slot
    {
        std::future<Tensor> future;
        Clock::time_point scheduled;
    };
    std::vector<Slot> slots(static_cast<std::size_t>(n));
    std::mutex mutex;
    std::condition_variable cv;
    std::int64_t submitted = 0;

    PointResult result;
    std::mutex result_mutex;

    const auto t0 = Clock::now();
    std::thread submitter([&] {
        for (std::int64_t i = 0; i < n; ++i) {
            const auto scheduled =
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             schedule_ms[static_cast<std::size_t>(i)]));
            std::this_thread::sleep_until(scheduled);
            auto future = engine.submit(
                "bench",
                activations[static_cast<std::size_t>(i) %
                            activations.size()],
                static_cast<std::uint64_t>(i));
            {
                std::lock_guard<std::mutex> lock(mutex);
                auto& slot = slots[static_cast<std::size_t>(i)];
                slot.future = std::move(future);
                slot.scheduled = scheduled;
                submitted = i + 1;
            }
            // Waiters have distinct "my slot is ready" predicates on
            // this one cv, so notify_one could wake the wrong one.
            cv.notify_all();
        }
    });

    // Waiters pull the next unclaimed slot and block on ITS future, so
    // every completion is stamped the moment it lands.
    std::int64_t next = 0;
    const int n_waiters = 32;
    std::vector<std::thread> waiters;
    waiters.reserve(n_waiters);
    for (int w = 0; w < n_waiters; ++w) {
        waiters.emplace_back([&] {
            for (;;) {
                std::int64_t mine;
                Clock::time_point scheduled;
                std::future<Tensor> future;
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    if (next >= n) {
                        return;
                    }
                    mine = next++;
                    cv.wait(lock, [&] { return submitted > mine; });
                    auto& slot = slots[static_cast<std::size_t>(mine)];
                    future = std::move(slot.future);
                    scheduled = slot.scheduled;
                }
                bool ok = true;
                try {
                    future.get();
                } catch (const runtime::ServingError&) {
                    ok = false;
                }
                const auto done = Clock::now();
                std::lock_guard<std::mutex> lock(result_mutex);
                if (ok) {
                    result.latency.record(ms_between(scheduled, done));
                    ++result.completed;
                } else {
                    ++result.failed;
                }
            }
        });
    }
    submitter.join();
    cv.notify_all();
    for (auto& w : waiters) {
        w.join();
    }
    result.run_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    result.server = engine.stats("bench");
    return result;
}

/**
 * Loopback-TCP open loop: same schedule, but every request is a SHRQ
 * frame through a `net::Client` pipelined over one connection. The
 * server guarantees FIFO responses per connection, so a receiver
 * thread stamps completions as frames land.
 */
PointResult
run_tcp(runtime::ServingEngine& engine,
        const std::vector<Tensor>& activations,
        const std::vector<double>& schedule_ms, WireDtype wire_dtype)
{
    const auto n = static_cast<std::int64_t>(schedule_ms.size());
    net::Server server(engine, net::ServerConfig{});
    net::Client client("127.0.0.1", server.port());

    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Clock::time_point> in_flight;  // FIFO scheduled stamps
    bool send_done = false;

    PointResult result;
    const auto t0 = Clock::now();

    std::thread receiver([&] {
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock,
                        [&] { return !in_flight.empty() || send_done; });
                if (in_flight.empty()) {
                    return;
                }
            }
            net::Response response;
            try {
                response = client.recv();
            } catch (const runtime::ServingError&) {
                std::lock_guard<std::mutex> lock(mutex);
                result.failed +=
                    static_cast<std::int64_t>(in_flight.size());
                in_flight.clear();
                return;
            }
            const auto done = Clock::now();
            std::lock_guard<std::mutex> lock(mutex);
            const auto scheduled = in_flight.front();
            in_flight.pop_front();
            if (response.status == net::WireStatus::kOk) {
                result.latency.record(ms_between(scheduled, done));
                ++result.completed;
            } else {
                ++result.failed;
            }
        }
    });

    for (std::int64_t i = 0; i < n; ++i) {
        const auto scheduled =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(
                         schedule_ms[static_cast<std::size_t>(i)]));
        std::this_thread::sleep_until(scheduled);
        {
            std::lock_guard<std::mutex> lock(mutex);
            in_flight.push_back(scheduled);
        }
        client.send("bench",
                    activations[static_cast<std::size_t>(i) %
                                activations.size()],
                    static_cast<std::uint64_t>(i), wire_dtype);
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        send_done = true;
    }
    cv.notify_all();
    receiver.join();
    client.close();
    server.stop();

    result.run_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    result.server = engine.stats("bench");
    return result;
}

}  // namespace

int
main(int argc, char** argv)
{
    const std::string json_path = argc > 1 ? argv[1] : "BENCH_server.json";

    bench::banner(
        "Serving: open-loop Poisson load, in-process and loopback TCP");

    // Untrained LeNet: the serving data path (policy apply + cloud
    // forward) is identical regardless of weight values, and skipping
    // pre-training keeps this benchmark self-contained and fast.
    Rng rng(4242);
    auto net = models::make_lenet(rng);
    const std::int64_t cut = split::conv_cut_points(*net).back();
    split::SplitModel model(*net, cut);
    const Shape act = model.activation_shape(Shape({1, 28, 28}));
    const Shape per_sample({act[1], act[2], act[3]});

    // Replay policy — the historical deployment mode; the policy cost
    // axis lives in the git history of the v2 schema, this bench
    // measures scheduling.
    core::NoiseCollection coll;
    for (int i = 0; i < 4; ++i) {
        core::NoiseSample sample;
        sample.noise = Tensor::laplace(per_sample, rng, 0.0f, 0.5f);
        coll.add(std::move(sample));
    }
    const auto policy =
        std::make_shared<runtime::ReplayPolicy>(coll, kPolicySeed);

    std::vector<Tensor> activations;
    for (int i = 0; i < 64; ++i) {
        activations.push_back(Tensor::normal(per_sample, rng));
    }

    const bool fast = bench::fast_mode();
    const std::vector<double> qps_points =
        fast ? std::vector<double>{500, 1000, 2000}
             : std::vector<double>{1000, 4000, 16000};
    const double duration_s = fast ? 0.2 : 1.0;
    const char* transports[] = {"inproc", "tcp", "tcp-int8"};
    const char* batchers[] = {"fixed", "adaptive"};

    // The exact frame each transport puts on the wire for one request
    // (envelope + ids + endpoint + tensor), measured from a real
    // encode — `inproc` ships no frame and reports the fp32 size its
    // traffic would have cost.
    net::Request probe;
    probe.request_id = 0;
    probe.endpoint = "bench";
    probe.activation = activations.front();
    const auto bytes_fp32_frame =
        static_cast<std::int64_t>(net::encode_request(probe).size());
    probe.quantized = quantize(activations.front(), WireDtype::kI8);
    probe.is_quantized = true;
    const auto bytes_int8_frame =
        static_cast<std::int64_t>(net::encode_request(probe).size());

    const unsigned hw_threads =
        std::max(1u, std::thread::hardware_concurrency());
    std::printf("network lenet, cut %lld, activation %s, max_batch %lld, "
                "window/slo %.1f ms, %.2fs per point, hw_threads=%u\n",
                static_cast<long long>(cut),
                per_sample.to_string().c_str(),
                static_cast<long long>(kMaxBatch), kWindowMs, duration_s,
                hw_threads);
    std::printf("%8s %9s %10s %10s %9s %9s %9s %12s\n", "transport",
                "batcher", "target_qps", "achieved", "p50 ms", "p95 ms",
                "p99 ms", "queue p95 ms");

    bench::JsonWriter json;
    json.begin_object();
    json.key("schema");
    json.value("shredder-server-v5");
    json.key("generated");
    json.value(bench::now_iso8601());
    json.key("fast_mode");
    json.value(fast);
    json.key("compiler");
    json.value(__VERSION__);
    json.key("hw_threads");
    json.value(static_cast<std::int64_t>(hw_threads));
    json.key("max_batch");
    json.value(kMaxBatch);
    json.key("window_ms");
    json.value(kWindowMs);
    json.key("duration_s");
    json.value(duration_s);
    json.key("points");
    json.begin_array();

    // queue_p95[batcher][qps index] on the inproc transport, for the
    // adaptive-vs-fixed summary.
    double queue_p95[2][8] = {};

    for (const char* transport : transports) {
        for (int adaptive = 0; adaptive < 2; ++adaptive) {
            for (std::size_t qi = 0; qi < qps_points.size(); ++qi) {
                const double qps = qps_points[qi];
                const auto n =
                    static_cast<std::int64_t>(qps * duration_s);
                const std::vector<double> schedule = poisson_schedule(
                    qps, n, 0xA11CE + static_cast<std::uint64_t>(qi));
                const bool int8 = std::string(transport) == "tcp-int8";
                const WireDtype wire_dtype =
                    int8 ? WireDtype::kI8 : WireDtype::kF32;
                auto engine = make_engine(model, policy, adaptive != 0,
                                          wire_dtype);
                const bool tcp = std::string(transport) != "inproc";
                const PointResult r =
                    tcp ? run_tcp(*engine, activations, schedule,
                                  wire_dtype)
                        : run_inproc(*engine, activations, schedule);
                engine->shutdown();
                const std::int64_t bytes_per_request =
                    int8 ? bytes_int8_frame : bytes_fp32_frame;

                const double achieved =
                    static_cast<double>(r.completed) /
                    std::max(r.run_seconds, 1e-9);
                const double server_queue_p95 =
                    r.server.queue_wait_percentile_ms(0.95);
                if (!tcp && qi < 8) {
                    queue_p95[adaptive][qi] = server_queue_p95;
                }
                std::printf(
                    "%8s %9s %10.0f %10.0f %9.3f %9.3f %9.3f %12.3f\n",
                    transport, batchers[adaptive], qps, achieved,
                    r.latency.percentile_ms(0.50),
                    r.latency.percentile_ms(0.95),
                    r.latency.percentile_ms(0.99), server_queue_p95);
                std::fflush(stdout);

                json.begin_object();
                json.key("transport");
                json.value(transport);
                json.key("batcher");
                json.value(batchers[adaptive]);
                json.key("target_qps");
                json.value(qps);
                json.key("wire_dtype");
                json.value(to_string(wire_dtype));
                json.key("bytes_per_request");
                json.value(bytes_per_request);
                json.key("offered");
                json.value(n);
                json.key("completed");
                json.value(r.completed);
                json.key("failed");
                json.value(r.failed);
                json.key("achieved_qps");
                json.value(achieved);
                json.key("p50_ms");
                json.value(r.latency.percentile_ms(0.50));
                json.key("p95_ms");
                json.value(r.latency.percentile_ms(0.95));
                json.key("p99_ms");
                json.value(r.latency.percentile_ms(0.99));
                json.key("mean_ms");
                json.value(r.latency.mean_ms());
                json.key("max_ms");
                json.value(r.latency.max_ms());
                json.key("latency_log2_buckets_ms");
                json.begin_array();
                for (const std::int64_t b : r.latency.log2_buckets(16)) {
                    json.value(b);
                }
                json.end_array();
                json.key("server");
                json.begin_object();
                json.key("mean_batch");
                json.value(r.server.mean_batch_size());
                json.key("queue_wait_p50_ms");
                json.value(r.server.queue_wait_percentile_ms(0.50));
                json.key("queue_wait_p95_ms");
                json.value(server_queue_p95);
                json.key("full_dispatches");
                json.value(r.server.full_dispatches);
                json.key("deadline_dispatches");
                json.value(r.server.deadline_dispatches);
                json.key("ewma_interarrival_ms");
                json.value(r.server.ewma_interarrival_ms);
                json.key("last_deadline_ms");
                json.value(r.server.last_deadline_ms);
                json.key("quantized_requests");
                json.value(r.server.quantized_requests);
                json.key("int8_direct_batches");
                json.value(r.server.int8_direct_batches);
                json.end_object();
                json.end_object();
            }
        }
    }
    json.end_array();

    // The acceptance summary: at the middle QPS point on the in-process
    // transport, the adaptive controller should cut p95 queue wait vs
    // the fixed window (sparse traffic stops paying the full timeout).
    const std::size_t mid = qps_points.size() / 2;
    const double fixed_p95 = queue_p95[0][mid];
    const double adaptive_p95 = queue_p95[1][mid];
    json.key("queue_p95_fixed_at_mid_qps_ms");
    json.value(fixed_p95);
    json.key("queue_p95_adaptive_at_mid_qps_ms");
    json.value(adaptive_p95);

    // ---- Quantized transport acceptance: measured == served --------
    //
    // The scheduling sweep above uses an untrained net (weights don't
    // change scheduling). Accuracy DOES depend on weights, so the
    // wire-quantization claim is re-measured on the trained LeNet zoo
    // model at the same cut, through the exact mechanism a
    // wire_dtype=int8 endpoint serves: the client quantizes the raw
    // activation (QuantizePolicy stage first), the server dequantizes
    // and applies the noise policy. PrivacyMeter rows below are that
    // composition, so measured = served.
    bench::banner("Quantized wire path: trained LeNet, int8 vs fp32");
    models::BenchmarkOptions opt;
    opt.verbose = false;
    models::Benchmark zoo = models::make_benchmark("lenet", opt);
    split::SplitModel zoo_model(*zoo.net, zoo.last_conv_cut);
    const Shape zoo_act_b = zoo_model.activation_shape(zoo.input_shape);
    const Shape zoo_act({zoo_act_b[1], zoo_act_b[2], zoo_act_b[3]});

    core::NoiseCollection zoo_coll;
    for (int i = 0; i < 4; ++i) {
        core::NoiseSample sample;
        sample.noise = Tensor::laplace(zoo_act, rng, 0.0f, 0.5f);
        zoo_coll.add(std::move(sample));
    }
    const auto zoo_replay =
        std::make_shared<runtime::ReplayPolicy>(zoo_coll, kPolicySeed);
    const runtime::ComposedPolicy zoo_int8(
        {std::make_shared<runtime::QuantizePolicy>(WireDtype::kI8),
         zoo_replay});

    // Full request frames (envelope + ids + endpoint + tensor) for one
    // zoo-endpoint activation, from a real encode.
    net::Request zoo_probe;
    zoo_probe.request_id = 0;
    zoo_probe.endpoint = "lenet";
    zoo_probe.activation = Tensor::normal(zoo_act, rng);
    const auto zoo_bytes_fp32 =
        static_cast<std::int64_t>(net::encode_request(zoo_probe).size());
    zoo_probe.quantized = quantize(zoo_probe.activation, WireDtype::kI8);
    zoo_probe.is_quantized = true;
    const auto zoo_bytes_int8 =
        static_cast<std::int64_t>(net::encode_request(zoo_probe).size());
    const double zoo_bytes_ratio = static_cast<double>(zoo_bytes_fp32) /
                                   static_cast<double>(zoo_bytes_int8);

    core::PrivacyMeter meter(zoo_model, *zoo.test_set,
                             bench::default_meter_config("lenet"));
    const core::PrivacyReport q_clean = meter.measure_clean();
    const core::PrivacyReport q_fp32 = meter.measure_policy(*zoo_replay);
    const core::PrivacyReport q_int8 = meter.measure_policy(zoo_int8);
    const double accuracy_delta_pp =
        (q_fp32.accuracy - q_int8.accuracy) * 100.0;

    std::printf("cut %lld, activation %s: %lld B/request fp32, %lld "
                "B/request int8 (%.2fx smaller)\n",
                static_cast<long long>(zoo.last_conv_cut),
                zoo_act.to_string().c_str(),
                static_cast<long long>(zoo_bytes_fp32),
                static_cast<long long>(zoo_bytes_int8), zoo_bytes_ratio);
    std::printf("%-12s %9s %9s\n", "mechanism", "accuracy", "mi bits");
    std::printf("%-12s %9.4f %9.3f\n", "clean", q_clean.accuracy,
                q_clean.mi_bits);
    std::printf("%-12s %9.4f %9.3f\n", "fp32+noise", q_fp32.accuracy,
                q_fp32.mi_bits);
    std::printf("%-12s %9.4f %9.3f\n", zoo_int8.name().c_str(),
                q_int8.accuracy, q_int8.mi_bits);
    std::printf("accuracy delta int8 vs fp32: %.3f pp\n",
                accuracy_delta_pp);

    json.key("quantization");
    json.begin_object();
    json.key("network");
    json.value("lenet");
    json.key("cut");
    json.value(zoo.last_conv_cut);
    json.key("activation");
    json.value(zoo_act.to_string());
    json.key("meter_samples");
    json.value(q_fp32.samples);
    json.key("bytes_per_request_fp32");
    json.value(zoo_bytes_fp32);
    json.key("bytes_per_request_int8");
    json.value(zoo_bytes_int8);
    json.key("bytes_ratio");
    json.value(zoo_bytes_ratio);
    json.key("accuracy_clean");
    json.value(q_clean.accuracy);
    json.key("accuracy_fp32_noise");
    json.value(q_fp32.accuracy);
    json.key("accuracy_int8_noise");
    json.value(q_int8.accuracy);
    json.key("accuracy_delta_pp");
    json.value(accuracy_delta_pp);
    json.key("mi_bits_clean");
    json.value(q_clean.mi_bits);
    json.key("mi_bits_fp32_noise");
    json.value(q_fp32.mi_bits);
    json.key("mi_bits_int8_noise");
    json.value(q_int8.mi_bits);
    json.key("served_policy");
    json.value(zoo_int8.name());
    json.end_object();

    // ---- Scale-out: pool shards at batch 8, closed-loop flood ------
    //
    // One single-threaded endpoint per shard, all serving the SAME
    // SplitModel (stateless layer execution makes sharing safe), and a
    // fixed total request budget spread round-robin. More shards =
    // more independent dispatcher+worker lanes over the same work, so
    // requests/sec should scale with shard count up to the core count
    // of the machine.
    bench::banner("Scale-out: 1/2/4 pool shards, batch 8, closed loop");
    const unsigned shard_counts[] = {1, 2, 4};
    const std::int64_t flood = fast ? 512 : 4096;
    double rps_by_shards[3] = {};
    std::printf("%7s %10s %9s %12s %11s\n", "shards", "completed",
                "seconds", "req/s", "mean_batch");
    json.key("sharding");
    json.begin_object();
    json.key("max_batch");
    json.value(kMaxBatch);
    json.key("requests");
    json.value(flood);
    json.key("threads_per_shard");
    json.value(static_cast<std::int64_t>(1));
    json.key("points");
    json.begin_array();
    for (std::size_t si = 0; si < 3; ++si) {
        const unsigned n_shards = shard_counts[si];
        runtime::ServingEngineConfig ec;
        ec.shards = n_shards;
        ec.threads_per_shard = 1;
        runtime::ServingEngine engine(ec);
        for (unsigned s = 0; s < n_shards; ++s) {
            runtime::EndpointConfig ep;
            ep.max_batch = kMaxBatch;
            ep.batch_timeout_ms = 0.0;  // flood keeps batches full anyway
            ep.max_concurrent_batches = 1;
            ep.shard = std::to_string(s);  // pin one endpoint per shard
            engine.register_endpoint("ep" + std::to_string(s), model,
                                     policy, ep);
        }
        std::vector<std::future<Tensor>> futures;
        futures.reserve(static_cast<std::size_t>(flood));
        const auto t0 = Clock::now();
        for (std::int64_t i = 0; i < flood; ++i) {
            futures.push_back(engine.submit(
                "ep" + std::to_string(i % n_shards),
                activations[static_cast<std::size_t>(i) %
                            activations.size()],
                static_cast<std::uint64_t>(i)));
        }
        std::int64_t ok = 0;
        for (auto& future : futures) {
            try {
                future.get();
                ++ok;
            } catch (const runtime::ServingError&) {
            }
        }
        const double seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        const double rps =
            static_cast<double>(ok) / std::max(seconds, 1e-9);
        rps_by_shards[si] = rps;
        const runtime::ServerStats shard_stats = engine.stats();
        engine.shutdown();
        std::printf("%7u %10lld %9.3f %12.0f %11.2f\n", n_shards,
                    static_cast<long long>(ok), seconds, rps,
                    shard_stats.mean_batch_size());
        std::fflush(stdout);
        json.begin_object();
        json.key("shards");
        json.value(static_cast<std::int64_t>(n_shards));
        json.key("completed");
        json.value(ok);
        json.key("seconds");
        json.value(seconds);
        json.key("requests_per_sec");
        json.value(rps);
        json.key("mean_batch");
        json.value(shard_stats.mean_batch_size());
        json.end_object();
    }
    json.end_array();
    const double shard_speedup =
        rps_by_shards[2] / std::max(rps_by_shards[0], 1e-9);
    json.key("speedup_4_shards_vs_1");
    json.value(shard_speedup);
    json.end_object();
    std::printf("4-shard vs 1-shard speedup: %.2fx (>=2x expected on a "
                "multi-core runner; ~1x on one core)\n",
                shard_speedup);
    json.end_object();

    if (!bench::JsonValidator::valid(json.str())) {
        std::fprintf(stderr, "internal error: emitted invalid JSON\n");
        return 1;
    }
    if (!json.write_file(json_path)) {
        std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
        return 1;
    }

    std::printf("\nqueue-wait p95 at %.0f qps (inproc): fixed %.3f ms, "
                "adaptive %.3f ms\n",
                qps_points[mid], fixed_p95, adaptive_p95);
    std::printf("wrote %s\n", json_path.c_str());
    std::printf(
        "Expected shape: latency is flat while the server keeps up "
        "with the\noffered rate and spikes when it saturates (open "
        "loop: queueing shows\nup as tail latency, not reduced "
        "throughput). The adaptive batcher\nstops charging sparse "
        "traffic the fixed straggler window, so its\nqueue-wait p95 "
        "sits below the fixed batcher's until the rate is high\n"
        "enough that batches fill before the window matters (see "
        "docs/PERFORMANCE.md).\nThe tcp-int8 transport ships the same "
        "traffic in ~4x fewer bytes per\nrequest; the quantization "
        "section pins the accuracy cost of that codec\non the trained "
        "model (acceptance: >=3x bytes, <=0.5 pp top-1).\n");
    return 0;
}
