/**
 * @file
 * Admission-control suite: token-bucket refill math on a fake clock,
 * typed `kAdmissionReject`/`kRateLimited` backpressure that never
 * disturbs admitted work, the same codes over TCP (`WireStatus`),
 * and decoder hardening for the new status values (out-of-range and
 * truncated response payloads stay typed protocol errors).
 */
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/noise_collection.h"
#include "src/models/zoo.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/runtime/admission.h"
#include "src/runtime/inference_server.h"
#include "src/runtime/noise_policy.h"
#include "src/runtime/serving_engine.h"
#include "src/runtime/thread_pool.h"
#include "src/split/split_model.h"
#include "tests/test_util.h"

namespace shredder {
namespace {

using runtime::EndpointConfig;
using runtime::InferenceServer;
using runtime::NoNoisePolicy;
using runtime::ServingEngine;
using runtime::ServingEngineConfig;
using runtime::ServingError;
using runtime::ServingErrorCode;
using runtime::TokenBucket;

/** One LeNet cut at the last conv point. */
struct Fixture
{
    explicit Fixture(std::uint64_t seed = 77)
        : rng(seed), net(models::make_lenet(rng)),
          cut(split::conv_cut_points(*net).back()), model(*net, cut),
          act_shape(model.activation_shape(Shape({1, 28, 28})))
    {
    }

    Shape
    per_sample() const
    {
        return Shape({act_shape[1], act_shape[2], act_shape[3]});
    }

    Tensor
    sample_activation()
    {
        return Tensor::normal(per_sample(), rng);
    }

    Rng rng;
    std::unique_ptr<nn::Sequential> net;
    std::int64_t cut;
    split::SplitModel model;
    Shape act_shape;
};

/** Expect `future` to fail with a specific `ServingError` code. */
void
expect_code(std::future<Tensor>& future, ServingErrorCode expected)
{
    try {
        future.get();
        ADD_FAILURE() << "expected ServingError "
                      << runtime::to_string(expected);
    } catch (const ServingError& e) {
        EXPECT_EQ(e.code(), expected) << e.what();
    } catch (const std::exception& e) {
        ADD_FAILURE() << "expected ServingError, got " << e.what();
    }
}

// ---------------------------------------------------------------------
// Token-bucket refill math (fake clock — no timing in these tests)
// ---------------------------------------------------------------------

TEST(TokenBucket, ColdBurstThenRefillAtQps)
{
    TokenBucket bucket(2.0, 4.0);  // 2 tokens/s, capacity 4
    EXPECT_TRUE(bucket.enabled());
    EXPECT_DOUBLE_EQ(bucket.burst(), 4.0);

    // First arrival pins the origin with a full bucket: the cold
    // burst admits exactly `burst` requests.
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(bucket.try_take(1000.0)) << "cold take " << i;
    }
    EXPECT_FALSE(bucket.try_take(1000.0));

    // 500 ms at 2 qps refills exactly one token.
    EXPECT_TRUE(bucket.try_take(1500.0));
    EXPECT_FALSE(bucket.try_take(1500.0));

    // 250 ms refills half a token — not enough for an admit; the
    // fraction carries so the next 250 ms completes it.
    EXPECT_FALSE(bucket.try_take(1750.0));
    EXPECT_TRUE(bucket.try_take(2000.0));
}

TEST(TokenBucket, RefillCapsAtBurstAndClockNeverRunsBackwards)
{
    TokenBucket bucket(10.0, 3.0);
    EXPECT_TRUE(bucket.try_take(0.0));  // origin pinned, 2 left
    // An hour of idleness refills to the cap, not beyond it.
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(bucket.try_take(3.6e6)) << "capped take " << i;
    }
    EXPECT_FALSE(bucket.try_take(3.6e6));
    // Time moving backwards clamps to "no refill" instead of going
    // negative (a clock hiccup must not mint tokens); the hiccup
    // rebases the origin, so only time elapsed AFTER it refills.
    EXPECT_FALSE(bucket.try_take(1.0e6));
    EXPECT_FALSE(bucket.try_take(1.0e6 + 50.0));  // 50 ms = 0.5 tokens
    EXPECT_TRUE(bucket.try_take(1.0e6 + 100.0));  // 100 ms = 1 token
}

TEST(TokenBucket, BurstDefaultsToOneSecondOfAllowanceAtLeastOne)
{
    EXPECT_DOUBLE_EQ(TokenBucket(5.0).burst(), 5.0);
    EXPECT_DOUBLE_EQ(TokenBucket(0.5).burst(), 1.0);
    EXPECT_DOUBLE_EQ(TokenBucket(8.0, 2.0).burst(), 2.0);
}

TEST(TokenBucket, DisabledBucketAlwaysAdmits)
{
    TokenBucket bucket;  // qps 0 = no limit configured
    EXPECT_FALSE(bucket.enabled());
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(bucket.try_take(0.0));
    }
}

// ---------------------------------------------------------------------
// Server-level admission: typed rejects, admitted work untouched
// ---------------------------------------------------------------------

TEST(Admission, InFlightCapRejectsBeforeBurningTokens)
{
    // A deliberately-wedged one-thread pool holds the first request
    // in flight, making every admission decision deterministic. The
    // cap is checked BEFORE the bucket, so cap rejections must not
    // consume rate tokens.
    Fixture fx;
    NoNoisePolicy policy;
    ThreadPool pool(1);
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    pool.submit([opened] { opened.wait(); });

    EndpointConfig cfg;
    cfg.max_batch = 1;
    cfg.batch_timeout_ms = 0.0;
    cfg.max_in_flight = 1;
    cfg.rate_limit_qps = 0.0001;  // ~1 token per 3 hours: no refill
    cfg.rate_limit_burst = 2.0;
    InferenceServer server(fx.model, policy, cfg, pool);

    auto f1 = server.submit(fx.sample_activation(), 1);  // token 1 of 2
    auto f2 = server.submit(fx.sample_activation(), 2);  // over the cap
    expect_code(f2, ServingErrorCode::kAdmissionReject);
    EXPECT_EQ(server.stats().admission_rejected, 1);

    gate.set_value();
    EXPECT_NO_THROW(f1.get()) << "admitted work must complete";

    // Wait for the in-flight gauge to settle (the decrement lands
    // just after the promise is fulfilled).
    for (int spin = 0; spin < 2000 && server.stats().in_flight != 0;
         ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(server.stats().in_flight, 0);

    // The cap rejection did not burn a token: the second (and last)
    // token is still there, and only THEN does the bucket run dry.
    auto f3 = server.submit(fx.sample_activation(), 3);
    EXPECT_NO_THROW(f3.get());
    auto f4 = server.submit(fx.sample_activation(), 4);
    expect_code(f4, ServingErrorCode::kRateLimited);
    EXPECT_EQ(server.stats().rate_limited, 1);
    EXPECT_EQ(server.stats().admission_rejected, 1);
}

TEST(Admission, EngineRateLimitIsTypedAndOtherEndpointsKeepServing)
{
    Fixture fx;
    ServingEngineConfig ec;
    ec.threads_per_shard = 1;
    ServingEngine engine(ec);
    EndpointConfig limited;
    limited.max_batch = 1;
    limited.batch_timeout_ms = 0.0;
    limited.rate_limit_qps = 0.0001;
    limited.rate_limit_burst = 2.0;
    engine.register_endpoint("limited", fx.model,
                             std::make_shared<NoNoisePolicy>(), limited);
    EndpointConfig open;
    open.max_batch = 1;
    open.batch_timeout_ms = 0.0;
    engine.register_endpoint("open", fx.model,
                             std::make_shared<NoNoisePolicy>(), open);

    auto f1 = engine.submit("limited", fx.sample_activation(), 1);
    auto f2 = engine.submit("limited", fx.sample_activation(), 2);
    auto f3 = engine.submit("limited", fx.sample_activation(), 3);
    EXPECT_NO_THROW(f1.get());
    EXPECT_NO_THROW(f2.get());
    expect_code(f3, ServingErrorCode::kRateLimited);

    // Backpressure on one endpoint is invisible to its neighbors and
    // to later traffic on the same engine.
    for (std::uint64_t id = 0; id < 4; ++id) {
        auto f = engine.submit("open", fx.sample_activation(), id);
        EXPECT_NO_THROW(f.get());
    }
    EXPECT_EQ(engine.stats("limited").rate_limited, 1);
    EXPECT_EQ(engine.stats("open").rate_limited, 0);
    EXPECT_EQ(engine.stats().rate_limited, 1);
}

// ---------------------------------------------------------------------
// The wire: new WireStatus values end-to-end and decoder hardening
// ---------------------------------------------------------------------

TEST(Admission, RateLimitedCrossesTheWireTyped)
{
    Fixture fx;
    ServingEngine engine;
    EndpointConfig limited;
    limited.max_batch = 1;
    limited.batch_timeout_ms = 0.0;
    limited.rate_limit_qps = 0.0001;
    limited.rate_limit_burst = 1.0;
    engine.register_endpoint("limited", fx.model,
                             std::make_shared<NoNoisePolicy>(), limited);
    net::Server server(engine);

    // Pipelined pair: the first takes the only token, the second gets
    // the typed status — and the connection stays healthy.
    net::Client client("127.0.0.1", server.port());
    client.send("limited", fx.sample_activation(), 10);
    client.send("limited", fx.sample_activation(), 11);
    const net::Response first = client.recv();
    const net::Response second = client.recv();
    EXPECT_EQ(first.request_id, 10u);
    EXPECT_EQ(first.status, net::WireStatus::kOk);
    EXPECT_EQ(second.request_id, 11u);
    EXPECT_EQ(second.status, net::WireStatus::kRateLimited);
    EXPECT_FALSE(second.message.empty());

    // The blocking helper surfaces the same typed code.
    try {
        client.infer("limited", fx.sample_activation(), 12);
        ADD_FAILURE() << "expected kRateLimited over the wire";
    } catch (const ServingError& e) {
        EXPECT_EQ(e.code(), ServingErrorCode::kRateLimited) << e.what();
    }
}

TEST(Admission, ResponseStatusRoundTripsForEveryKnownValue)
{
    for (std::uint32_t s = 1; s <= net::kMaxWireStatus; ++s) {
        net::Response response;
        response.request_id = 40 + s;
        response.status = static_cast<net::WireStatus>(s);
        response.message = "typed backpressure";
        const std::string frame = net::encode_response(response);
        const net::Response back =
            net::decode_response_payload(frame.substr(12));
        EXPECT_EQ(back.status, response.status) << "status " << s;
        EXPECT_EQ(back.request_id, response.request_id);
        EXPECT_EQ(back.message, response.message);
    }
}

TEST(Admission, OutOfRangeStatusIsTypedProtocolError)
{
    net::Response response;
    response.request_id = 9;
    response.status = net::WireStatus::kRateLimited;
    response.message = "x";
    // Strip the 12-byte envelope; the status u32 sits at payload
    // offset 8 (after the request id), little-endian.
    std::string payload = net::encode_response(response).substr(12);
    for (const std::uint32_t bad :
         {net::kMaxWireStatus + 1, net::kMaxWireStatus + 2, 200u}) {
        payload[8] = static_cast<char>(bad & 0xFF);
        payload[9] = static_cast<char>((bad >> 8) & 0xFF);
        payload[10] = 0;
        payload[11] = 0;
        try {
            net::decode_response_payload(payload);
            ADD_FAILURE() << "status " << bad << " must not decode";
        } catch (const ServingError& e) {
            EXPECT_EQ(e.code(), ServingErrorCode::kProtocol) << e.what();
        }
    }
}

TEST(Admission, TruncatedRateLimitedResponseNeverDecodes)
{
    // Truncation sweep over a response carrying a NEW status value:
    // every proper prefix of the payload is a typed kProtocol error —
    // no crash, no partial decode, exactly like the legacy statuses.
    net::Response response;
    response.request_id = 77;
    response.status = net::WireStatus::kAdmissionReject;
    response.message = "admission queue full";
    const std::string payload =
        net::encode_response(response).substr(12);
    for (std::size_t len = 0; len < payload.size(); ++len) {
        try {
            net::decode_response_payload(payload.substr(0, len));
            ADD_FAILURE() << "prefix of " << len << " bytes decoded";
        } catch (const ServingError& e) {
            EXPECT_EQ(e.code(), ServingErrorCode::kProtocol)
                << "prefix " << len << ": " << e.what();
        }
    }
    EXPECT_EQ(net::decode_response_payload(payload).status,
              net::WireStatus::kAdmissionReject);
}

}  // namespace
}  // namespace shredder
