/**
 * @file
 * Integration tests for the network front door: loopback end-to-end
 * serving through the SHRQ/SHRP protocol, bit-exactness against the
 * in-process engine, concurrent clients, and — most important — the
 * trust-boundary sweep: every malformed byte stream a client can send
 * (truncations, bad magic, future versions, oversize length prefixes,
 * lying tensor headers, mid-frame disconnects) must produce a typed
 * error or a clean close, and the server must keep serving afterwards.
 * Network input must never crash the process.
 */
#include <chrono>
#include <cstring>
#include <iterator>
#include <filesystem>
#include <limits>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include "src/core/noise_collection.h"
#include "src/core/noise_distribution.h"
#include "src/deploy/bundle.h"
#include "src/models/zoo.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/runtime/noise_policy.h"
#include "src/runtime/serving_engine.h"
#include "src/split/split_model.h"
#include "src/tensor/ops.h"
#include "src/tensor/serialize.h"
#include "tests/alloc_probe.h"

namespace shredder {
namespace {

using runtime::EndpointConfig;
using runtime::ReplayPolicy;
using runtime::ServingEngine;
using runtime::ServingError;
using runtime::ServingErrorCode;

/**
 * LeNet engine behind a loopback server, replay policy at the last
 * conv cut — the deployment the wire protocol fronts.
 */
struct Fixture
{
    explicit Fixture(std::uint64_t seed = 91)
        : rng(seed), net(models::make_lenet(rng)),
          cut(split::conv_cut_points(*net).back()), model(*net, cut),
          act_shape(model.activation_shape(Shape({1, 28, 28})))
    {
        for (int i = 0; i < 4; ++i) {
            core::NoiseSample s;
            s.noise = Tensor::laplace(per_sample(), rng, 0.0f, 1.0f);
            collection.add(std::move(s));
        }
        engine = std::make_unique<ServingEngine>();
        EndpointConfig ep;
        ep.max_batch = 4;
        ep.batch_timeout_ms = 0.2;
        engine->register_endpoint(
            "lenet", model,
            std::make_shared<ReplayPolicy>(collection, 0xFACE), ep);
        server = std::make_unique<net::Server>(*engine);
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

    /** A fully valid SHRQ frame for `id` (raw-socket tests mutate it). */
    std::string
    valid_frame(std::uint64_t id, const std::string& endpoint = "lenet")
    {
        net::Request request;
        request.request_id = id;
        request.endpoint = endpoint;
        request.activation = sample_activation();
        return net::encode_request(request);
    }

    Rng rng;
    std::unique_ptr<nn::Sequential> net;
    std::int64_t cut;
    split::SplitModel model;
    Shape act_shape;  ///< Batched ([1, C, H, W]).
    core::NoiseCollection collection;
    std::unique_ptr<ServingEngine> engine;
    std::unique_ptr<net::Server> server;
};

/**
 * Prove the server still answers good requests on a FRESH connection —
 * the "one bad client never costs the service" check run after every
 * hostile case.
 */
void
expect_still_serving(Fixture& fx, std::uint64_t id)
{
    net::Client client("127.0.0.1", fx.server->port());
    const Tensor logits = client.infer("lenet", fx.sample_activation(), id);
    EXPECT_EQ(logits.shape().rank(), 1);
    EXPECT_GT(logits.size(), 0);
}

// -- End-to-end loopback serving ------------------------------------------

TEST(NetServer, LoopbackMatchesInProcessBitExact)
{
    Fixture fx;
    net::Client client("127.0.0.1", fx.server->port());

    // The same (activation, request id) served over the wire and
    // through ServingEngine::submit must agree bit-for-bit: the wire
    // codec round-trips floats exactly, and the replay policy keys its
    // draw on the id, so transport cannot change the noise assignment.
    for (std::uint64_t id = 0; id < 8; ++id) {
        const Tensor activation = fx.sample_activation();
        const Tensor wire = client.infer("lenet", activation, id);
        const Tensor direct =
            fx.engine->submit("lenet", activation, id).get();
        ASSERT_EQ(wire.shape().to_string(), direct.shape().to_string());
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(wire, direct), 0.0) << id;
    }

    const net::ServerNetStats stats = fx.server->stats();
    EXPECT_EQ(stats.connections_accepted, 1);
    EXPECT_EQ(stats.frames_served, 8);
    EXPECT_EQ(stats.protocol_errors, 0);
}

TEST(NetServer, AllNanFrameIntoACloudMaxPoolIsAnswered)
{
    // A LeNet split after Conv0 starts its cloud half with MaxPool2d.
    // One all-NaN frame must get an answer, not take the process down,
    // and the next request on a new connection is answered bit-exactly.
    Rng rng(93);
    auto net = models::make_lenet(rng);
    split::SplitModel model(*net, split::conv_cut_points(*net).front());
    const Shape act = model.activation_shape(Shape({1, 28, 28}));
    const Shape per_sample({act[1], act[2], act[3]});
    core::NoiseCollection collection;
    for (int i = 0; i < 2; ++i) {
        core::NoiseSample s;
        s.noise = Tensor::laplace(per_sample, rng, 0.0f, 1.0f);
        collection.add(std::move(s));
    }
    ServingEngine engine;
    EndpointConfig ep;
    ep.max_batch = 4;
    ep.batch_timeout_ms = 0.2;
    engine.register_endpoint(
        "conv0", model, std::make_shared<ReplayPolicy>(collection, 0xFACE),
        ep);
    net::Server server(engine);

    {
        net::Client client("127.0.0.1", server.port());
        const Tensor nan_frame = Tensor::full(
            per_sample, std::numeric_limits<float>::quiet_NaN());
        const Tensor answer = client.infer("conv0", nan_frame, 1);
        EXPECT_EQ(answer.shape().rank(), 1);
        EXPECT_GT(answer.size(), 0);
    }
    net::Client client("127.0.0.1", server.port());
    const Tensor activation = Tensor::normal(per_sample, rng);
    const Tensor wire = client.infer("conv0", activation, 2);
    const Tensor direct = engine.submit("conv0", activation, 2).get();
    ASSERT_EQ(wire.shape().to_string(), direct.shape().to_string());
    EXPECT_EQ(std::memcmp(wire.data(), direct.data(),
                          sizeof(float) * static_cast<std::size_t>(
                                              wire.size())),
              0);
}

TEST(NetServer, ColdStartBundleEndpointServesOverWire)
{
    Fixture fx;
    // Ship the fixture's artifacts as a bundle and cold-start a second
    // endpoint from disk — the full train→ship→serve→wire loop.
    const core::NoiseDistribution dist =
        core::NoiseDistribution::fit(fx.collection);
    deploy::BundleContents contents;
    contents.network = fx.net.get();
    contents.cut = fx.cut;
    contents.input_shape = Shape({1, 28, 28});
    contents.policy.kind = deploy::PolicyKind::kReplay;
    contents.policy.seed = 0xFACE;
    contents.collection = &fx.collection;
    contents.distribution = &dist;
    const std::string path = ::testing::TempDir() + "net-coldstart.shb";
    deploy::save_bundle(path, contents);
    fx.engine->register_endpoint_from_bundle("bundled", path);

    net::Client client("127.0.0.1", fx.server->port());
    for (std::uint64_t id = 100; id < 104; ++id) {
        const Tensor activation = fx.sample_activation();
        const Tensor wire = client.infer("bundled", activation, id);
        const Tensor direct =
            fx.engine->submit("bundled", activation, id).get();
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(wire, direct), 0.0) << id;
    }
    std::remove(path.c_str());
}

TEST(NetServer, ConcurrentClientsEachBitExact)
{
    Fixture fx;
    constexpr int kClients = 4;
    constexpr std::uint64_t kPerClient = 8;

    // Each thread owns a connection and a disjoint id range; every
    // response must match the in-process result for ITS id — under
    // concurrency the id→noise binding is what keeps replies from
    // crossing wires.
    std::vector<std::thread> threads;
    std::vector<std::string> failures(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&fx, &failures, c] {
            try {
                Rng rng(1000 + static_cast<std::uint64_t>(c));
                net::Client client("127.0.0.1", fx.server->port());
                for (std::uint64_t i = 0; i < kPerClient; ++i) {
                    const std::uint64_t id =
                        static_cast<std::uint64_t>(c) * kPerClient + i;
                    const Tensor activation =
                        Tensor::normal(fx.per_sample(), rng);
                    const Tensor wire =
                        client.infer("lenet", activation, id);
                    const Tensor direct =
                        fx.engine->submit("lenet", activation, id).get();
                    if (ops::max_abs_diff(wire, direct) != 0.0) {
                        failures[static_cast<std::size_t>(c)] =
                            "mismatch at id " + std::to_string(id);
                        return;
                    }
                }
            } catch (const std::exception& e) {
                failures[static_cast<std::size_t>(c)] = e.what();
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    for (int c = 0; c < kClients; ++c) {
        EXPECT_TRUE(failures[static_cast<std::size_t>(c)].empty())
            << "client " << c << ": "
            << failures[static_cast<std::size_t>(c)];
    }
    EXPECT_EQ(fx.server->stats().frames_served,
              static_cast<std::int64_t>(kClients) *
                  static_cast<std::int64_t>(kPerClient));
}

TEST(NetServer, PipelinedRequestsAnswerInOrderWithIds)
{
    Fixture fx;
    net::Client client("127.0.0.1", fx.server->port());
    constexpr std::uint64_t kInFlight = 16;
    std::vector<Tensor> sent;
    for (std::uint64_t id = 0; id < kInFlight; ++id) {
        sent.push_back(fx.sample_activation());
        client.send("lenet", sent.back(), id);
    }
    for (std::uint64_t id = 0; id < kInFlight; ++id) {
        const net::Response response = client.recv();
        ASSERT_EQ(response.status, net::WireStatus::kOk);
        EXPECT_EQ(response.request_id, id);  // FIFO per connection
        const Tensor direct =
            fx.engine->submit("lenet", sent[id], id).get();
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(response.output, direct), 0.0);
    }
}

// -- Front door: one readiness loop --------------------------------------

/** Threads in this process right now (`/proc/self/task` entries). */
std::ptrdiff_t
thread_count()
{
    return std::distance(
        std::filesystem::directory_iterator("/proc/self/task"),
        std::filesystem::directory_iterator());
}

/** A request frame for `activation` under `id`. */
std::string
request_frame(const Tensor& activation, std::uint64_t id,
              const std::string& endpoint = "lenet")
{
    net::Request request;
    request.request_id = id;
    request.endpoint = endpoint;
    request.activation = activation;
    return net::encode_request(request);
}

/** True once `socket` has bytes or EOF to read, within `ms`. */
bool
readable_within(const net::Socket& socket, int ms)
{
    pollfd ready{};
    ready.fd = socket.fd();
    ready.events = POLLIN;
    return ::poll(&ready, 1, ms) == 1;
}

/** Read one response off a raw socket; it must answer `id` bit-exactly. */
void
expect_answer(Fixture& fx, net::Socket& socket, const Tensor& activation,
              std::uint64_t id)
{
    std::string payload;
    ASSERT_TRUE(net::read_frame(socket, net::kResponseMagic, &payload));
    const net::Response response = net::decode_response_payload(payload);
    ASSERT_EQ(response.status, net::WireStatus::kOk) << response.message;
    EXPECT_EQ(response.request_id, id);
    const Tensor direct = fx.engine->submit("lenet", activation, id).get();
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(response.output, direct), 0.0) << id;
}

TEST(NetServer, PipelineBeyondInflightBoundIsAnsweredInFifoOrder)
{
    Fixture fx;
    net::ServerConfig config;
    config.max_inflight_per_connection = 4;
    net::Server bounded(*fx.engine, config);
    net::Client client("127.0.0.1", bounded.port());

    // Sixteen times the bound, all sent before any answer is read: the
    // server stops reading at four unanswered frames and resumes as
    // answers drain, and must neither drop nor reorder one.
    constexpr std::uint64_t kFrames = 64;
    std::vector<Tensor> sent;
    for (std::uint64_t id = 0; id < kFrames; ++id) {
        sent.push_back(fx.sample_activation());
        client.send("lenet", sent.back(), id);
    }
    for (std::uint64_t id = 0; id < kFrames; ++id) {
        const net::Response response = client.recv();
        ASSERT_EQ(response.status, net::WireStatus::kOk) << response.message;
        EXPECT_EQ(response.request_id, id);  // FIFO per connection
        const Tensor direct =
            fx.engine->submit("lenet", sent[id], id).get();
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(response.output, direct), 0.0)
            << id;
    }
    EXPECT_EQ(bounded.stats().frames_served,
              static_cast<std::int64_t>(kFrames));
}

/**
 * Shrink the send buffer of the listening socket on `port`, found
 * among this process's descriptors. Accepted sockets inherit it, so the
 * server's answers back up into a kernel buffer small enough to fill.
 */
void
shrink_listener_send_buffer(std::uint16_t port, int bytes)
{
    for (int fd = 0; fd < 4096; ++fd) {
        sockaddr_in addr{};
        socklen_t addr_len = sizeof(addr);
        int listening = 0;
        socklen_t flag_len = sizeof(listening);
        if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len) == 0 &&
            addr.sin_family == AF_INET && ntohs(addr.sin_port) == port &&
            ::getsockopt(fd, SOL_SOCKET, SO_ACCEPTCONN, &listening,
                         &flag_len) == 0 &&
            listening != 0) {
            ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes,
                                   sizeof(bytes)),
                      0);
            return;
        }
    }
    FAIL() << "no listening socket on port " << port;
}

TEST(NetServer, ReaderThatFallsBehindGetsEveryAnswerInOrder)
{
    Fixture fx;
    shrink_listener_send_buffer(fx.server->port(), 4096);
    net::Socket socket =
        net::Socket::connect("127.0.0.1", fx.server->port());

    // The client sends thousands of frames but reads nothing for a
    // while: answers fill the kernel's buffers, the server must keep
    // the rest until the socket drains (EPOLLOUT) and stop reading at
    // its in-flight bound meanwhile, then deliver all of them in order.
    constexpr std::uint64_t kFrames = 4000;
    const Tensor activation = fx.sample_activation();
    std::string frames;
    for (std::uint64_t id = 0; id < kFrames; ++id) {
        frames += request_frame(activation, id);
    }
    std::thread sender(
        [&socket, &frames] { socket.send_all(frames.data(), frames.size()); });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    std::uint64_t in_order = 0;
    std::string payload;
    while (in_order < kFrames &&
           net::read_frame(socket, net::kResponseMagic, &payload)) {
        const net::Response response = net::decode_response_payload(payload);
        if (response.status != net::WireStatus::kOk ||
            response.request_id != in_order) {
            break;
        }
        ++in_order;
    }
    if (in_order < kFrames) {
        socket.shutdown_both();  // unblock the sender before joining
    }
    sender.join();
    ASSERT_EQ(in_order, kFrames);

    const std::string last = request_frame(activation, kFrames);
    socket.send_all(last.data(), last.size());
    expect_answer(fx, socket, activation, kFrames);
}

TEST(NetServer, IdleConnectionsAddNoThreads)
{
    Fixture fx;
    expect_still_serving(fx, 1);  // every lazily started thread is up
    const std::ptrdiff_t before = thread_count();

    constexpr std::int64_t kIdle = 256;
    std::vector<net::Socket> idle;
    for (std::int64_t i = 0; i < kIdle; ++i) {
        idle.push_back(net::Socket::connect("127.0.0.1", fx.server->port()));
    }
    for (int wait = 0;
         wait < 5000 && fx.server->stats().connections_accepted < kIdle + 1;
         ++wait) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(fx.server->stats().connections_accepted, kIdle + 1);
    EXPECT_GE(fx.server->stats().connections_active, kIdle);
    // One loop thread serves them all: no thread per connection.
    EXPECT_EQ(thread_count(), before);
    // And a real client is still answered among them.
    expect_still_serving(fx, 2);
}

TEST(NetServer, DisconnectWithRequestsInFlightKeepsServing)
{
    Fixture fx;
    {
        net::Client client("127.0.0.1", fx.server->port());
        for (std::uint64_t id = 0; id < 16; ++id) {
            client.send("lenet", fx.sample_activation(), id);
        }
        client.close();  // gone with up to 16 answers still owed
    }
    expect_still_serving(fx, 100);
    // Owed answers complete against a dead link; stop() must still
    // return once they have.
    fx.server->stop();
}

TEST(NetServer, FramesSplitIntoBytesOrCoalescedAreAnswered)
{
    Fixture fx;
    net::Socket socket =
        net::Socket::connect("127.0.0.1", fx.server->port());

    // One frame dribbled a byte per send (Nagle is off, so each byte is
    // its own segment): the loop reassembles it across many reads.
    const Tensor single = fx.sample_activation();
    const std::string frame = request_frame(single, 1);
    for (const char byte : frame) {
        socket.send_all(&byte, 1);
    }
    expect_answer(fx, socket, single, 1);

    // Eight frames in one send: the loop cuts all of them out of the
    // same buffer and answers each, in order.
    std::vector<Tensor> burst_acts;
    std::string burst;
    for (std::uint64_t id = 10; id < 18; ++id) {
        burst_acts.push_back(fx.sample_activation());
        burst += request_frame(burst_acts.back(), id);
    }
    socket.send_all(burst.data(), burst.size());
    for (std::uint64_t id = 10; id < 18; ++id) {
        expect_answer(fx, socket, burst_acts[id - 10], id);
    }
}

TEST(NetServer, BurstPastTheBoundThenHalfCloseIsFullyAnswered)
{
    Fixture fx;
    // Each request ships the moment it arrives, so answers come back
    // while the loop is still between cutting frames and pausing its
    // reads: the window in which a resume can be lost.
    EndpointConfig now;
    now.max_batch = 1;
    now.batch_timeout_ms = 0.0;
    fx.engine->register_endpoint(
        "now", fx.model,
        std::make_shared<ReplayPolicy>(fx.collection, 0xFACE), now);
    const Tensor activation = fx.sample_activation();

    for (const std::int64_t bound : {1, 2}) {
        net::ServerConfig config;
        config.max_inflight_per_connection = bound;
        net::Server bounded(*fx.engine, config);
        for (int round = 0; round < 100; ++round) {
            // Two to four times the bound in one send, then the write
            // side closes: every whole frame already sent is owed an
            // answer, in order, before the server's EOF.
            const auto frames =
                static_cast<std::uint64_t>(bound * (2 + round % 3));
            std::string burst;
            for (std::uint64_t id = 0; id < frames; ++id) {
                burst += request_frame(activation, id, "now");
            }
            net::Socket socket =
                net::Socket::connect("127.0.0.1", bounded.port());
            socket.send_all(burst.data(), burst.size());
            socket.shutdown_send();

            std::uint64_t answered = 0;
            std::string payload;
            while (readable_within(socket, 10000) &&
                   net::read_frame(socket, net::kResponseMagic, &payload)) {
                const net::Response response =
                    net::decode_response_payload(payload);
                ASSERT_EQ(response.status, net::WireStatus::kOk)
                    << response.message;
                ASSERT_EQ(response.request_id, answered);
                ++answered;
            }
            ASSERT_EQ(answered, frames)
                << "bound " << bound << ", round " << round;
        }
    }
}

// -- Quantized wire path --------------------------------------------------

TEST(NetServer, Int8WireMatchesInProcessQuantizedSubmit)
{
    Fixture fx;
    net::Client client("127.0.0.1", fx.server->port());

    // An int8 request and ServingEngine::submit_quantized with the
    // same codec bytes must agree bit-for-bit: quantization is
    // deterministic, so the client-side encode and the in-process
    // encode produce the same payload, and transport adds nothing.
    for (std::uint64_t id = 0; id < 6; ++id) {
        const Tensor activation = fx.sample_activation();
        const Tensor wire =
            client.infer("lenet", activation, id, WireDtype::kI8);
        const Tensor direct =
            fx.engine
                ->submit_quantized("lenet",
                                   quantize(activation, WireDtype::kI8),
                                   id)
                .get();
        ASSERT_EQ(wire.shape().to_string(), direct.shape().to_string());
        EXPECT_DOUBLE_EQ(ops::max_abs_diff(wire, direct), 0.0) << id;

        // And the codec error stays small relative to the fp32 path —
        // the endpoint is the same mechanism either way.
        const Tensor fp32 =
            fx.engine->submit("lenet", activation, id).get();
        EXPECT_LT(ops::max_abs_diff(wire, fp32), 0.5) << id;
    }
    EXPECT_GE(fx.engine->stats("lenet").quantized_requests, 6);
}

TEST(NetServer, Int8DirectComputeEndpointServesOverWire)
{
    Fixture fx;
    // Same model/policy, but the endpoint consumes quantized
    // activations directly in the int8 GEMM (no fp32 activation is
    // materialized before the cut layer).
    EndpointConfig ep;
    ep.max_batch = 4;
    ep.batch_timeout_ms = 0.2;
    ep.wire_dtype = WireDtype::kI8;
    ep.int8_compute = true;
    fx.engine->register_endpoint(
        "lenet8", fx.model,
        std::make_shared<ReplayPolicy>(fx.collection, 0xFACE), ep);

    net::Client client("127.0.0.1", fx.server->port());
    for (std::uint64_t id = 0; id < 6; ++id) {
        const Tensor activation = fx.sample_activation();
        const Tensor direct_gemm =
            client.infer("lenet8", activation, id, WireDtype::kI8);
        const Tensor fp32 =
            fx.engine->submit("lenet", activation, id).get();
        ASSERT_EQ(direct_gemm.shape().to_string(),
                  fp32.shape().to_string());
        EXPECT_LT(ops::max_abs_diff(direct_gemm, fp32), 0.5) << id;
    }
    const runtime::ServerStats stats = fx.engine->stats("lenet8");
    EXPECT_EQ(stats.quantized_requests, 6);
    EXPECT_GE(stats.int8_direct_batches, 1);
}

TEST(NetProtocol, EnvelopeVersionIsLowestThatCarriesThePayload)
{
    Fixture fx;
    const Tensor activation = fx.sample_activation();

    // fp32 requests and ALL responses stay version 1 bit-for-bit, so
    // old peers never see a version bump they don't need; only frames
    // that actually carry quantized bytes stamp version 2.
    auto version_of = [](const std::string& frame) {
        std::uint32_t v = 0;
        std::memcpy(&v, frame.data() + 4, sizeof(v));
        return v;
    };
    net::Request request;
    request.request_id = 1;
    request.endpoint = "lenet";
    request.activation = activation;
    EXPECT_EQ(version_of(net::encode_request(request)), 1u);

    request.quantized = quantize(activation, WireDtype::kI8);
    request.is_quantized = true;
    EXPECT_EQ(version_of(net::encode_request(request)), 2u);

    net::Response response;
    response.request_id = 1;
    response.status = net::WireStatus::kOk;
    response.output = activation;
    EXPECT_EQ(version_of(net::encode_response(response)), 1u);
}

// -- Typed per-request failures keep the connection alive -----------------

TEST(NetServer, UnknownEndpointIsTypedAndConnectionSurvives)
{
    Fixture fx;
    net::Client client("127.0.0.1", fx.server->port());
    try {
        client.infer("nope", fx.sample_activation(), 1);
        ADD_FAILURE() << "expected kUnknownEndpoint";
    } catch (const ServingError& e) {
        EXPECT_EQ(e.code(), ServingErrorCode::kUnknownEndpoint) << e.what();
    }
    // SAME connection keeps working: a bad request is the client's
    // problem, not the link's.
    const Tensor logits = client.infer("lenet", fx.sample_activation(), 2);
    EXPECT_GT(logits.size(), 0);
}

TEST(NetServer, WrongTensorShapeIsTypedAndConnectionSurvives)
{
    Fixture fx;
    net::Client client("127.0.0.1", fx.server->port());
    try {
        client.infer("lenet", Tensor::normal(Shape({3}), fx.rng), 1);
        ADD_FAILURE() << "expected kInvalidShape";
    } catch (const ServingError& e) {
        EXPECT_EQ(e.code(), ServingErrorCode::kInvalidShape) << e.what();
    }
    const Tensor logits = client.infer("lenet", fx.sample_activation(), 2);
    EXPECT_GT(logits.size(), 0);
}

// -- Trust-boundary sweep: hostile byte streams ---------------------------

/**
 * Send `bytes` on a raw socket, then expect a best-effort SHRP
 * `kProtocolError` response followed by the server closing the stream.
 */
void
expect_protocol_error_response(Fixture& fx, const std::string& bytes)
{
    net::Socket socket = net::Socket::connect("127.0.0.1",
                                              fx.server->port());
    socket.send_all(bytes.data(), bytes.size());
    std::string payload;
    ASSERT_TRUE(net::read_frame(socket, net::kResponseMagic, &payload));
    const net::Response response = net::decode_response_payload(payload);
    EXPECT_EQ(response.status, net::WireStatus::kProtocolError)
        << response.message;
    // The server ends a connection it can no longer frame-align.
    char byte;
    EXPECT_EQ(socket.recv_some(&byte, 1), 0u);
}

TEST(NetServer, BadMagicGetsTypedErrorAndServerSurvives)
{
    Fixture fx;
    std::string frame = fx.valid_frame(7);
    frame[0] = 'X';  // corrupt the magic
    expect_protocol_error_response(fx, frame);
    expect_still_serving(fx, 8);
    EXPECT_GE(fx.server->stats().protocol_errors, 1);
}

TEST(NetServer, FutureVersionIsRejectedTyped)
{
    Fixture fx;
    std::string frame = fx.valid_frame(7);
    frame[4] = 99;  // version u32 LE: far beyond kProtocolVersion
    expect_protocol_error_response(fx, frame);
    expect_still_serving(fx, 8);
}

TEST(NetServer, OversizeLengthPrefixIsRejectedBeforeAllocation)
{
    Fixture fx;
    std::string frame = fx.valid_frame(7);
    // payload_len u32 LE at offset 8: claim ~3.2 GiB. The reader must
    // reject against kMaxFramePayload instead of trying to allocate.
    frame[8] = static_cast<char>(0xFF);
    frame[9] = static_cast<char>(0xFF);
    frame[10] = static_cast<char>(0xFF);
    frame[11] = static_cast<char>(0xBF);
    expect_protocol_error_response(fx, frame);
    expect_still_serving(fx, 8);
}

TEST(NetServer, LyingPayloadIsRejectedTyped)
{
    Fixture fx;
    // Valid envelope, garbage payload: the length prefix is honest but
    // the bytes inside are not a (id, endpoint, tensor) triple.
    std::string frame = fx.valid_frame(7);
    for (std::size_t i = 12; i < frame.size(); ++i) {
        frame[i] = static_cast<char>(0xAB);
    }
    expect_protocol_error_response(fx, frame);
    expect_still_serving(fx, 8);
}

TEST(NetServer, LyingTensorHeaderAllocatesNoMoreThanTheFrame)
{
    // A 41-byte payload whose tensor header declares 32768 x 32767 fp32
    // (4 GiB, under the element-count cap) and brings no data. It is
    // decoded on the loop thread, so the decoder must see that the
    // frame cannot hold the payload before it allocates for it.
    std::ostringstream payload(std::ios::binary);
    wire::write_u64(payload, 7);
    wire::write_string(payload, "lenet");
    wire::write_u32(payload, 0x54524853);  // 'SHRT'
    wire::write_u32(payload, 2);           // rank
    wire::write_u64(payload, 32768);
    wire::write_u64(payload, 32767);
    const std::string bytes = payload.str();
    ASSERT_EQ(bytes.size(), 41u);
    {
        const test::LargestAllocation probe;
        try {
            net::decode_request_payload(bytes);
            ADD_FAILURE() << "expected kProtocol";
        } catch (const ServingError& e) {
            EXPECT_EQ(e.code(), ServingErrorCode::kProtocol) << e.what();
        }
        // Nothing is allocated for the payload; the error message is
        // the largest thing built.
        EXPECT_LT(probe.bytes(), 1024u);
    }

    Fixture fx;
    std::ostringstream frame(std::ios::binary);
    wire::write_u32(frame, net::kRequestMagic);
    wire::write_u32(frame, 1);
    wire::write_u32(frame, static_cast<std::uint32_t>(bytes.size()));
    expect_protocol_error_response(fx, frame.str() + bytes);
    expect_still_serving(fx, 8);
}

TEST(NetServer, TruncationSweepNeverKillsServer)
{
    Fixture fx;
    const std::string frame = fx.valid_frame(7);
    // Disconnect after every possible prefix of a valid frame — every
    // cut is either a clean between-frames close (0 bytes) or a
    // mid-frame disconnect; none may crash the server or wedge the
    // acceptor. Stride through the tensor body to keep the sweep fast
    // while still hitting every envelope/header boundary byte.
    std::vector<std::size_t> cuts;
    for (std::size_t len = 0; len <= 32 && len < frame.size(); ++len) {
        cuts.push_back(len);
    }
    for (std::size_t len = 33; len < frame.size(); len += 97) {
        cuts.push_back(len);
    }
    cuts.push_back(frame.size() - 1);
    for (const std::size_t len : cuts) {
        net::Socket socket = net::Socket::connect("127.0.0.1",
                                                  fx.server->port());
        socket.send_all(frame.data(), len);
        socket.close();  // mid-frame disconnect (or clean when len==0)
    }
    expect_still_serving(fx, 8);
}

TEST(NetServer, CleanCloseBetweenFramesIsGraceful)
{
    Fixture fx;
    {
        // Connect, say nothing, leave: a clean close, not an error.
        net::Socket socket = net::Socket::connect("127.0.0.1",
                                                  fx.server->port());
        socket.shutdown_send();
        char byte;
        EXPECT_EQ(socket.recv_some(&byte, 1), 0u);
    }
    {
        // One good frame, then a clean close after the response.
        net::Client client("127.0.0.1", fx.server->port());
        const Tensor logits =
            client.infer("lenet", fx.sample_activation(), 3);
        EXPECT_GT(logits.size(), 0);
    }
    expect_still_serving(fx, 4);
    EXPECT_EQ(fx.server->stats().protocol_errors, 0);
}

TEST(NetServer, StopAnswersInFlightAndRefusesNew)
{
    Fixture fx;
    net::Client client("127.0.0.1", fx.server->port());
    const Tensor logits = client.infer("lenet", fx.sample_activation(), 1);
    EXPECT_GT(logits.size(), 0);
    fx.server->stop();
    // The old connection is gone and new ones are refused.
    EXPECT_THROW(net::Socket::connect("127.0.0.1", fx.server->port()),
                 ServingError);
    // stop() is idempotent.
    fx.server->stop();
}

/** CPU seconds this process has used, over all its threads. */
double
process_cpu_seconds()
{
    timespec now{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) +
           1e-9 * static_cast<double>(now.tv_nsec);
}

TEST(NetServer, OutOfDescriptorsPausesAcceptInsteadOfSpinning)
{
    Fixture fx;
    // The client's descriptor is made while there are some to spare;
    // it connects once the server can no longer accept.
    net::Socket socket(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    ASSERT_TRUE(socket.valid());
    // With the limit at the lowest free descriptor number, every number
    // below it is taken, so no new descriptor can be made.
    const int lowest_free = ::dup(socket.fd());
    ASSERT_GE(lowest_free, 0);
    ::close(lowest_free);
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    rlimit tight = saved;
    tight.rlim_cur = static_cast<rlim_t>(lowest_free);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(fx.server->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    // The kernel completes the handshake into the accept queue.
    const int connected = ::connect(
        socket.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    const double cpu_before = process_cpu_seconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const double cpu_spent = process_cpu_seconds() - cpu_before;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
    ASSERT_EQ(connected, 0);
    EXPECT_EQ(fx.server->stats().connections_accepted, 0);
    EXPECT_LT(cpu_spent, 0.050)
        << "the loop spins on a listener it cannot accept from";

    // Descriptors are back: the pending client is accepted and answered.
    const Tensor activation = fx.sample_activation();
    const std::string frame = request_frame(activation, 5);
    socket.send_all(frame.data(), frame.size());
    ASSERT_TRUE(readable_within(socket, 5000));
    expect_answer(fx, socket, activation, 5);
}

TEST(NetClient, ConnectionRefusedIsTypedNetwork)
{
    // A listener bound then immediately closed: the port is known-dead.
    std::uint16_t dead_port;
    {
        net::Listener probe("127.0.0.1", 0);
        dead_port = probe.port();
    }
    try {
        net::Client client("127.0.0.1", dead_port);
        ADD_FAILURE() << "expected kNetwork";
    } catch (const ServingError& e) {
        EXPECT_EQ(e.code(), ServingErrorCode::kNetwork) << e.what();
    }
}

}  // namespace
}  // namespace shredder
