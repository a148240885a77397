/**
 * @file
 * `shredder_serve` — cold-start a multi-endpoint `ServingEngine` from
 * deployment artifacts on disk, with zero application code.
 *
 * This is the serve side of the paper's train→ship→serve loop: the
 * trainer wrote a bundle (`save_bundle`, or
 * `examples/edge_cloud_demo trainer`), someone shipped it, and this
 * process only ever loads and serves it. Endpoints come from a text
 * manifest or from `--endpoint name=bundle` pairs:
 *
 *   shredder_serve deploy/manifest.txt
 *   shredder_serve --endpoint lenet=deploy/lenet.shb --queries 16
 *
 * After registration the tool prints an endpoint table and (unless
 * `--list`) drives a self-test stream through every endpoint: random
 * inputs of the bundle's recorded input shape run the edge half
 * locally, and the activations are submitted to the engine, which
 * applies the bundled noise policy and finishes the inference. That
 * exercises the exact code path a real deployment serves.
 *
 * With `--listen host:port` the tool instead becomes the network
 * front door: after the endpoint table it starts a `net::Server`
 * speaking the SHRQ/SHRP activation protocol (src/net/protocol.h) and
 * serves until SIGINT/SIGTERM. `--port-file` writes the bound port to
 * a file once listening (for scripts using an ephemeral `:0` port).
 *
 * Exit status: 0 on success, 1 on a serving/load error (typed
 * `ServingError` — a malformed bundle fails the load, never aborts
 * the process), 2 on a usage error.
 */
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/shredder/shredder.h"

namespace {

using namespace shredder;

int
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <manifest> [options]\n"
        "       %s --endpoint <name>=<bundle> [--endpoint ...] [options]\n"
        "\n"
        "Cold-start a multi-endpoint ServingEngine from deployment\n"
        "bundles (see docs/DEPLOYMENT.md for the formats).\n"
        "\n"
        "options:\n"
        "  --endpoint name=path  register one bundle (repeatable)\n"
        "  --shards N            pool shards endpoints are placed on,\n"
        "                        1..1024 (default 1; manifest key\n"
        "                        shard= pins)\n"
        "  --threads-per-shard N worker threads per shard, 1..4096\n"
        "                        (default 1); the serving threads are\n"
        "                        shards x threads-per-shard\n"
        "  --queries N           self-test queries per endpoint "
        "(default 8)\n"
        "  --seed N              RNG seed of the self-test inputs\n"
        "  --list                load + list endpoints, skip the "
        "self-test\n"
        "  --listen host:port    serve the SHRQ/SHRP wire protocol on\n"
        "                        a TCP socket until SIGINT/SIGTERM\n"
        "                        (port 0 = kernel-assigned)\n"
        "  --port-file path      write the bound port to this file once\n"
        "                        listening (useful with port 0)\n"
        "\n"
        "With --listen, plain HTTP 'GET /metrics' on the same port\n"
        "answers a Prometheus text scrape of the serving process.\n",
        argv0, argv0);
    return 2;
}

/**
 * Split "host:port" at the LAST colon (the host is a numeric IPv4
 * address or name, never containing one). Returns false on a missing
 * colon or a port outside [0, 65535].
 */
bool
parse_listen(const std::string& spec, std::string* host, std::uint16_t* port)
{
    const auto colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0) {
        return false;
    }
    char* end = nullptr;
    const long value = std::strtol(spec.c_str() + colon + 1, &end, 10);
    if (end == spec.c_str() + colon + 1 || *end != '\0' || value < 0 ||
        value > 65535) {
        return false;
    }
    *host = spec.substr(0, colon);
    *port = static_cast<std::uint16_t>(value);
    return true;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string manifest;
    std::vector<std::pair<std::string, std::string>> direct;  // name→path
    std::int64_t queries = 8;
    std::uint64_t seed = 7;
    long shards = 1;
    long threads_per_shard = 1;
    bool list_only = false;
    bool listen = false;
    std::string listen_host;
    std::uint16_t listen_port = 0;
    std::string port_file;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--endpoint") {
            if (i + 1 >= argc) {
                return usage(argv[0]);
            }
            const std::string pair = argv[++i];
            const auto eq = pair.find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 == pair.size()) {
                std::fprintf(stderr, "bad --endpoint '%s'\n",
                             pair.c_str());
                return usage(argv[0]);
            }
            direct.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
        } else if (arg == "--shards") {
            if (i + 1 >= argc) {
                return usage(argv[0]);
            }
            shards = std::atol(argv[++i]);
            if (shards < 1 || shards > 1024) {
                std::fprintf(stderr, "--shards wants 1..1024\n");
                return usage(argv[0]);
            }
        } else if (arg == "--threads-per-shard") {
            if (i + 1 >= argc) {
                return usage(argv[0]);
            }
            threads_per_shard = std::atol(argv[++i]);
            if (threads_per_shard < 1 || threads_per_shard > 4096) {
                std::fprintf(stderr, "--threads-per-shard wants 1..4096\n");
                return usage(argv[0]);
            }
        } else if (arg == "--queries") {
            if (i + 1 >= argc) {
                return usage(argv[0]);
            }
            queries = std::atoll(argv[++i]);
            if (queries <= 0) {
                return usage(argv[0]);
            }
        } else if (arg == "--seed") {
            if (i + 1 >= argc) {
                return usage(argv[0]);
            }
            seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--listen") {
            if (i + 1 >= argc ||
                !parse_listen(argv[i + 1], &listen_host, &listen_port)) {
                std::fprintf(stderr, "bad --listen spec (want host:port)\n");
                return usage(argv[0]);
            }
            ++i;
            listen = true;
        } else if (arg == "--port-file") {
            if (i + 1 >= argc) {
                return usage(argv[0]);
            }
            port_file = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return usage(argv[0]);
        } else if (manifest.empty()) {
            manifest = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (manifest.empty() && direct.empty()) {
        return usage(argv[0]);
    }

    // Listen mode shuts down on SIGINT/SIGTERM via sigwait. The mask
    // must be in place BEFORE any thread exists (the engine spawns its
    // worker pool at construction; threads inherit the mask) or the
    // kernel may deliver the signal to a worker with the default
    // disposition and kill the process instead.
    sigset_t mask;
    sigemptyset(&mask);
    sigaddset(&mask, SIGINT);
    sigaddset(&mask, SIGTERM);
    if (listen) {
        pthread_sigmask(SIG_BLOCK, &mask, nullptr);
    }

    runtime::ServingEngineConfig engine_config;
    engine_config.shards = static_cast<unsigned>(shards);
    engine_config.threads_per_shard =
        static_cast<unsigned>(threads_per_shard);
    runtime::ServingEngine engine(engine_config);
    try {
        if (!manifest.empty()) {
            std::printf("loading manifest %s\n", manifest.c_str());
            engine.register_endpoints_from_manifest(manifest);
        }
        for (const auto& [name, path] : direct) {
            std::printf("loading bundle %s as endpoint '%s'\n",
                        path.c_str(), name.c_str());
            engine.register_endpoint_from_bundle(name, path);
        }
    } catch (const runtime::ServingError& e) {
        std::fprintf(stderr, "cold-start failed: %s\n", e.what());
        return 1;
    }

    const std::vector<std::string> names = engine.endpoint_names();
    std::printf("\n%-12s %-7s %6s %5s %-14s %-14s %-5s %-7s\n", "endpoint",
                "policy", "layers", "cut", "input", "activation", "wire",
                "shard");
    for (const std::string& name : names) {
        const deploy::Bundle* bundle = engine.bundle(name);
        // Every endpoint of this tool is bundle-backed.
        std::printf("%-12s %-7s %6lld %5lld %-14s %-14s %-5s %-7s\n",
                    name.c_str(), engine.policy(name).name().c_str(),
                    static_cast<long long>(bundle->network().size()),
                    static_cast<long long>(bundle->cut()),
                    bundle->input_shape().to_string().c_str(),
                    bundle->activation_shape().to_string().c_str(),
                    to_string(engine.wire_dtype(name)),
                    engine.shard_of(name).c_str());
    }
    const deploy::WeightRegistryStats registry =
        engine.weight_registry_stats();
    if (registry.weights_dedupe_bytes > 0) {
        std::printf("weight registry: %lld networks interned, %lld "
                    "unique, %lld bytes deduplicated\n",
                    static_cast<long long>(registry.interned_networks),
                    static_cast<long long>(registry.unique_weight_sets),
                    static_cast<long long>(registry.weights_dedupe_bytes));
    }
    if (list_only) {
        return 0;
    }

    if (listen) {
        try {
            net::ServerConfig server_config;
            server_config.host = listen_host;
            server_config.port = listen_port;
            net::Server server(engine, server_config);
            std::printf("\nlistening on %s:%u (SHRQ/SHRP v%u)\n",
                        listen_host.c_str(), server.port(),
                        net::kProtocolVersion);
            if (!port_file.empty()) {
                std::FILE* f = std::fopen(port_file.c_str(), "w");
                if (f == nullptr) {
                    std::fprintf(stderr, "cannot write port file %s\n",
                                 port_file.c_str());
                    return 1;
                }
                std::fprintf(f, "%u\n", server.port());
                std::fclose(f);
            }
            std::fflush(stdout);

            int sig = 0;
            sigwait(&mask, &sig);
            std::printf("signal %d: shutting down\n", sig);
            server.stop();
            const net::ServerNetStats net_stats = server.stats();
            const runtime::ServerStats stats = engine.stats();
            std::printf("served %lld frames over %lld connections "
                        "(%lld protocol errors), %lld requests in %lld "
                        "batches\n",
                        static_cast<long long>(net_stats.frames_served),
                        static_cast<long long>(
                            net_stats.connections_accepted),
                        static_cast<long long>(net_stats.protocol_errors),
                        static_cast<long long>(stats.requests),
                        static_cast<long long>(stats.batches));
        } catch (const runtime::ServingError& e) {
            std::fprintf(stderr, "listen failed: %s\n", e.what());
            return 1;
        }
        return 0;
    }

    // Self-test: run the edge half locally on random inputs, serve the
    // activations through the engine (which applies the bundled
    // policy), and report per-endpoint stats.
    std::printf("\nself-test: %lld queries per endpoint\n",
                static_cast<long long>(queries));
    Rng rng(seed);
    for (const std::string& name : names) {
        const deploy::Bundle* bundle = engine.bundle(name);
        nn::ExecutionContext edge_ctx;
        edge_ctx.set_retain_activations(false);
        double logit_norm = 0.0;
        try {
            for (std::int64_t q = 0; q < queries; ++q) {
                const Tensor x = Tensor::uniform(
                    bundle->batched_input_shape(), rng);
                const Tensor activation = engine.model(name).edge_forward(
                    x, edge_ctx, nn::Mode::kEval);
                const Tensor logits =
                    engine
                        .submit(name,
                                activation.reshaped(
                                    bundle->activation_shape()),
                                static_cast<std::uint64_t>(q))
                        .get();
                logit_norm += logits.norm();
            }
        } catch (const runtime::ServingError& e) {
            std::fprintf(stderr, "endpoint '%s' failed: %s\n",
                         name.c_str(), e.what());
            return 1;
        }
        const runtime::ServerStats stats = engine.stats(name);
        std::printf("endpoint %-12s ok: %lld requests in %lld batches, "
                    "%.3f ms mean batch exec, mean |logits| %.4f\n",
                    name.c_str(), static_cast<long long>(stats.requests),
                    static_cast<long long>(stats.batches),
                    stats.mean_batch_latency_ms(),
                    logit_norm / static_cast<double>(queries));
    }
    std::printf("cold-start serving self-test passed (%zu endpoints)\n",
                names.size());
    return 0;
}
