/**
 * @file
 * Implementation of the Prometheus text exposition (see header).
 */
#include "src/net/metrics.h"

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/net/server.h"

namespace shredder {
namespace net {

namespace {

using runtime::ServerStats;

/** One endpoint's snapshot, taken once per scrape. */
struct EndpointSnapshot
{
    std::string name;
    std::string shard;
    ServerStats stats;
};

/** Emit the `# HELP`/`# TYPE` preamble of one family. */
void
family(std::ostringstream& os, const char* name, const char* type,
       const char* help)
{
    os << "# HELP " << name << ' ' << help << '\n';
    os << "# TYPE " << name << ' ' << type << '\n';
}

/** One `name{endpoint="..."} value` sample line. */
template <typename Value>
void
sample(std::ostringstream& os, const char* name,
       const std::string& endpoint, Value value)
{
    os << name << "{endpoint=\"" << escape_label_value(endpoint) << "\"} "
       << value << '\n';
}

/** A whole per-endpoint counter/gauge family in one go. */
template <typename Getter>
void
endpoint_family(std::ostringstream& os,
                const std::vector<EndpointSnapshot>& endpoints,
                const char* name, const char* type, const char* help,
                Getter getter)
{
    family(os, name, type, help);
    for (const EndpointSnapshot& ep : endpoints) {
        sample(os, name, ep.name, getter(ep.stats));
    }
}

/**
 * The queue-wait histogram family. Internal buckets are "≤ 2^i µs"
 * with the last bucket absorbing overflow (ServerStats), which maps
 * exactly onto cumulative `le` buckets in seconds plus `+Inf`.
 */
void
queue_wait_family(std::ostringstream& os,
                  const std::vector<EndpointSnapshot>& endpoints)
{
    family(os, "shredder_queue_wait_seconds", "histogram",
           "Per-request queue wait before batch dispatch.");
    for (const EndpointSnapshot& ep : endpoints) {
        std::int64_t cumulative = 0;
        std::int64_t total = 0;
        for (int i = 0; i < ServerStats::kQueueWaitBuckets; ++i) {
            total += ep.stats.queue_wait_hist[i];
        }
        for (int i = 0; i < ServerStats::kQueueWaitBuckets - 1; ++i) {
            cumulative += ep.stats.queue_wait_hist[i];
            const double le = static_cast<double>(std::int64_t{1} << i) /
                              1e6;  // bucket bound: 2^i µs, in seconds
            os << "shredder_queue_wait_seconds_bucket{endpoint=\""
               << escape_label_value(ep.name) << "\",le=\"" << le
               << "\"} " << cumulative << '\n';
        }
        os << "shredder_queue_wait_seconds_bucket{endpoint=\""
           << escape_label_value(ep.name) << "\",le=\"+Inf\"} " << total
           << '\n';
        os << "shredder_queue_wait_seconds_sum{endpoint=\""
           << escape_label_value(ep.name) << "\"} "
           << ep.stats.queue_ms / 1000.0 << '\n';
        os << "shredder_queue_wait_seconds_count{endpoint=\""
           << escape_label_value(ep.name) << "\"} " << total << '\n';
    }
}

}  // namespace

std::string
escape_label_value(const std::string& value)
{
    std::string escaped;
    escaped.reserve(value.size());
    for (const char c : value) {
        switch (c) {
        case '\\': escaped += "\\\\"; break;
        case '"': escaped += "\\\""; break;
        case '\n': escaped += "\\n"; break;
        default: escaped += c; break;
        }
    }
    return escaped;
}

std::string
render_metrics(const runtime::ServingEngine& engine,
               const ServerNetStats& net)
{
    std::ostringstream os;
    // Full double round-trip precision: counters must never regress
    // between scrapes because of formatting truncation.
    os.precision(std::numeric_limits<double>::max_digits10);

    std::vector<EndpointSnapshot> endpoints;
    for (const std::string& name : engine.endpoint_names()) {
        EndpointSnapshot ep;
        ep.name = name;
        // A concurrent deregistration can race the name listing; skip
        // names that vanished rather than failing the whole scrape.
        try {
            ep.stats = engine.stats(name);
            ep.shard = engine.shard_of(name);
        } catch (const runtime::ServingError&) {
            continue;
        }
        endpoints.push_back(std::move(ep));
    }

    endpoint_family(os, endpoints, "shredder_requests_total", "counter",
                    "Requests completed.",
                    [](const ServerStats& s) { return s.requests; });
    endpoint_family(os, endpoints, "shredder_batches_total", "counter",
                    "Cloud-forward batches executed.",
                    [](const ServerStats& s) { return s.batches; });
    endpoint_family(os, endpoints, "shredder_busy_seconds_total",
                    "counter", "Total batch execution time.",
                    [](const ServerStats& s) { return s.busy_ms / 1000.0; });
    queue_wait_family(os, endpoints);
    endpoint_family(os, endpoints, "shredder_quantized_requests_total",
                    "counter",
                    "Requests that arrived in quantized wire encoding.",
                    [](const ServerStats& s) {
                        return s.quantized_requests;
                    });
    endpoint_family(os, endpoints, "shredder_int8_direct_batches_total",
                    "counter",
                    "Batches served by the int8 direct-consume GEMM path.",
                    [](const ServerStats& s) {
                        return s.int8_direct_batches;
                    });
    endpoint_family(os, endpoints, "shredder_rate_limited_total",
                    "counter",
                    "Submits rejected by the token-bucket rate limit.",
                    [](const ServerStats& s) { return s.rate_limited; });
    endpoint_family(os, endpoints, "shredder_admission_rejected_total",
                    "counter",
                    "Submits rejected by the in-flight cap.",
                    [](const ServerStats& s) {
                        return s.admission_rejected;
                    });
    endpoint_family(os, endpoints, "shredder_in_flight", "gauge",
                    "Requests admitted but not yet answered.",
                    [](const ServerStats& s) { return s.in_flight; });

    family(os, "shredder_endpoint_shard_info", "gauge",
           "Shard placement of each endpoint (value is always 1).");
    for (const EndpointSnapshot& ep : endpoints) {
        os << "shredder_endpoint_shard_info{endpoint=\""
           << escape_label_value(ep.name) << "\",shard=\""
           << escape_label_value(ep.shard) << "\"} 1\n";
    }

    const std::vector<runtime::ShardInfo> shards = engine.shard_info();
    family(os, "shredder_shard_threads", "gauge",
           "Worker threads in each pool shard.");
    for (const runtime::ShardInfo& shard : shards) {
        os << "shredder_shard_threads{shard=\""
           << escape_label_value(shard.name) << "\"} " << shard.threads
           << '\n';
    }
    family(os, "shredder_shard_endpoints", "gauge",
           "Endpoints placed on each pool shard.");
    for (const runtime::ShardInfo& shard : shards) {
        os << "shredder_shard_endpoints{shard=\""
           << escape_label_value(shard.name) << "\"} "
           << shard.endpoints.size() << '\n';
    }

    const deploy::WeightRegistryStats registry =
        engine.weight_registry_stats();
    family(os, "shredder_weights_interned_total", "counter",
           "Networks interned through the weight registry.");
    os << "shredder_weights_interned_total " << registry.interned_networks
       << '\n';
    family(os, "shredder_weights_unique_sets", "gauge",
           "Distinct weight sets the registry holds canonically.");
    os << "shredder_weights_unique_sets " << registry.unique_weight_sets
       << '\n';
    family(os, "shredder_weights_dedupe_bytes_total", "counter",
           "Parameter bytes saved by weight aliasing.");
    os << "shredder_weights_dedupe_bytes_total "
       << registry.weights_dedupe_bytes << '\n';

    family(os, "shredder_net_connections_accepted_total", "counter",
           "TCP connections accepted.");
    os << "shredder_net_connections_accepted_total "
       << net.connections_accepted << '\n';
    family(os, "shredder_net_connections_active", "gauge",
           "TCP connections currently open.");
    os << "shredder_net_connections_active " << net.connections_active
       << '\n';
    family(os, "shredder_net_frames_served_total", "counter",
           "SHRP response frames queued for sending (any status).");
    os << "shredder_net_frames_served_total " << net.frames_served << '\n';
    family(os, "shredder_net_protocol_errors_total", "counter",
           "Malformed frames survived.");
    os << "shredder_net_protocol_errors_total " << net.protocol_errors
       << '\n';
    family(os, "shredder_net_http_requests_total", "counter",
           "HTTP GETs demuxed off the listener (any path).");
    os << "shredder_net_http_requests_total " << net.http_requests << '\n';
    family(os, "shredder_net_metrics_requests_total", "counter",
           "GET /metrics scrapes served.");
    os << "shredder_net_metrics_requests_total " << net.metrics_requests
       << '\n';

    return os.str();
}

}  // namespace net
}  // namespace shredder
