/**
 * @file
 * The network front door: a TCP server speaking SHRQ/SHRP in front of
 * a `ServingEngine`.
 *
 * This materializes the paper's deployment split (§1, §2.6): the edge
 * half runs on a device, the cloud half behind this listener. One loop
 * thread owns every socket: it waits on epoll, accepts, reads
 * nonblocking sockets into per-connection buffers, cuts complete
 * frames out of them and submits each to the engine with a completion
 * callback. One connection can keep many requests in flight — the
 * pipelining an open-loop edge client needs — and responses still
 * carry the request id they answer.
 *
 * Answers do not come back through the loop. The pool worker that
 * finishes a batch encodes each response, fills that request's slot
 * in its connection's FIFO and sends every answer at the head of the
 * FIFO straight away with a nonblocking send; only when the kernel's
 * send buffer is full does the loop take over the rest (EPOLLOUT is
 * armed just then). Responses therefore leave in submission order.
 * A connection with `max_inflight_per_connection` unanswered frames
 * stops being read (EPOLLIN off) until the FIFO drains below the
 * bound, which also bounds the bytes a client that never reads can
 * pin. A client that half-closes is still answered for every whole
 * frame it sent before its EOF.
 *
 * Trust boundary: every frame is parsed through the checked `wire`
 * readers (src/net/protocol.h). A malformed frame yields a best-effort
 * typed `kProtocolError` response and a connection close; a request
 * the engine rejects (unknown endpoint, bad shape, shutdown) yields a
 * typed error response and the connection KEEPS serving — one bad
 * client request must not cost the client its link, and one bad
 * client must never cost other clients theirs. The server never
 * crashes on network input.
 *
 * The same listener also answers plain HTTP `GET /metrics` with a
 * Prometheus text scrape (src/net/metrics.h): the first byte of a
 * connection decides — `G` starts an HTTP exchange (one response,
 * then close), anything else is parsed as SHRQ. No second port, so the
 * scrape observes exactly the serving process. The body is rendered
 * on the loop thread, so a scrape holds up I/O on every connection
 * while it renders (docs/PERFORMANCE.md gives the cost per endpoint).
 *
 * Out of descriptors, `accept` fails while the connection stays
 * queued; the loop then stops watching the listener and retries after
 * a short delay or as soon as a connection closes, so it sleeps
 * instead of spinning.
 *
 * Lifecycle: the constructor binds and starts the loop; `stop()`
 * (idempotent, also run by the destructor) stops the loop, closes the
 * listener and every connection, and waits for the engine to finish
 * the requests already submitted. The engine is borrowed and must
 * outlive the server.
 */
#ifndef SHREDDER_NET_SERVER_H
#define SHREDDER_NET_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/socket.h"
#include "src/runtime/serving_engine.h"

namespace shredder {
namespace net {

/** Listener knobs. */
struct ServerConfig
{
    /** Numeric IPv4 address to bind. */
    std::string host = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (read back via `port()`). */
    std::uint16_t port = 0;
    /**
     * Unanswered frames a connection may have before the server stops
     * reading it — bounds the per-connection memory an aggressive
     * client can pin while responses drain.
     */
    std::int64_t max_inflight_per_connection = 256;
};

/** Wire-level counters (engine-level stats live in `ServingEngine`). */
struct ServerNetStats
{
    std::int64_t connections_accepted = 0;
    std::int64_t connections_active = 0;
    std::int64_t frames_served = 0;    ///< Responses queued, any status.
    std::int64_t protocol_errors = 0;  ///< Malformed frames survived.
    std::int64_t http_requests = 0;    ///< HTTP GETs demuxed (any path).
    std::int64_t metrics_requests = 0; ///< GET /metrics scrapes served.
};

/** See file comment. */
class Server
{
  public:
    /**
     * Bind `config.host:config.port` and start accepting.
     * @throws runtime::ServingError `kNetwork` when the bind fails.
     */
    Server(runtime::ServingEngine& engine, const ServerConfig& config = {});

    /** Stops and joins everything. */
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /** The bound TCP port (the actual one when 0 was configured). */
    std::uint16_t port() const { return listener_.port(); }

    /** Snapshot of the wire-level counters. */
    ServerNetStats stats() const;

    /**
     * Stop the loop, refuse new connections, close every connection,
     * and wait until the engine has completed every request already
     * submitted. Idempotent.
     */
    void stop();

  private:
    struct Connection;

    /** The readiness loop (its own thread). */
    void loop();

    /**
     * Accept every queued connection. When accepting fails (out of
     * descriptors) the listener is unwatched until `accept_retry_at_`
     * — a level-triggered listener would otherwise wake the loop again
     * at once and spin it.
     */
    void accept_ready();

    /**
     * Advance one connection after readiness or a worker's request for
     * attention: flush, read, cut frames, pause or resume reading, and
     * close it once it is finished.
     */
    void service(const std::shared_ptr<Connection>& connection,
                 bool readable, bool writable, bool hangup);

    /**
     * Submit every complete frame in the buffer, up to the in-flight
     * bound. Returns true when it stopped at the bound (the connection
     * is paused), false when the buffer holds no whole frame.
     */
    bool cut_frames(const std::shared_ptr<Connection>& connection);

    /** Answer one HTTP GET once its header is buffered (see file). */
    void serve_http(Connection& connection);

    /**
     * Fill FIFO slot `seq` with its encoded response and send what the
     * FIFO head allows. Runs on the completing thread.
     */
    void complete(const std::shared_ptr<Connection>& connection,
                  std::uint64_t seq, std::string frame);

    /** Remove a finished connection (loop thread). */
    void close_connection(Connection& connection);

    runtime::ServingEngine& engine_;
    ServerConfig config_;
    Listener listener_;
    Poller poller_;

    /** Open connections by fd (loop thread only, then `stop()`). */
    std::unordered_map<int, std::shared_ptr<Connection>> connections_;
    /** The listener is unwatched after a failed accept (loop thread). */
    bool accept_paused_ = false;
    /**
     * When a paused listener is tried again: a short delay after the
     * failure, or at once after a connection closes (loop thread).
     */
    std::chrono::steady_clock::time_point accept_retry_at_;

    /** Guards stats_, attention_, stopping_ and outstanding_. */
    mutable std::mutex mutex_;
    ServerNetStats stats_;  ///< All but frames_served, counted below.
    /** Answers queued; counted off the lock on every completion. */
    std::atomic<std::int64_t> frames_served_{0};
    /** Connections a worker wants the loop to look at. */
    std::vector<std::shared_ptr<Connection>> attention_;
    bool stopping_ = false;
    /**
     * Requests submitted to the engine whose completion has not
     * finished yet; `stop()` waits for zero so no completion can
     * outlive the server.
     */
    std::int64_t outstanding_ = 0;
    std::condition_variable outstanding_cv_;

    std::thread loop_thread_;
};

}  // namespace net
}  // namespace shredder

#endif  // SHREDDER_NET_SERVER_H
