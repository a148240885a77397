/**
 * @file
 * Implementation of the SHRQ/SHRP network server (see header).
 */
#include "src/net/server.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <string_view>
#include <utility>

#include "src/net/metrics.h"
#include "src/net/protocol.h"
#include "src/runtime/logging.h"

namespace shredder {
namespace net {

using runtime::ServingError;

namespace {

/**
 * Least free space one read offers. A frame larger than this gets room
 * for all of it, so its payload lands in the buffer once and is parsed
 * where it lies.
 */
constexpr std::size_t kReadChunk = 16 * 1024;

/**
 * HTTP header bound: the exchange ends at CRLFCRLF, and a scraper's
 * GET is far below this. Past it the request is hostile and the
 * connection simply closes.
 */
constexpr std::size_t kMaxHttpHeader = 8192;

/** How long the listener stays unwatched after a failed accept. */
constexpr std::chrono::milliseconds kAcceptRetry{100};

}  // namespace

/**
 * One accepted client link. The loop thread owns the receive side
 * (the buffer and how it is parsed); the FIFO of answers and every
 * send are shared with completing workers under `mutex`.
 */
struct Server::Connection
{
    explicit Connection(Socket s) : socket(std::move(s)) {}

    Socket socket;

    // --- Loop thread only. ----------------------------------------
    enum class Kind { kUnknown, kFrames, kHttp };
    Kind kind = Kind::kUnknown;  ///< Decided by the first byte.
    std::string in;              ///< Receive buffer.
    std::size_t in_begin = 0;    ///< First unparsed byte.
    std::size_t in_end = 0;      ///< One past the last received byte.
    /** Size of the partial frame at `in_begin` once its envelope is in. */
    std::size_t frame_bytes = 0;
    /** The peer sent its last byte; what is buffered is still cut. */
    bool eof = false;

    // --- Guarded by `mutex`. --------------------------------------
    std::mutex mutex;
    /** One per accepted frame, in arrival order. */
    struct Slot
    {
        bool ready = false;  ///< `frame` holds the encoded answer.
        std::string frame;
    };
    std::deque<Slot> slots;
    std::uint64_t front_seq = 0;  ///< Sequence number of slots.front().
    std::size_t front_sent = 0;   ///< Bytes of the front frame sent.
    bool reading = true;          ///< EPOLLIN armed.
    bool writing = false;         ///< EPOLLOUT armed.
    bool link_dead = false;       ///< Peer gone: answers are dropped.
    /**
     * The frame cutter stopped at the in-flight bound. The completion
     * that takes the FIFO below it clears this and calls the loop.
     */
    bool paused = false;
    // Written only by the loop thread (under `mutex`, so workers may
    // read them); the loop itself reads them without the lock.
    bool read_done = false;  ///< No more frames: EOF cut, bad frame, HTTP.
    bool closed = false;     ///< Left the poller: epoll is off limits.

    /**
     * Send every answered frame at the head of the FIFO until the
     * kernel's buffer fills; true when bytes are left for EPOLLOUT.
     * Caller holds `mutex`.
     */
    bool flush()
    {
        while (!slots.empty() && slots.front().ready) {
            const std::string& frame = slots.front().frame;
            if (!link_dead) {
                try {
                    front_sent += socket.try_send(
                        frame.data() + front_sent,
                        frame.size() - front_sent);
                } catch (const ServingError&) {
                    link_dead = true;  // the client went away
                }
                if (!link_dead && front_sent < frame.size()) {
                    return true;
                }
            }
            slots.pop_front();
            ++front_seq;
            front_sent = 0;
        }
        return false;
    }

    /**
     * One read into the buffer (loop thread). Room is made first: a
     * drained buffer rewinds for free, and a partial frame is kept
     * whole so the rest of it lands in place. A socket error ends the
     * read side; EOF only stops the reads.
     */
    void receive()
    {
        const std::size_t have = in_end - in_begin;
        if (have == 0) {
            in_begin = in_end = 0;
        }
        const std::size_t target = std::max(frame_bytes, have + kReadChunk);
        if (in.size() - in_begin < target) {
            if (in_begin > 0) {
                in.erase(0, in_begin);
                in_begin = 0;
                in_end = have;
            }
            in.resize(std::max(in.size(), target));
        }
        std::size_t n = 0;
        bool failed = false;
        try {
            n = socket.recv_some(&in[in_end], in.size() - in_end);
        } catch (const ServingError&) {
            failed = true;
        }
        if (failed) {
            std::lock_guard<std::mutex> lock(mutex);
            read_done = true;
            link_dead = true;  // nobody is left to read answers owed
            return;
        }
        if (n == Socket::kWouldBlock) {
            return;
        }
        in_end += n;
        eof = n == 0;
    }

    /** Set the epoll interest. Caller holds `mutex`. */
    void watch(Poller& poller, bool in, bool out)
    {
        if (closed || (in == reading && out == writing)) {
            return;
        }
        if (poller.modify(socket.fd(), in, out)) {
            reading = in;
            writing = out;
        } else {
            link_dead = true;  // unmanageable now; the loop closes it
        }
    }
};

Server::Server(runtime::ServingEngine& engine, const ServerConfig& config)
    : engine_(engine), config_(config),
      listener_(config.host, config.port)
{
    SHREDDER_REQUIRE(config_.max_inflight_per_connection >= 1,
                     "max_inflight_per_connection must be >= 1, got ",
                     config_.max_inflight_per_connection);
    poller_.add(listener_.fd(), /*readable=*/true, /*writable=*/false);
    loop_thread_ = std::thread([this] { loop(); });
}

Server::~Server() { stop(); }

ServerNetStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ServerNetStats stats = stats_;
    stats.frames_served = frames_served_;
    return stats;
}

void
Server::loop()
{
    std::vector<Poller::Ready> ready;
    std::vector<std::shared_ptr<Connection>> attention;
    for (;;) {
        int timeout_ms = -1;
        if (accept_paused_) {
            const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                accept_retry_at_ - std::chrono::steady_clock::now());
            timeout_ms = static_cast<int>(
                std::max<std::int64_t>(0, left.count()));
        }
        poller_.wait(&ready, timeout_ms);
        if (accept_paused_ &&
            std::chrono::steady_clock::now() >= accept_retry_at_) {
            accept_ready();
        }
        bool woken = false;
        for (const Poller::Ready& r : ready) {
            if (r.fd == -1) {
                woken = true;
            } else if (r.fd == listener_.fd()) {
                accept_ready();
            } else {
                const auto it = connections_.find(r.fd);
                if (it != connections_.end()) {
                    // A copy: servicing may drop the map's reference.
                    const std::shared_ptr<Connection> connection =
                        it->second;
                    service(connection, r.readable, r.writable, r.hangup);
                }
            }
        }
        if (!woken) {
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_) {
                return;
            }
            attention.swap(attention_);
        }
        for (const std::shared_ptr<Connection>& connection : attention) {
            const auto it = connections_.find(connection->socket.fd());
            if (it != connections_.end() && it->second == connection) {
                service(connection, false, false, false);
            }
        }
        attention.clear();
    }
}

void
Server::accept_ready()
{
    for (;;) {
        Socket socket;
        try {
            socket = listener_.accept_pending();
        } catch (const ServingError&) {
            // Out of descriptors, most likely: the queued connection
            // stays ready, so stop watching the listener for a while.
            if (!accept_paused_) {
                poller_.modify(listener_.fd(), false, false);
                accept_paused_ = true;
            }
            accept_retry_at_ = std::chrono::steady_clock::now() + kAcceptRetry;
            return;
        }
        if (!socket.valid()) {
            if (accept_paused_) {
                // Drained: watch the listener again. Should the kernel
                // refuse, the retry timer keeps accepting meanwhile.
                accept_paused_ =
                    !poller_.modify(listener_.fd(), true, false);
                accept_retry_at_ =
                    std::chrono::steady_clock::now() + kAcceptRetry;
            }
            return;  // accept queue drained
        }
        auto connection = std::make_shared<Connection>(std::move(socket));
        const int fd = connection->socket.fd();
        try {
            poller_.add(fd, /*readable=*/true, /*writable=*/false);
        } catch (const ServingError&) {
            continue;  // cannot watch it: drop the connection
        }
        connections_.emplace(fd, std::move(connection));
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.connections_accepted;
        ++stats_.connections_active;
    }
}

void
Server::service(const std::shared_ptr<Connection>& connection,
                bool readable, bool writable, bool hangup)
{
    Connection& c = *connection;
    if (hangup) {
        // Reset or error: nobody is left to read answers still owed.
        std::lock_guard<std::mutex> lock(c.mutex);
        c.read_done = true;
        c.link_dead = true;
    } else if (readable) {
        c.receive();  // only reported while EPOLLIN is armed
    }
    if (writable) {
        std::lock_guard<std::mutex> lock(c.mutex);
        c.watch(poller_, c.reading, c.flush());
    }

    if (!c.read_done) {
        if (c.kind == Connection::Kind::kUnknown && c.in_end > c.in_begin) {
            // Protocol demux on the first byte: an HTTP scrape starts
            // "GET ", a SHRQ frame starts with its magic ('S').
            c.kind = c.in[c.in_begin] == 'G' ? Connection::Kind::kHttp
                                              : Connection::Kind::kFrames;
        }
        bool paused = false;
        if (c.kind == Connection::Kind::kFrames) {
            paused = cut_frames(connection);
        } else if (c.kind == Connection::Kind::kHttp) {
            serve_http(c);
        }
        if (c.eof && !paused) {
            // Every whole frame the peer sent is cut; a partial one
            // left in the buffer can never complete.
            std::lock_guard<std::mutex> lock(c.mutex);
            c.read_done = true;
        }
    }

    bool finished = false;
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        c.watch(poller_, !c.read_done && !c.eof && !c.paused, c.writing);
        finished = c.link_dead || (c.read_done && c.slots.empty());
    }
    if (finished) {
        close_connection(c);
    }
}

bool
Server::cut_frames(const std::shared_ptr<Connection>& connection)
{
    Connection& c = *connection;
    // Bad envelope or payload: the stream position is unknowable now,
    // so the connection ends — after a typed response queued behind
    // the answers it already owes — and never with a crash.
    const auto reject_stream = [this, &c](const ServingError& e) {
        Response response;
        response.status = WireStatus::kProtocolError;
        response.message = e.what();
        std::string frame = encode_response(response);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.protocol_errors;
        }
        ++frames_served_;
        std::lock_guard<std::mutex> lock(c.mutex);
        c.slots.push_back(Connection::Slot{true, std::move(frame)});
        c.read_done = true;
        c.watch(poller_, c.reading, c.flush());
    };

    for (;;) {
        {
            // Set and read in one critical section with the FIFO size,
            // so a completion either sees the pause or is already
            // counted in that size.
            std::lock_guard<std::mutex> lock(c.mutex);
            c.paused = static_cast<std::int64_t>(c.slots.size()) >=
                       config_.max_inflight_per_connection;
            if (c.paused) {
                return true;  // at the bound: the rest waits in the buffer
            }
        }
        const std::size_t have = c.in_end - c.in_begin;
        if (have < kEnvelopeBytes) {
            return false;
        }
        const char* head = c.in.data() + c.in_begin;
        std::uint32_t length = 0;
        try {
            length = check_envelope(head, kRequestMagic);
        } catch (const ServingError& e) {
            reject_stream(e);
            return false;
        }
        if (have < kEnvelopeBytes + length) {
            c.frame_bytes = kEnvelopeBytes + length;
            return false;  // the rest of the frame is still on its way
        }
        c.frame_bytes = 0;
        c.in_begin += kEnvelopeBytes + length;

        Request request;
        try {
            request = decode_request_payload(
                std::string_view(head + kEnvelopeBytes, length));
        } catch (const ServingError& e) {
            reject_stream(e);
            return false;
        }

        std::uint64_t seq = 0;
        {
            std::lock_guard<std::mutex> lock(c.mutex);
            seq = c.front_seq + c.slots.size();
            c.slots.emplace_back();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++outstanding_;
        }
        const std::uint64_t id = request.request_id;
        runtime::Completion done =
            [this, connection, seq, id](Tensor output,
                                        const ServingError* error) {
                Response response;
                response.request_id = id;
                if (error == nullptr) {
                    response.output = std::move(output);
                } else {
                    response.status = wire_status(error->code());
                    response.message = error->what();
                }
                complete(connection, seq, encode_response(response));
            };
        // Quantized activations stay quantized into the engine: the
        // endpoint either consumes them directly (int8 GEMM) or
        // dequantizes on a worker, not on the loop thread.
        if (request.is_quantized) {
            engine_.submit_quantized(request.endpoint,
                                     std::move(request.quantized), id,
                                     std::move(done));
        } else {
            engine_.submit(request.endpoint, std::move(request.activation),
                           id, std::move(done));
        }
    }
}

void
Server::complete(const std::shared_ptr<Connection>& connection,
                 std::uint64_t seq, std::string frame)
{
    // Counted before any byte of it can reach the client.
    ++frames_served_;
    Connection& c = *connection;
    bool attention = false;
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        Connection::Slot& slot = c.slots[seq - c.front_seq];
        slot.frame = std::move(frame);
        slot.ready = true;
        c.watch(poller_, c.reading, c.flush());
        // The loop must act when the cutter is paused and the FIFO fell
        // below the bound (frames may be waiting in its buffer), or
        // when the connection is done.
        const bool resume =
            c.paused && static_cast<std::int64_t>(c.slots.size()) <
                            config_.max_inflight_per_connection;
        if (resume) {
            c.paused = false;  // one call to the loop per pause
        }
        attention = !c.closed &&
                    (resume || c.link_dead ||
                     (c.read_done && c.slots.empty()));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (attention) {
        attention_.push_back(connection);
        poller_.wake();
    }
    // Last touch of `this`: stop() may return once this reaches zero.
    if (--outstanding_ == 0) {
        outstanding_cv_.notify_all();
    }
}

void
Server::serve_http(Connection& c)
{
    const std::string_view buffered(c.in.data() + c.in_begin,
                                    c.in_end - c.in_begin);
    if (buffered.find("\r\n\r\n") == std::string_view::npos) {
        if (buffered.size() >= kMaxHttpHeader) {
            std::lock_guard<std::mutex> lock(c.mutex);
            c.read_done = true;  // hostile: close unanswered
        }
        return;
    }

    // Request line: METHOD SP TARGET SP VERSION.
    std::istringstream line(
        std::string(buffered.substr(0, buffered.find("\r\n"))));
    std::string method;
    std::string target;
    line >> method >> target;

    std::string status_line;
    std::string content_type;
    std::string body;
    if (method == "GET" &&
        (target == "/metrics" || target.rfind("/metrics?", 0) == 0)) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.http_requests;
            ++stats_.metrics_requests;
        }
        status_line = "HTTP/1.0 200 OK";
        content_type = "text/plain; version=0.0.4; charset=utf-8";
        body = render_metrics(engine_, stats());
    } else {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.http_requests;
        status_line = "HTTP/1.0 404 Not Found";
        content_type = "text/plain; charset=utf-8";
        body = "not found\n";
    }

    std::ostringstream response;
    response << status_line << "\r\n"
             << "Content-Type: " << content_type << "\r\n"
             << "Content-Length: " << body.size() << "\r\n"
             << "Connection: close\r\n\r\n"
             << body;
    // One exchange per connection: the answer is the FIFO's only slot
    // and the connection closes once it is sent.
    std::lock_guard<std::mutex> lock(c.mutex);
    c.slots.push_back(Connection::Slot{true, response.str()});
    c.read_done = true;
    c.watch(poller_, c.reading, c.flush());
}

void
Server::close_connection(Connection& c)
{
    const int fd = c.socket.fd();
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        c.closed = true;
        c.link_dead = true;  // late completions only retire their slots
    }
    poller_.remove(fd);
    // A paused listener may find a free descriptor now.
    accept_retry_at_ = {};
    // Signal EOF so a half-closed client's read loop ends cleanly. The
    // descriptor itself is released with the last reference (a worker
    // may still hold one), so its number is never reused under it.
    c.socket.shutdown_both();
    connections_.erase(fd);
    std::lock_guard<std::mutex> lock(mutex_);
    --stats_.connections_active;
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
            return;
        }
        stopping_ = true;
    }
    poller_.wake();
    if (loop_thread_.joinable()) {
        loop_thread_.join();
    }
    // The loop is gone: refuse new connections, then close every open
    // one (connections_ is ours now).
    listener_.close();
    while (!connections_.empty()) {
        close_connection(*connections_.begin()->second);
    }
    // Requests already submitted still complete; wait for them so no
    // completion can touch this server after stop() returns.
    std::unique_lock<std::mutex> lock(mutex_);
    outstanding_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

}  // namespace net
}  // namespace shredder
