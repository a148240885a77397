/**
 * @file
 * Thin RAII wrappers over POSIX TCP sockets.
 *
 * Everything the `net` subsystem touches at the OS level lives here:
 * a connected `Socket` (full-buffer send/recv helpers for the blocking
 * client, partial ones that also serve the server's nonblocking
 * sockets), a nonblocking `Listener`, and the `Poller` (epoll plus an
 * eventfd wakeup) that the server's single readiness loop waits on.
 *
 * Failure discipline: socket-level trouble (connect refused, send
 * failure, peer disconnect mid-buffer) throws a typed
 * `runtime::ServingError` with code `kNetwork`. A *clean* EOF — the
 * peer closed between frames — is not an error; `recv_some` returns 0
 * and the framing layer (protocol.h) decides whether the stream
 * position makes that a graceful close or a truncated frame.
 */
#ifndef SHREDDER_NET_SOCKET_H
#define SHREDDER_NET_SOCKET_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/serving_error.h"

namespace shredder {
namespace net {

/** One connected TCP stream (movable, non-copyable). */
class Socket
{
  public:
    /** Wrap an already-connected file descriptor (takes ownership). */
    explicit Socket(int fd = -1) : fd_(fd) {}

    /**
     * Connect to `host:port` (numeric IPv4 or a resolvable name).
     * @throws runtime::ServingError `kNetwork` on resolution or
     *         connection failure.
     */
    static Socket connect(const std::string& host, std::uint16_t port);

    ~Socket();
    Socket(Socket&& other) noexcept;
    Socket& operator=(Socket&& other) noexcept;
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;

    /** True while the descriptor is open. */
    bool valid() const { return fd_ >= 0; }

    /**
     * Send the whole buffer on a blocking socket (looping over
     * partial writes).
     * @throws runtime::ServingError `kNetwork` on any send failure
     *         (including the peer resetting the connection).
     */
    void send_all(const void* data, std::size_t len);

    /**
     * Send what the kernel takes now: the byte count — possibly fewer
     * than `len`, 0 when a nonblocking socket's buffer is full. Throws
     * `kNetwork` when the peer is gone (never raises SIGPIPE).
     */
    std::size_t try_send(const void* data, std::size_t len);

    /** Returned by `recv_some` when a nonblocking socket holds nothing. */
    static constexpr std::size_t kWouldBlock = ~std::size_t{0};

    /**
     * Receive up to `len` bytes; returns the count actually read, 0 on
     * a clean peer close, or `kWouldBlock` when the socket is
     * nonblocking and nothing is buffered. Retries EINTR; throws
     * `kNetwork` on a real socket error.
     */
    std::size_t recv_some(void* data, std::size_t len);

    /**
     * Receive exactly `len` bytes on a blocking socket. A peer close
     * before the buffer is full is a mid-transfer disconnect: throws
     * `kNetwork`.
     */
    void recv_all(void* data, std::size_t len);

    /** Half-close the send direction (signals EOF to the peer). */
    void shutdown_send();

    /**
     * Shut both directions down without releasing the fd: the peer
     * sees EOF, later sends fail, and the descriptor number cannot be
     * reused while another thread may still hold this socket (it is
     * released by `close()` or the destructor).
     */
    void shutdown_both();

    /** Close the descriptor (idempotent). */
    void close();

    /** The raw descriptor (for registering with a `Poller`). */
    int fd() const { return fd_; }

  private:
    int fd_;
};

/**
 * A nonblocking listening TCP socket. Connections are taken with
 * `accept_pending` once a `Poller` reports the descriptor readable.
 */
class Listener
{
  public:
    /**
     * Bind `host:port` and listen. Port 0 binds an ephemeral port;
     * read the actual one back with `port()`.
     * @throws runtime::ServingError `kNetwork` on bind/listen failure
     *         (e.g. the port is taken).
     */
    Listener(const std::string& host, std::uint16_t port);

    ~Listener();
    Listener(const Listener&) = delete;
    Listener& operator=(const Listener&) = delete;

    /** The locally bound port (the ephemeral one when 0 was asked). */
    std::uint16_t port() const { return port_; }

    /** The raw descriptor (for registering with a `Poller`). */
    int fd() const { return fd_; }

    /**
     * Take one queued connection without blocking: a nonblocking
     * `Socket` with Nagle off, or an invalid one when the queue is
     * empty. Throws `kNetwork` on a real accept failure (e.g. out of
     * descriptors).
     */
    Socket accept_pending();

    /**
     * Stop listening (idempotent; also run by the destructor): from
     * here on connection attempts are refused.
     */
    void close();

  private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
};

/**
 * A level-triggered epoll set with an eventfd wakeup — the readiness
 * primitive under the server's single loop thread. `add`/`modify`/
 * `remove` may be called from any thread; `wait` from one.
 */
class Poller
{
  public:
    /** One readiness report. */
    struct Ready
    {
        int fd = -1;          ///< Registered descriptor; -1 for `wake()`.
        bool readable = false;
        bool writable = false;
        bool hangup = false;  ///< The peer is gone (HUP or error).
    };

    /** @throws runtime::ServingError `kNetwork` when epoll is unavailable. */
    Poller();
    ~Poller();
    Poller(const Poller&) = delete;
    Poller& operator=(const Poller&) = delete;

    /**
     * Watch `fd` for readability and/or writability (hang-ups are
     * always reported).
     * @throws runtime::ServingError `kNetwork` when the kernel refuses.
     */
    void add(int fd, bool readable, bool writable);

    /**
     * Change the interest of a watched `fd`; false when the kernel
     * refused (the fd then stays as it was).
     */
    bool modify(int fd, bool readable, bool writable);

    /** Stop watching `fd` (before it is closed). */
    void remove(int fd);

    /**
     * Block until a watched fd is ready, `wake()` was called or
     * `timeout_ms` passed (-1: no limit), then fill `ready` (cleared
     * first) with the reports — none after a timeout.
     */
    void wait(std::vector<Ready>* ready, int timeout_ms = -1);

    /** Make a blocked or future `wait` return (thread-safe). */
    void wake();

  private:
    int epoll_fd_ = -1;
    int wake_fd_ = -1;  ///< eventfd registered in the set.
};

}  // namespace net
}  // namespace shredder

#endif  // SHREDDER_NET_SOCKET_H
