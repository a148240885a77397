/**
 * @file
 * POSIX implementation of the net socket wrappers (see header).
 */
#include "src/net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace shredder {
namespace net {

namespace {

using runtime::ServingError;
using runtime::ServingErrorCode;

[[noreturn]] void
throw_errno(const std::string& what)
{
    throw ServingError(ServingErrorCode::kNetwork,
                       what + ": " + std::strerror(errno));
}

/** Disable Nagle: frames are latency-sensitive request/response units. */
void
set_no_delay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/** An epoll registration for `fd` with the given interest. */
epoll_event
interest(int fd, bool readable, bool writable)
{
    epoll_event event{};
    event.events = (readable ? EPOLLIN : 0u) | (writable ? EPOLLOUT : 0u);
    event.data.fd = fd;
    return event;
}

}  // namespace

Socket
Socket::connect(const std::string& host, std::uint16_t port)
{
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* result = nullptr;
    const std::string service = std::to_string(port);
    const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints,
                                 &result);
    if (rc != 0) {
        throw ServingError(ServingErrorCode::kNetwork,
                           "cannot resolve '" + host +
                               "': " + ::gai_strerror(rc));
    }

    int fd = -1;
    int saved_errno = 0;
    for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            saved_errno = errno;
            continue;
        }
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
            break;
        }
        saved_errno = errno;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(result);
    if (fd < 0) {
        errno = saved_errno;
        throw_errno("cannot connect to " + host + ":" + service);
    }
    set_no_delay(fd);
    return Socket(fd);
}

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_)
{
    other.fd_ = -1;
}

Socket&
Socket::operator=(Socket&& other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

void
Socket::send_all(const void* data, std::size_t len)
{
    const char* p = static_cast<const char*>(data);
    while (len > 0) {
        const std::size_t n = try_send(p, len);
        p += n;
        len -= n;
    }
}

std::size_t
Socket::try_send(const void* data, std::size_t len)
{
    for (;;) {
        // MSG_NOSIGNAL: a peer that already closed must fail the call,
        // not SIGPIPE the whole serving process.
        const ssize_t n = ::send(fd_, data, len, MSG_NOSIGNAL);
        if (n >= 0) {
            return static_cast<std::size_t>(n);
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            return 0;
        }
        if (errno != EINTR) {
            throw_errno("send failed");
        }
    }
}

std::size_t
Socket::recv_some(void* data, std::size_t len)
{
    for (;;) {
        const ssize_t n = ::recv(fd_, data, len, 0);
        if (n >= 0) {
            return static_cast<std::size_t>(n);
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            return kWouldBlock;
        }
        if (errno != EINTR) {
            throw_errno("recv failed");
        }
    }
}

void
Socket::recv_all(void* data, std::size_t len)
{
    char* p = static_cast<char*>(data);
    while (len > 0) {
        const std::size_t n = recv_some(p, len);
        if (n == 0) {
            throw ServingError(ServingErrorCode::kNetwork,
                               "peer disconnected mid-transfer (" +
                                   std::to_string(len) +
                                   " bytes still expected)");
        }
        p += n;
        len -= n;
    }
}

void
Socket::shutdown_send()
{
    if (fd_ >= 0) {
        ::shutdown(fd_, SHUT_WR);
    }
}

void
Socket::shutdown_both()
{
    if (fd_ >= 0) {
        ::shutdown(fd_, SHUT_RDWR);
    }
}

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Listener::Listener(const std::string& host, std::uint16_t port)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
        throw_errno("cannot create listening socket");
    }
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd_);
        fd_ = -1;
        throw ServingError(ServingErrorCode::kNetwork,
                           "listener host must be a numeric IPv4 "
                           "address, got '" + host + "'");
    }
    // shredder-lint: allow(untrusted-cast) — POSIX sockaddr aliasing, no byte parsing
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        const std::string what = "cannot bind " + host + ":" +
                                 std::to_string(port);
        ::close(fd_);
        fd_ = -1;
        throw_errno(what);
    }
    if (::listen(fd_, SOMAXCONN) != 0) {
        ::close(fd_);
        fd_ = -1;
        throw_errno("listen failed");
    }

    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    // shredder-lint: allow(untrusted-cast) — POSIX sockaddr aliasing, no byte parsing
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) != 0) {
        ::close(fd_);
        fd_ = -1;
        throw_errno("getsockname failed");
    }
    port_ = ntohs(bound.sin_port);
}

Listener::~Listener() { close(); }

Socket
Listener::accept_pending()
{
    for (;;) {
        const int client =
            ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (client >= 0) {
            set_no_delay(client);
            return Socket(client);
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            return Socket();
        }
        if (errno != EINTR && errno != ECONNABORTED) {
            throw_errno("accept failed");
        }
    }
}

void
Listener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Poller::Poller()
{
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
        throw_errno("epoll_create1 failed");
    }
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) {
        ::close(epoll_fd_);
        throw_errno("eventfd failed");
    }
    add(wake_fd_, /*readable=*/true, /*writable=*/false);
}

Poller::~Poller()
{
    ::close(wake_fd_);
    ::close(epoll_fd_);
}

void
Poller::add(int fd, bool readable, bool writable)
{
    epoll_event event = interest(fd, readable, writable);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
        throw_errno("epoll_ctl(ADD) failed");
    }
}

bool
Poller::modify(int fd, bool readable, bool writable)
{
    epoll_event event = interest(fd, readable, writable);
    return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event) == 0;
}

void
Poller::remove(int fd)
{
    // Best-effort: the fd may already have left the set with its last
    // reference; there is nothing left to stop watching then.
    epoll_event unused{};
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &unused);
}

void
Poller::wait(std::vector<Ready>* ready, int timeout_ms)
{
    epoll_event events[64];
    int n = -1;
    while (n < 0) {
        n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
        if (n < 0 && errno != EINTR) {
            throw_errno("epoll_wait failed");
        }
    }
    ready->clear();
    for (int i = 0; i < n; ++i) {
        Ready r;
        r.fd = events[i].data.fd;
        if (r.fd == wake_fd_) {
            std::uint64_t count = 0;
            (void)!::read(wake_fd_, &count, sizeof(count));
            r.fd = -1;
        }
        r.readable = (events[i].events & EPOLLIN) != 0;
        r.writable = (events[i].events & EPOLLOUT) != 0;
        r.hangup = (events[i].events & (EPOLLHUP | EPOLLERR)) != 0;
        ready->push_back(r);
    }
}

void
Poller::wake()
{
    const std::uint64_t one = 1;
    // Best-effort: a saturated counter already guarantees a wakeup.
    (void)!::write(wake_fd_, &one, sizeof(one));
}

}  // namespace net
}  // namespace shredder
