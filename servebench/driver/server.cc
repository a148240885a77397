/**
 * @file
 * Child-process supervision and /proc, /metrics readers.
 */
#include "servebench/driver/server.h"

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "servebench/driver/common.h"

namespace servebench {

namespace {

/** How long a child may take to print its listening port. */
constexpr std::int64_t kListenTimeoutMs = 30000;
/** Blocking send/receive limit on every driver socket. */
constexpr time_t kIoTimeoutSeconds = 10;

/** The value after `key` on the matching line of a /proc status file. */
std::int64_t
status_field(const std::string& path, const std::string& key)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) == 0) {
            return std::atoll(line.c_str() + key.size());
        }
    }
    return 0;
}

}  // namespace

HostCpu
read_host_cpu()
{
    std::ifstream in("/proc/stat");
    const std::string want = "cpu" + std::to_string(::sched_getcpu());
    std::string cpu;
    while (in >> cpu && cpu != want) {
        in.ignore(1 << 12, '\n');
    }
    HostCpu host;
    // user nice system idle iowait irq softirq steal (guest counted in user)
    for (int field = 0; field < 8; ++field) {
        std::int64_t ticks = 0;
        in >> ticks;
        host.total += ticks;
        if (field == 7) {
            host.steal = ticks;
        }
    }
    return host;
}

TaskCounters
read_task_counters(pid_t pid)
{
    TaskCounters counters;
    const std::string dir = "/proc/" + std::to_string(pid) + "/task";
    DIR* tasks = opendir(dir.c_str());
    if (tasks == nullptr) {
        return counters;
    }
    while (const dirent* entry = readdir(tasks)) {
        if (entry->d_name[0] == '.') {
            continue;
        }
        const std::string status = dir + "/" + entry->d_name + "/status";
        counters.ctx_switches +=
            status_field(status, "voluntary_ctxt_switches:") +
            status_field(status, "nonvoluntary_ctxt_switches:");
        ++counters.threads;
    }
    closedir(tasks);
    return counters;
}

std::int64_t
process_cpu_ns(pid_t pid)
{
    std::int64_t ns = 0;
    const std::string dir = "/proc/" + std::to_string(pid) + "/task";
    DIR* tasks = opendir(dir.c_str());
    if (tasks == nullptr) {
        return 0;
    }
    while (const dirent* entry = readdir(tasks)) {
        if (entry->d_name[0] != '.') {
            std::ifstream in(dir + "/" + entry->d_name + "/schedstat");
            std::int64_t on_cpu = 0;
            in >> on_cpu;
            ns += on_cpu;
        }
    }
    closedir(tasks);
    return ns;
}

double
vm_hwm_mib(pid_t pid)
{
    return static_cast<double>(status_field(
               "/proc/" + std::to_string(pid) + "/status", "VmHWM:")) /
           1024.0;
}

int
connect_loopback(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // A wedged server fails the call instead of hanging the run.
    const timeval timeout{kIoTimeoutSeconds, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

Scrape
scrape_metrics(std::uint16_t port)
{
    Scrape scrape;
    const int fd = connect_loopback(port);
    if (fd < 0) {
        return scrape;
    }
    const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
    if (::send(fd, request, sizeof(request) - 1, MSG_NOSIGNAL) < 0) {
        ::close(fd);
        return scrape;
    }
    std::string body;
    char buf[65536];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
            break;
        }
        body.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    const auto start = body.find("\r\n\r\n");
    std::istringstream lines(
        start == std::string::npos ? std::string() : body.substr(start + 4));
    std::string line;
    while (std::getline(lines, line)) {
        const auto space = line.rfind(' ');
        if (line.empty() || line[0] == '#' || space == std::string::npos) {
            continue;
        }
        scrape[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                                    nullptr);
    }
    return scrape;
}

ServerSupervisor::ServerSupervisor(std::vector<std::string> argv,
                                   std::string log_path)
    : argv_(std::move(argv)), log_path_(std::move(log_path))
{
}

ServerSupervisor::~ServerSupervisor() { stop(); }

void
ServerSupervisor::spawn()
{
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
        throw std::runtime_error("pipe2 failed");
    }
    std::vector<char*> args;
    for (std::string& arg : argv_) {
        args.push_back(arg.data());
    }
    args.push_back(nullptr);
    const int log_fd = ::open(log_path_.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);

    const pid_t pid = ::fork();
    if (pid < 0) {
        throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
        // Async-signal-safe calls only: the parent may have threads.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        const rlimit no_core{0, 0};
        ::setrlimit(RLIMIT_CORE, &no_core);
        const int null_fd = ::open("/dev/null", O_RDONLY);
        ::dup2(null_fd, STDIN_FILENO);
        ::dup2(fds[1], STDOUT_FILENO);
        if (log_fd >= 0) {
            ::dup2(log_fd, STDERR_FILENO);
        }
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    ::close(fds[1]);
    if (log_fd >= 0) {
        ::close(log_fd);
    }
    pid_ = pid;
    stdout_fd_ = fds[0];

    // shredder_serve flushes "listening on <host>:<port> ..." once bound.
    std::string out;
    const std::int64_t deadline = now_ns() + kListenTimeoutMs * 1000000;
    std::uint16_t port = 0;
    while (port == 0) {
        const auto at = out.find("listening on ");
        const auto eol =
            at == std::string::npos ? std::string::npos : out.find('\n', at);
        if (eol != std::string::npos) {
            const std::string line = out.substr(at, eol - at);
            const auto colon = line.find(':');
            port = static_cast<std::uint16_t>(
                std::atoi(line.c_str() + colon + 1));
            break;
        }
        pollfd pfd{stdout_fd_, POLLIN, 0};
        const auto wait_ms =
            static_cast<int>((deadline - now_ns()) / 1000000);
        char buf[4096];
        if (wait_ms <= 0 || ::poll(&pfd, 1, wait_ms) <= 0) {
            stop();
            throw std::runtime_error("shredder_serve did not start listening");
        }
        const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
        if (n <= 0) {
            stop();
            throw std::runtime_error("shredder_serve exited before listening");
        }
        out.append(buf, static_cast<std::size_t>(n));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    port_ = port;
}

bool
ServerSupervisor::reap(bool block)
{
    if (pid_ < 0) {
        return true;
    }
    int status = 0;
    ::rusage usage{};
    const pid_t got = ::wait4(pid_, &status, block ? 0 : WNOHANG, &usage);
    if (got != pid_) {
        return false;
    }
    account_exit(usage);
    if (WIFSIGNALED(status) && WTERMSIG(status) != SIGTERM) {
        std::fprintf(stderr, "servebench: shredder_serve pid %d died of "
                             "signal %d\n",
                     static_cast<int>(pid_), WTERMSIG(status));
    }
    pid_ = -1;
    ::close(stdout_fd_);
    stdout_fd_ = -1;
    return true;
}

void
ServerSupervisor::account_exit(const ::rusage& usage)
{
    const bool marked = pid_ == marked_pid_;
    dead_ctx_ += usage.ru_nvcsw + usage.ru_nivcsw - (marked ? marked_ctx_ : 0);
    if (marked) {
        marked_pid_ = -1;
    }
}

void
ServerSupervisor::stop()
{
    if (pid_ < 0) {
        return;
    }
    ::kill(pid_, SIGTERM);
    const std::int64_t deadline = now_ns() + 10'000'000'000LL;
    while (!reap(false)) {
        if (now_ns() > deadline) {
            ::kill(pid_, SIGKILL);
            reap(true);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

void
ServerSupervisor::ensure_alive()
{
    if (reap(false)) {
        spawn();
        ++restarts_;
        std::lock_guard<std::mutex> lock(mutex_);
        ++epoch_;
    }
}

std::uint16_t
ServerSupervisor::port() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return port_;
}

std::uint64_t
ServerSupervisor::epoch() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return epoch_;
}

std::pair<std::uint64_t, std::uint16_t>
ServerSupervisor::recover(std::uint64_t seen_epoch)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (epoch_ == seen_epoch) {
        restart_requested_ = true;
        cv_.notify_all();
    }
    cv_.wait(lock, [&] { return epoch_ != seen_epoch; });
    return {epoch_, port_};
}

void
ServerSupervisor::supervise(const std::function<bool()>& finished,
                            const std::function<void()>& tick)
{
    while (!finished()) {
        tick();
        bool requested = false;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait_for(lock, std::chrono::milliseconds(5),
                         [&] { return restart_requested_; });
            requested = restart_requested_;
        }
        if (kill_at_ns_ > 0 && now_ns() >= kill_at_ns_ && pid_ > 0) {
            ::kill(pid_, SIGKILL);
            kill_at_ns_ = 0;
        }
        bool died = reap(false);
        if (requested && !died) {
            // A dying process closes its sockets before it can be
            // reaped: give it a moment before calling the break a
            // connection failure of a live server.
            const std::int64_t deadline = now_ns() + 2'000'000'000LL;
            while (!died && now_ns() < deadline) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                died = reap(false);
            }
        }
        if (!requested && !died) {
            continue;
        }
        std::uint16_t port = 0;
        if (died) {
            ++restarts_;
            try {
                spawn();
                port = port_;
            } catch (const std::exception& e) {
                std::fprintf(stderr, "servebench: restart failed: %s\n",
                             e.what());
            }
        } else {
            port = port_;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        port_ = port;
        ++epoch_;
        restart_requested_ = false;
        cv_.notify_all();
    }
}

void
ServerSupervisor::mark()
{
    marked_pid_ = pid_;
    marked_ctx_ = pid_ > 0 ? read_task_counters(pid_).ctx_switches : 0;
    dead_ctx_ = 0;
}

std::int64_t
ServerSupervisor::ctx_switches_since_mark() const
{
    std::int64_t ctx = dead_ctx_;
    if (pid_ > 0) {
        ctx += read_task_counters(pid_).ctx_switches -
               (pid_ == marked_pid_ ? marked_ctx_ : 0);
    }
    return ctx;
}

}  // namespace servebench
