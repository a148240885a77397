/**
 * @file
 * The served process: spawn `shredder_serve --listen` as a child,
 * supervise it through load phases (restart it when it dies and count
 * the restart), and read its counters from /proc and GET /metrics.
 */
#ifndef SERVEBENCH_SERVER_H
#define SERVEBENCH_SERVER_H

#include <sys/resource.h>
#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace servebench {

/** Time of the CPU the caller runs on, from /proc/stat, in ticks. */
struct HostCpu
{
    std::int64_t steal = 0;
    std::int64_t total = 0;
};
HostCpu read_host_cpu();

/** Context switches summed over every /proc/<pid>/task entry, and the thread count. */
struct TaskCounters
{
    std::int64_t ctx_switches = 0;
    std::int64_t threads = 0;
};
TaskCounters read_task_counters(pid_t pid);

/**
 * On-CPU nanoseconds summed over the live threads of a process
 * (/proc/<pid>/task/<tid>/schedstat; steal is not charged).
 */
std::int64_t process_cpu_ns(pid_t pid);

/** VmHWM of a live process, in MiB. */
double vm_hwm_mib(pid_t pid);

/**
 * Open a TCP_NODELAY, close-on-exec connection to 127.0.0.1:port with
 * 10 s send and receive timeouts (-1 on failure).
 */
int connect_loopback(std::uint16_t port);

/** One GET /metrics scrape: series (name plus labels) → value. */
using Scrape = std::map<std::string, double>;
Scrape scrape_metrics(std::uint16_t port);

/**
 * Owns the `shredder_serve` child. Only the thread that constructed
 * it spawns children (the parent-death signal is tied to that thread);
 * load threads ask it for a restart through `recover`.
 */
class ServerSupervisor
{
  public:
    ServerSupervisor(std::vector<std::string> argv, std::string log_path);
    /** Stops the child if one is running. */
    ~ServerSupervisor();

    ServerSupervisor(const ServerSupervisor&) = delete;
    ServerSupervisor& operator=(const ServerSupervisor&) = delete;

    /** Spawn a child and wait until it prints its listening port. */
    void spawn();

    /** SIGTERM the child and reap it (SIGKILL after 10 s). */
    void stop();

    /** Restart the child if it has died since the last check. */
    void ensure_alive();

    std::uint16_t port() const;
    std::uint64_t epoch() const;
    pid_t pid() const { return pid_; }
    std::int64_t restarts() const { return restarts_; }

    /**
     * Load-thread side: the connection opened in `seen_epoch` broke.
     * Blocks until the supervising thread has a server of a later
     * epoch listening (restarted if the old one died) and returns
     * (epoch, port); port 0 means no server could be started.
     */
    std::pair<std::uint64_t, std::uint16_t> recover(std::uint64_t seen_epoch);

    /**
     * Supervising-thread side, during a load phase: restart the child
     * when it dies or a load thread asks, until `finished()` holds.
     * `tick` runs every few milliseconds in between.
     */
    void supervise(const std::function<bool()>& finished,
                   const std::function<void()>& tick);

    /** SIGKILL the child once the steady clock passes `at_ns` (self-test). */
    void schedule_kill(std::int64_t at_ns) { kill_at_ns_ = at_ns; }

    /** Start accumulating context switches from now. */
    void mark();
    /** Server context switches since `mark()`, dead children included. */
    std::int64_t ctx_switches_since_mark() const;

  private:
    /** Reap the child if it has exited; true when it did. */
    bool reap(bool block);
    void account_exit(const ::rusage& usage);

    std::vector<std::string> argv_;
    std::string log_path_;
    pid_t pid_ = -1;
    int stdout_fd_ = -1;
    std::int64_t restarts_ = 0;
    std::int64_t kill_at_ns_ = 0;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::uint64_t epoch_ = 0;       ///< Guarded by mutex_.
    std::uint16_t port_ = 0;        ///< Guarded by mutex_.
    bool restart_requested_ = false;  ///< Guarded by mutex_.

    pid_t marked_pid_ = -1;
    std::int64_t marked_ctx_ = 0;
    std::int64_t dead_ctx_ = 0;
};

}  // namespace servebench

#endif  // SERVEBENCH_SERVER_H
