/**
 * @file
 * Open-loop Poisson load over loopback TCP, crash-aware.
 *
 * Two load threads each own two connections. Every connection replays
 * its own seeded Poisson schedule at a quarter of the phase rate, so
 * the four superpose to one Poisson stream at the full rate. Latency
 * runs from a request's scheduled send to its response, so a stall
 * charges every request queued behind it. When the server dies, every
 * unanswered request and every request due before the restarted
 * server listens is counted as failed; nothing is retried.
 */
#ifndef SERVEBENCH_LOADGEN_H
#define SERVEBENCH_LOADGEN_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "servebench/driver/common.h"
#include "servebench/driver/server.h"
#include "servebench/driver/workload.h"

namespace servebench {

/** Load threads and connections per thread (four connections in all). */
constexpr int kLoadThreads = 2;
constexpr int kConnectionsPerThread = 2;

/** One scheduled request. */
struct Scheduled
{
    std::int64_t offset_ns = 0;  ///< From the phase start.
    std::uint64_t id = 0;
    std::size_t pool_index = 0;
    bool check = false;  ///< Keep the response for the output check.
};

/**
 * The seeded schedule of one phase, per connection. The same
 * (seed, qps, seconds) always gives the same arrivals, ids and picks.
 */
std::vector<std::vector<Scheduled>> make_schedule(std::uint64_t seed,
                                                  double qps, double seconds,
                                                  std::size_t pool_size,
                                                  std::int64_t checks);

/** Length of the host-steal windows a phase is cut into. */
constexpr std::int64_t kWindowNs = 250'000'000;

/** One window of a phase, sampled by the supervising thread. */
struct Window
{
    double steal_pct = 0.0;  ///< Host steal over the window.
    double server_cpu_ms = 0.0;
    /** False when the server restarted inside the window. */
    bool valid = true;
};

/** A response kept for the bit-exact check after the phase. */
struct Checked
{
    std::uint64_t id = 0;
    std::size_t pool_index = 0;
    shredder::Tensor output;
};

/** What one phase measured. */
struct PhaseResult
{
    std::int64_t attempted = 0;  ///< Requests scheduled.
    std::int64_t sent = 0;
    std::int64_t ok = 0;      ///< kOk responses (check failures move to failed).
    std::int64_t failed = 0;  ///< Non-kOk, unanswered, or due while down.
    std::int64_t restarts = 0;
    std::int64_t request_bytes = 0;  ///< Encoded request frames sent.
    std::vector<double> latency_ms;  ///< kOk responses.
    /** Window of each `latency_ms` entry, by its scheduled send. */
    std::vector<std::size_t> latency_window;
    std::vector<Window> windows;
    std::vector<double> lag_ms;      ///< Actual minus scheduled send.
    std::vector<Checked> checked;
    std::vector<Span> spans;  ///< Traced phases only.
};

/**
 * Drive one phase against the supervised server; the calling thread
 * supervises the child while the load threads run. `at_end` runs on
 * the calling thread after the last response, while the connections
 * (and the server's threads serving them) are still open.
 */
PhaseResult run_phase(const Workload& workload,
                      const std::vector<shredder::Tensor>& pool,
                      const std::vector<std::vector<Scheduled>>& schedule,
                      bool traced, ServerSupervisor& supervisor,
                      const std::function<void()>& at_end = nullptr);

}  // namespace servebench

#endif  // SERVEBENCH_LOADGEN_H
