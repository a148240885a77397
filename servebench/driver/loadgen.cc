/**
 * @file
 * Open-loop load threads: scheduled sends, response matching, and
 * crash accounting.
 */
#include "servebench/driver/loadgen.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <random>
#include <thread>

namespace servebench {

using namespace shredder;

namespace {

/** How long after the last scheduled send unanswered requests may still arrive. */
constexpr std::int64_t kDrainNs = 5'000'000'000LL;
/** Head start the load threads get to connect before the first send. */
constexpr std::int64_t kLeadNs = 20'000'000LL;
constexpr std::size_t kEnvelopeBytes = 12;

std::uint32_t
read_u32(const char* p)
{
    std::uint32_t v = 0;
    std::memcpy(&v, p, sizeof(v));  // frames are little-endian, as is x86
    return v;
}

struct Pending
{
    std::int64_t due_ns = 0;
    const Scheduled* request = nullptr;
    std::int64_t span = -1;  ///< Root span of a traced request.
};

/** One connection's replay of its schedule. */
struct Connection
{
    const std::vector<Scheduled>* schedule = nullptr;
    std::size_t next = 0;
    int fd = -1;
    std::uint64_t epoch = 0;
    bool broken = false;
    std::deque<Pending> in_flight;
    std::string buffer;
};

/** Everything one load thread owns. */
class LoadThread
{
  public:
    LoadThread(const Workload& workload, const std::vector<Tensor>& pool,
               ServerSupervisor& supervisor, bool traced, std::int64_t t0)
        : workload_(workload), pool_(pool), supervisor_(supervisor),
          traced_(traced), t0_(t0)
    {
    }

    void add(const std::vector<Scheduled>& schedule)
    {
        Connection c;
        c.schedule = &schedule;
        connections_.push_back(std::move(c));
    }

    /** Replay the schedules; returns with the connections still open. */
    void run();
    void close_connections();

    PhaseResult result;

  private:
    void connect(Connection& c, std::uint64_t epoch, std::uint16_t port);
    void recover(Connection& c);
    void send_due(Connection& c, std::int64_t now);
    void receive(Connection& c);
    void fail_in_flight(Connection& c);
    bool finished(const Connection& c) const
    {
        return c.next == c.schedule->size() && c.in_flight.empty();
    }

    const Workload& workload_;
    const std::vector<Tensor>& pool_;
    ServerSupervisor& supervisor_;
    bool traced_;
    std::int64_t t0_;
    std::vector<Connection> connections_;
};

void
LoadThread::connect(Connection& c, std::uint64_t epoch, std::uint16_t port)
{
    c.epoch = epoch;
    c.fd = port == 0 ? -1 : connect_loopback(port);
    c.broken = false;
    c.buffer.clear();
    if (c.fd < 0) {
        // No server to talk to: everything left on this connection fails.
        const auto left =
            static_cast<std::int64_t>(c.schedule->size() - c.next);
        result.attempted += left;
        result.failed += left;
        c.next = c.schedule->size();
    }
}

void
LoadThread::fail_in_flight(Connection& c)
{
    result.failed += static_cast<std::int64_t>(c.in_flight.size());
    c.in_flight.clear();
    if (c.fd >= 0) {
        ::close(c.fd);
        c.fd = -1;
    }
}

void
LoadThread::recover(Connection& c)
{
    fail_in_flight(c);
    const auto [epoch, port] = supervisor_.recover(c.epoch);
    // Requests that fell due while no server listened are failures.
    const std::int64_t back = now_ns();
    while (c.next < c.schedule->size() &&
           t0_ + (*c.schedule)[c.next].offset_ns < back) {
        ++result.attempted;
        ++result.failed;
        ++c.next;
    }
    connect(c, epoch, port);
}

void
LoadThread::send_due(Connection& c, std::int64_t now)
{
    while (!c.broken && c.next < c.schedule->size()) {
        const Scheduled& s = (*c.schedule)[c.next];
        const std::int64_t due = t0_ + s.offset_ns;
        if (due > now) {
            return;
        }
        ++c.next;
        ++result.attempted;
        const std::int64_t start = now_ns();
        const std::string frame =
            encode_request(workload_, pool_[s.pool_index], s.id);
        const std::int64_t encoded = now_ns();
        Pending pending{due, &s, -1};
        if (traced_) {
            pending.span = static_cast<std::int64_t>(result.spans.size());
            result.spans.push_back({"request", due, 0, -1, s.id});
            result.spans.push_back(
                {"net::encode_request", start, encoded, pending.span, s.id});
        }
        c.in_flight.push_back(pending);
        ++result.sent;
        result.request_bytes += static_cast<std::int64_t>(frame.size());
        result.lag_ms.push_back(static_cast<double>(start - due) / 1e6);
        std::size_t off = 0;
        while (off < frame.size()) {
            const ssize_t n = ::send(c.fd, frame.data() + off,
                                     frame.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n <= 0) {
                c.broken = true;
                return;
            }
            off += static_cast<std::size_t>(n);
        }
        now = now_ns();
    }
}

void
LoadThread::receive(Connection& c)
{
    char buf[65536];
    for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0) {
            c.buffer.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
            c.broken = true;
        }
        break;
    }
    const std::int64_t arrived = now_ns();
    std::size_t off = 0;
    while (c.buffer.size() - off >= kEnvelopeBytes) {
        const char* head = c.buffer.data() + off;
        const std::uint32_t length = read_u32(head + 8);
        if (read_u32(head) != net::kResponseMagic ||
            length > net::kMaxFramePayload) {
            c.broken = true;
            break;
        }
        if (c.buffer.size() - off < kEnvelopeBytes + length) {
            break;
        }
        const std::string payload(head + kEnvelopeBytes, length);
        off += kEnvelopeBytes + length;
        if (c.in_flight.empty()) {
            c.broken = true;  // an answer nobody asked for
            break;
        }
        const Pending pending = c.in_flight.front();
        c.in_flight.pop_front();
        const std::int64_t decode_start = now_ns();
        net::Response response;
        try {
            response = net::decode_response_payload(payload);
        } catch (const runtime::ServingError&) {
            ++result.failed;
            c.broken = true;
            break;
        }
        const std::int64_t decoded = now_ns();
        if (traced_) {
            result.spans[static_cast<std::size_t>(pending.span)].end_ns =
                arrived;
            result.spans.push_back({"net::decode_response_payload",
                                    decode_start, decoded, pending.span,
                                    pending.request->id});
        }
        if (response.status != net::WireStatus::kOk ||
            response.request_id != pending.request->id) {
            ++result.failed;
            continue;
        }
        ++result.ok;
        result.latency_ms.push_back(
            static_cast<double>(arrived - pending.due_ns) / 1e6);
        result.latency_window.push_back(static_cast<std::size_t>(
            pending.request->offset_ns / kWindowNs));
        if (pending.request->check) {
            result.checked.push_back({pending.request->id,
                                      pending.request->pool_index,
                                      std::move(response.output)});
        }
    }
    c.buffer.erase(0, off);
}

void
LoadThread::run()
{
    // Wake for each send on time instead of up to 50 µs late. Only
    // this thread's slack changes; children are spawned elsewhere.
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    for (Connection& c : connections_) {
        connect(c, supervisor_.epoch(), supervisor_.port());
    }
    std::int64_t last_due = t0_;
    for (const Connection& c : connections_) {
        if (!c.schedule->empty()) {
            last_due = std::max(last_due, t0_ + c.schedule->back().offset_ns);
        }
    }
    const std::int64_t drain_deadline = last_due + kDrainNs;
    std::vector<pollfd> fds(connections_.size());
    for (;;) {
        bool all_done = true;
        std::int64_t wake = drain_deadline;
        const std::int64_t now = now_ns();
        for (std::size_t i = 0; i < connections_.size(); ++i) {
            Connection& c = connections_[i];
            if (c.broken) {
                recover(c);
            }
            send_due(c, now_ns());
            if (c.next < c.schedule->size()) {
                wake = std::min(wake, t0_ + (*c.schedule)[c.next].offset_ns);
            }
            all_done = all_done && finished(c);
            fds[i] = {c.fd, static_cast<short>(c.fd >= 0 ? POLLIN : 0), 0};
        }
        if (all_done) {
            break;
        }
        if (now >= drain_deadline) {
            for (Connection& c : connections_) {
                fail_in_flight(c);
            }
            break;
        }
        const std::int64_t wait = std::max<std::int64_t>(0, wake - now_ns());
        const timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                               static_cast<long>(wait % 1'000'000'000)};
        if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) {
            continue;
        }
        for (std::size_t i = 0; i < connections_.size(); ++i) {
            if (fds[i].revents != 0 && connections_[i].fd >= 0) {
                receive(connections_[i]);
            }
        }
    }
}

void
LoadThread::close_connections()
{
    for (Connection& c : connections_) {
        if (c.fd >= 0) {
            ::close(c.fd);
            c.fd = -1;
        }
    }
}

}  // namespace

std::vector<std::vector<Scheduled>>
make_schedule(std::uint64_t seed, double qps, double seconds,
              std::size_t pool_size, std::int64_t checks)
{
    const int connections = kLoadThreads * kConnectionsPerThread;
    const double per_connection_qps = qps / connections;
    const double check_probability =
        std::min(1.0, static_cast<double>(checks) / (qps * seconds));
    std::vector<std::vector<Scheduled>> schedule(
        static_cast<std::size_t>(connections));
    for (int c = 0; c < connections; ++c) {
        Rng rng(mix_seed(seed, static_cast<std::uint64_t>(c) + 1));
        auto& engine = rng.engine();
        std::exponential_distribution<double> gap_s(per_connection_qps);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        const std::uint64_t id_base = mix_seed(seed, 0x1D00 + c);
        double at_s = gap_s(engine);
        for (std::uint64_t i = 0; at_s < seconds; ++i) {
            Scheduled s;
            s.offset_ns = static_cast<std::int64_t>(at_s * 1e9);
            s.id = id_base + i;
            s.pool_index = static_cast<std::size_t>(engine() % pool_size);
            s.check = unit(engine) < check_probability;
            schedule[static_cast<std::size_t>(c)].push_back(s);
            at_s += gap_s(engine);
        }
    }
    return schedule;
}

PhaseResult
run_phase(const Workload& workload, const std::vector<Tensor>& pool,
          const std::vector<std::vector<Scheduled>>& schedule, bool traced,
          ServerSupervisor& supervisor, const std::function<void()>& at_end)
{
    const std::int64_t t0 = now_ns() + kLeadNs;
    const std::int64_t restarts_before = supervisor.restarts();
    std::vector<std::unique_ptr<LoadThread>> loads;
    for (int t = 0; t < kLoadThreads; ++t) {
        loads.push_back(std::make_unique<LoadThread>(workload, pool,
                                                     supervisor, traced, t0));
        for (int c = 0; c < kConnectionsPerThread; ++c) {
            loads.back()->add(schedule[static_cast<std::size_t>(
                t * kConnectionsPerThread + c)]);
        }
    }
    std::atomic<int> running{kLoadThreads};
    std::vector<std::thread> threads;
    for (auto& load : loads) {
        threads.emplace_back([&running, l = load.get()] {
            l->run();
            running.fetch_sub(1);
        });
    }
    // Sample host steal and server CPU at every window boundary.
    struct Sample
    {
        HostCpu host;
        std::int64_t cpu_ns = 0;
        std::int64_t restarts = 0;
    };
    std::vector<Sample> samples;
    const auto sample = [&] {
        samples.push_back({read_host_cpu(), process_cpu_ns(supervisor.pid()),
                           supervisor.restarts()});
    };
    std::int64_t boundary = t0;
    supervisor.supervise([&running] { return running.load() == 0; },
                         [&] {
                             if (now_ns() >= boundary) {
                                 sample();
                                 boundary += kWindowNs;
                             }
                         });
    sample();
    for (std::thread& t : threads) {
        t.join();
    }
    if (at_end) {
        at_end();
    }
    for (auto& load : loads) {
        load->close_connections();
    }

    PhaseResult merged;
    for (auto& load : loads) {
        PhaseResult& r = load->result;
        merged.attempted += r.attempted;
        merged.sent += r.sent;
        merged.ok += r.ok;
        merged.failed += r.failed;
        merged.request_bytes += r.request_bytes;
        merged.latency_ms.insert(merged.latency_ms.end(),
                                 r.latency_ms.begin(), r.latency_ms.end());
        merged.latency_window.insert(merged.latency_window.end(),
                                     r.latency_window.begin(),
                                     r.latency_window.end());
        merged.lag_ms.insert(merged.lag_ms.end(), r.lag_ms.begin(),
                             r.lag_ms.end());
        for (Checked& c : r.checked) {
            merged.checked.push_back(std::move(c));
        }
        const auto base = static_cast<std::int64_t>(merged.spans.size());
        for (Span& s : r.spans) {
            if (s.parent >= 0) {
                s.parent += base;
            }
            merged.spans.push_back(std::move(s));
        }
    }
    for (std::size_t i = 1; i < samples.size(); ++i) {
        const Sample& a = samples[i - 1];
        const Sample& b = samples[i];
        Window window;
        window.steal_pct =
            100.0 * static_cast<double>(b.host.steal - a.host.steal) /
            static_cast<double>(std::max<std::int64_t>(1, b.host.total - a.host.total));
        window.server_cpu_ms = static_cast<double>(b.cpu_ns - a.cpu_ns) / 1e6;
        window.valid = b.restarts == a.restarts;
        merged.windows.push_back(window);
    }
    merged.restarts = supervisor.restarts() - restarts_before;
    return merged;
}

}  // namespace servebench
