/**
 * @file
 * `servebench_driver` — one benchmark run of one workload.
 *
 *   servebench_driver --workload <name> --seed <n> --seconds <s>
 *       --trace <0|1> --serve <shredder_serve> --work <dir>
 *       [--inject-kill <phase>:<fraction>]
 *
 * Untraced (`--trace 0`): cold-start `shredder_serve --listen` on the
 * workload's seeded bundle several times (setup time), then drive a
 * warm-up, a low-rate and a high-rate open-loop phase over loopback
 * TCP, check a seeded sample of responses bit for bit, and print the
 * end-to-end metrics. Traced (`--trace 1`): run the in-process layer
 * probe, then the same phases with client spans and /metrics, /proc
 * reads between them, and print the per-layer metrics. The last stdout
 * line is the JSON result either way.
 *
 * `--inject-kill high:0.5` SIGKILLs the server halfway through the
 * high-rate phase (the crash-accounting self-test). `--probe` runs the
 * layer probe itself (see probe.h); the traced run spawns it.
 */
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "servebench/driver/common.h"
#include "servebench/driver/loadgen.h"
#include "servebench/driver/probe.h"
#include "servebench/driver/server.h"
#include "servebench/driver/workload.h"

namespace {

using namespace servebench;
using namespace shredder;

/** Cold starts per untraced run; setup_s is their median. */
constexpr int kSetups = 5;
/** Responses checked bit for bit per phase. */
constexpr std::int64_t kChecks = 48;
constexpr double kWarmupSeconds = 0.5;
/** Longest a layer-probe child may run before it is killed. */
constexpr std::int64_t kProbeTimeoutNs = 60'000'000'000LL;
/** Alternating low/high block pairs of an untraced run. */
constexpr int kRounds = 5;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string serve;
    std::string work;
    std::string kill_phase;
    double kill_fraction = 0.0;
    bool probe = false;
    int probe_from = 0;
    std::uint64_t replay_seed = 0;
    double replay_seconds = 0.0;
};

bool
parse(int argc, char** argv, Options* o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has = i + 1 < argc;
        if (arg == "--probe") {
            o->probe = true;
        } else if (!has) {
            return false;
        } else if (arg == "--workload") {
            o->workload = argv[++i];
        } else if (arg == "--seed") {
            o->seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds") {
            o->seconds = std::atof(argv[++i]);
        } else if (arg == "--trace") {
            o->trace = std::atoi(argv[++i]);
        } else if (arg == "--serve") {
            o->serve = argv[++i];
        } else if (arg == "--work") {
            o->work = argv[++i];
        } else if (arg == "--inject-kill") {
            const std::string spec = argv[++i];
            const auto colon = spec.find(':');
            if (colon == std::string::npos) {
                return false;
            }
            o->kill_phase = spec.substr(0, colon);
            o->kill_fraction = std::atof(spec.c_str() + colon + 1);
        } else if (arg == "--from") {
            o->probe_from = std::atoi(argv[++i]);
        } else if (arg == "--replay-seed") {
            o->replay_seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--replay-seconds") {
            o->replay_seconds = std::atof(argv[++i]);
        } else {
            return false;
        }
    }
    return !o->workload.empty() && !o->work.empty() &&
           (o->probe || (o->seconds >= 1.0 && (o->trace == 0 || o->trace == 1) &&
                         !o->serve.empty()));
}

/** Counts over every request a run attempted. */
struct Tally
{
    std::int64_t attempted = 0;
    std::int64_t ok = 0;
    std::int64_t failed = 0;
    std::int64_t sent = 0;
    std::int64_t request_bytes = 0;
    std::int64_t mismatched = 0;
    std::vector<double> lag_ms;
};

/**
 * Check the phase's kept responses against the reference, off the
 * timed path: a mismatch turns an OK into a failure.
 */
void
check_outputs(PhaseResult& r, Reference& reference, const Prepared& p,
              Tally& tally)
{
    for (const Checked& c : r.checked) {
        if (!reference.matches(p.pool[c.pool_index], c.id, c.output)) {
            --r.ok;
            ++r.failed;
            ++tally.mismatched;
        }
    }
}

/** Append one block's measurements to the phase it belongs to. */
void
append(PhaseResult& into, PhaseResult block)
{
    const std::size_t windows = into.windows.size();
    const auto spans = static_cast<std::int64_t>(into.spans.size());
    into.attempted += block.attempted;
    into.sent += block.sent;
    into.ok += block.ok;
    into.failed += block.failed;
    into.restarts += block.restarts;
    into.request_bytes += block.request_bytes;
    into.latency_ms.insert(into.latency_ms.end(), block.latency_ms.begin(),
                           block.latency_ms.end());
    for (const std::size_t w : block.latency_window) {
        into.latency_window.push_back(windows + w);
    }
    into.windows.insert(into.windows.end(), block.windows.begin(),
                        block.windows.end());
    into.lag_ms.insert(into.lag_ms.end(), block.lag_ms.begin(),
                       block.lag_ms.end());
    for (Span& s : block.spans) {
        s.parent += s.parent >= 0 ? spans : 0;
        into.spans.push_back(std::move(s));
    }
}

void
add(Tally& tally, const PhaseResult& r)
{
    tally.attempted += r.attempted;
    tally.ok += r.ok;
    tally.failed += r.failed;
    tally.sent += r.sent;
    tally.request_bytes += r.request_bytes;
    tally.lag_ms.insert(tally.lag_ms.end(), r.lag_ms.begin(), r.lag_ms.end());
}

/**
 * One blocking request on a fresh connection; the output when the
 * answer was kOk for `id`, an empty tensor otherwise.
 */
Tensor
first_response(std::uint16_t port, const std::string& frame, std::uint64_t id)
{
    const int fd = connect_loopback(port);
    if (fd < 0) {
        return Tensor();
    }
    bool ok = ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) ==
              static_cast<ssize_t>(frame.size());
    std::string in;
    char buf[65536];
    std::uint32_t length = 0;
    while (ok) {
        if (in.size() >= 12) {
            std::memcpy(&length, in.data() + 8, sizeof(length));
            if (in.size() >= 12 + static_cast<std::size_t>(length)) {
                break;
            }
        }
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        ok = n > 0;
        if (ok) {
            in.append(buf, static_cast<std::size_t>(n));
        }
    }
    ::close(fd);
    if (!ok) {
        return Tensor();
    }
    try {
        net::Response r = net::decode_response_payload(in.substr(12, length));
        return r.status == net::WireStatus::kOk && r.request_id == id
                   ? std::move(r.output)
                   : Tensor();
    } catch (const runtime::ServingError&) {
        return Tensor();
    }
}

/**
 * The valid windows of a phase with the least steal on the benchmark's
 * vCPU: the quietest kQuietShare of them, at least one. Neighbours on
 * a shared host slow the same code by up to 2x in steal bursts that
 * last seconds, so the gated latency and CPU metrics are medians over
 * these windows; failures count in every window.
 */
std::vector<bool>
quiet_windows(const std::vector<Window>& windows)
{
    constexpr double kQuietShare = 0.5;
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        if (windows[i].valid) {
            order.push_back(i);
        }
    }
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return windows[a].steal_pct < windows[b].steal_pct;
    });
    const auto keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(kQuietShare * order.size())));
    std::vector<bool> quiet(windows.size(), false);
    for (std::size_t i = 0; i < std::min(keep, order.size()); ++i) {
        quiet[order[i]] = true;
    }
    return quiet;
}

/** Latencies grouped by the window their request was due in. */
std::vector<std::vector<double>>
latencies_by_window(const PhaseResult& r)
{
    std::vector<std::vector<double>> by(r.windows.size());
    for (std::size_t i = 0; i < r.latency_ms.size(); ++i) {
        if (r.latency_window[i] < by.size()) {
            by[r.latency_window[i]].push_back(r.latency_ms[i]);
        }
    }
    return by;
}

/**
 * Median over the phase's quiet windows (those with answers) of a
 * per-window statistic of (window index, its latencies).
 */
double
quiet_median(const PhaseResult& r,
             const std::function<double(std::size_t, const std::vector<double>&)>&
                 stat)
{
    const std::vector<bool> quiet = quiet_windows(r.windows);
    const auto by = latencies_by_window(r);
    std::vector<double> values;
    for (std::size_t w = 0; w < by.size(); ++w) {
        if (quiet[w] && !by[w].empty()) {
            values.push_back(stat(w, by[w]));
        }
    }
    return median(values);
}

double
quiet_p50_ms(const PhaseResult& r)
{
    return quiet_median(r, [](std::size_t, const std::vector<double>& lat) {
        return median(lat);
    });
}

/** Server CPU per answered request, in ms. */
double
quiet_cpu_ms_per_req(const PhaseResult& r)
{
    return quiet_median(r, [&r](std::size_t w, const std::vector<double>& lat) {
        return r.windows[w].server_cpu_ms / static_cast<double>(lat.size());
    });
}

double
quiet_steal_pct(const PhaseResult& r)
{
    return quiet_median(r, [&r](std::size_t w, const std::vector<double>&) {
        return r.windows[w].steal_pct;
    });
}

/** Append one line per window: what the noise attribution rests on. */
void
write_windows(std::ostream& out, const char* name, const PhaseResult& r)
{
    const auto latency = latencies_by_window(r);
    for (std::size_t w = 0; w < r.windows.size(); ++w) {
        out << name << '\t' << w << '\t' << r.windows[w].steal_pct << '\t'
            << r.windows[w].server_cpu_ms << '\t' << latency[w].size() << '\t'
            << median(latency[w]) << '\n';
    }
}

void
print_phase(const char* name, const PhaseResult& r)
{
    std::printf("phase %-10s sent=%lld ok=%lld failed=%lld restarts=%lld "
                "p50_ms=%.4f p99_ms=%.4f samples=%zu lag_p50_ms=%.4f lag_p99_ms=%.4f "
                "checked=%zu quiet_p50_ms=%.4f quiet_cpu_ms_per_req=%.5f "
                "quiet_steal_pct=%.1f\n",
                name, static_cast<long long>(r.sent),
                static_cast<long long>(r.ok),
                static_cast<long long>(r.failed),
                static_cast<long long>(r.restarts),
                quantile(r.latency_ms, 0.5), quantile(r.latency_ms, 0.99),
                r.latency_ms.size(), quantile(r.lag_ms, 0.5),
                quantile(r.lag_ms, 0.99), r.checked.size(),
                quiet_p50_ms(r), quiet_cpu_ms_per_req(r),
                quiet_steal_pct(r));
    std::fflush(stdout);
}

/** Metric value with its unit, in print order. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
print_result(bool correct, const Tally& tally,
             const std::vector<Metric>& metrics)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted);
    json += ", \"failed\": " + std::to_string(tally.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
        json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

double
cpu_seconds_self()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
               1e6;
}

/** Δ of one endpoint counter family between two scrapes. */
double
delta(const Scrape& before, const Scrape& after, const std::string& series)
{
    const auto a = after.find(series);
    const auto b = before.find(series);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
}

/**
 * The q-quantile of the queue-wait histogram accumulated between two
 * scrapes, in ms, interpolated inside its power-of-two bucket.
 */
double
queue_wait_quantile_ms(const Scrape& before, const Scrape& after,
                       const std::string& endpoint, double q)
{
    const std::string prefix =
        "shredder_queue_wait_seconds_bucket{endpoint=\"" + endpoint + "\",le=\"";
    std::vector<std::pair<double, double>> buckets;  // (le seconds, Δcount)
    for (const auto& [series, value] : after) {
        if (series.compare(0, prefix.size(), prefix) != 0) {
            continue;
        }
        const std::string le = series.substr(prefix.size());
        const double bound =
            le.rfind("+Inf", 0) == 0 ? INFINITY : std::strtod(le.c_str(), nullptr);
        buckets.emplace_back(bound, value - (before.count(series) != 0
                                                 ? before.at(series)
                                                 : 0.0));
    }
    std::sort(buckets.begin(), buckets.end());
    if (buckets.empty() || buckets.back().second <= 0.0) {
        return 0.0;
    }
    const double target = q * buckets.back().second;
    double lower = 0.0;
    double below = 0.0;
    for (const auto& [bound, cumulative] : buckets) {
        if (cumulative >= target) {
            if (!std::isfinite(bound)) {
                return lower * 1e3;
            }
            const double span = cumulative - below;
            const double frac = span > 0.0 ? (target - below) / span : 1.0;
            return (lower + (bound - lower) * frac) * 1e3;
        }
        lower = bound;
        below = cumulative;
    }
    return lower * 1e3;
}

/** Median duration of the named spans, in µs. */
double
median_us(const std::vector<Span>& spans, const std::string& name)
{
    std::vector<double> us;
    for (const Span& s : spans) {
        if (s.name == name && s.end_ns > s.start_ns) {
            us.push_back(s.us());
        }
    }
    return median(us);
}

/**
 * Run the layer probe child to completion, restarting it after an item
 * it died in (the crashed item keeps the calls it finished).
 */
std::vector<Span>
run_probe_child(const Options& o, const char* self, const std::string& dir,
                std::uint64_t replay_seed, double replay_seconds,
                std::int64_t* crashes)
{
    std::vector<Span> spans;
    int from = 0;
    while (from < kProbeItemCount) {
        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0) {
            throw std::runtime_error("pipe2 failed");
        }
        const std::vector<std::string> args = {
            self, "--probe", "--workload", o.workload, "--seed",
            std::to_string(o.seed), "--work", dir, "--from",
            std::to_string(from), "--replay-seed", std::to_string(replay_seed),
            "--replay-seconds", std::to_string(replay_seconds)};
        std::vector<char*> argv;
        for (const std::string& a : args) {
            argv.push_back(const_cast<char*>(a.c_str()));
        }
        argv.push_back(nullptr);
        const pid_t pid = ::fork();
        if (pid < 0) {
            throw std::runtime_error("fork failed");
        }
        if (pid == 0) {
            const rlimit no_core{0, 0};
            ::setrlimit(RLIMIT_CORE, &no_core);
            ::dup2(fds[1], STDOUT_FILENO);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        ::close(fds[1]);
        // A probe wedged by the same race is killed and counted as a crash.
        const std::int64_t deadline = now_ns() + kProbeTimeoutNs;
        std::string text;
        char buf[65536];
        for (;;) {
            pollfd pfd{fds[0], POLLIN, 0};
            const auto wait_ms = static_cast<int>(
                std::max<std::int64_t>(0, deadline - now_ns()) / 1000000);
            if (::poll(&pfd, 1, wait_ms) <= 0) {
                ::kill(pid, SIGKILL);
                break;
            }
            const ssize_t n = ::read(fds[0], buf, sizeof(buf));
            if (n <= 0) {
                break;
            }
            text.append(buf, static_cast<std::size_t>(n));
        }
        ::close(fds[0]);
        int status = 0;
        ::waitpid(pid, &status, 0);

        const auto base = static_cast<std::int64_t>(spans.size());
        int last_done = from - 1;
        std::istringstream lines(text);
        std::string kind;
        while (lines >> kind) {
            if (kind == "done") {
                lines >> last_done;
                continue;
            }
            std::int64_t index = 0;
            Span s;
            lines >> index >> s.name >> s.start_ns >> s.end_ns >> s.parent >>
                s.request_id;
            if (!lines) {
                break;  // a line cut short by the crash
            }
            const auto slot = static_cast<std::size_t>(base + index);
            if (spans.size() <= slot) {
                spans.resize(slot + 1);
            }
            if (s.parent >= 0) {
                s.parent += base;
            }
            spans[slot] = std::move(s);
        }
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            break;
        }
        ++*crashes;
        std::fprintf(stderr, "servebench: layer probe died in item %d (%s)\n",
                     last_done + 1,
                     last_done + 1 < kProbeItemCount ? kProbeItems[last_done + 1]
                                                     : "?");
        from = last_done + 2;
    }
    return spans;
}

void
write_spans(const std::string& path, const std::vector<Span>& spans)
{
    std::ofstream out(path);
    out << "index\tname\tstart_ns\tend_ns\tparent\trequest_id\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if (!s.name.empty()) {
            out << i << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns
                << '\t' << s.parent << '\t' << s.request_id << '\n';
        }
    }
}

int
run(const Options& o, const char* self)
{
    const Workload* found = find_workload(o.workload);
    if (found == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
        return 2;
    }
    const Workload& w = *found;
    const std::string dir = o.work + "/" + w.name + "-" +
                            std::to_string(o.seed) + "-trace" +
                            std::to_string(o.trace);
    std::filesystem::create_directories(dir);

    const Prepared p = prepare(w, o.seed, dir);
    check_identity(w, p);
    Reference reference(w, p);

    // The untraced run alternates kRounds low- and high-rate blocks, so
    // each phase samples the host over the whole run rather than over
    // one stretch of it. The traced run plays one low block untraced,
    // the same schedule traced, then one high block traced; its probe
    // replays that low schedule in process.
    const int rounds = o.trace == 0 ? kRounds : 1;
    const double measured = o.seconds - kWarmupSeconds;
    const double low_s = (o.trace == 0 ? 0.4 : 0.25) * measured / rounds;
    const double high_s = (o.trace == 0 ? 0.6 : 0.25) * measured / rounds;
    const auto warmup = make_schedule(mix_seed(o.seed, 10), w.low_qps,
                                      kWarmupSeconds, p.pool.size(), 8);
    std::vector<std::vector<std::vector<Scheduled>>> lows;
    std::vector<std::vector<std::vector<Scheduled>>> highs;
    for (int k = 0; k < rounds; ++k) {
        const auto round = static_cast<std::uint64_t>(k);
        lows.push_back(make_schedule(mix_seed(o.seed, 11 + 2 * round),
                                     w.low_qps, low_s, p.pool.size(),
                                     kChecks / rounds));
        highs.push_back(make_schedule(mix_seed(o.seed, 12 + 2 * round),
                                      w.high_qps, high_s, p.pool.size(),
                                      kChecks / rounds));
    }
    const std::uint64_t low_seed = mix_seed(o.seed, 11);

    std::vector<Span> spans;
    std::int64_t probe_crashes = 0;
    if (o.trace == 1) {
        spans = run_probe_child(o, self, dir + "/probe", low_seed, low_s,
                                &probe_crashes);
    }

    Tally tally;
    bool correct = true;
    const HostCpu host_before = read_host_cpu();
    const double client_cpu_before = cpu_seconds_self();

    ServerSupervisor server({o.serve, p.manifest_path, "--listen", "127.0.0.1:0",
                             "--shards", std::to_string(kShards),
                             "--threads-per-shard", std::to_string(kThreadsPerShard)},
                            dir + "/server.log");
    std::vector<double> setup_s;
    const std::uint64_t setup_id = mix_seed(o.seed, 13);
    const std::string setup_frame = encode_request(w, p.pool.front(), setup_id);
    for (int i = 0; i < (o.trace == 0 ? kSetups : 1); ++i) {
        server.stop();
        const std::int64_t start = now_ns();
        server.spawn();
        const Tensor output = first_response(server.port(), setup_frame, setup_id);
        setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
        const bool ok = output.size() > 0 &&
                        reference.matches(p.pool.front(), setup_id, output);
        ++tally.attempted;
        ++tally.sent;
        tally.request_bytes += static_cast<std::int64_t>(setup_frame.size());
        (ok ? tally.ok : tally.failed) += 1;
        correct = correct && ok;
    }
    std::printf("setup: %zu cold starts, median %.4f s\n", setup_s.size(),
                median(setup_s));

    std::ofstream windows_log(dir + "/windows.tsv");
    windows_log << "phase\twindow\tsteal_pct\tserver_cpu_ms\tanswered\tp50_ms\n";
    bool kill_pending = !o.kill_phase.empty();
    auto phase = [&](const std::string& name,
                     const std::vector<std::vector<Scheduled>>& schedule,
                     bool traced, const std::function<void()>& at_end) {
        server.ensure_alive();
        if (kill_pending && o.kill_phase == name) {
            kill_pending = false;
            server.schedule_kill(now_ns() +
                                 static_cast<std::int64_t>(
                                     o.kill_fraction *
                                     static_cast<double>(
                                         schedule.front().empty()
                                             ? 0
                                             : schedule.front().back().offset_ns)));
        }
        PhaseResult r = run_phase(w, p.pool, schedule, traced, server, at_end);
        check_outputs(r, reference, p, tally);
        add(tally, r);
        print_phase(name.c_str(), r);
        write_windows(windows_log, name.c_str(), r);
        return r;
    };

    std::vector<Metric> metrics;
    phase("warmup", warmup, false, nullptr);
    PhaseResult low_r;
    PhaseResult low_traced;
    PhaseResult high_r;
    std::uint64_t epoch_before = 0;
    Scrape scrape_before;
    std::int64_t high_ctx = 0;
    TaskCounters tasks;
    Scrape scrape_after;
    double rss_mib = 0.0;
    for (int k = 0; k < rounds; ++k) {
        append(low_r, phase("low", lows[k], false, nullptr));
        if (o.trace == 1) {
            low_traced = phase("low-traced", lows[k], true, nullptr);
            server.ensure_alive();
            epoch_before = server.epoch();
            scrape_before = scrape_metrics(server.port());
        }
        server.mark();
        append(high_r, phase("high", highs[k], o.trace == 1, [&] {
                   rss_mib = vm_hwm_mib(server.pid());
                   high_ctx += server.ctx_switches_since_mark();
                   if (o.trace == 1) {
                       tasks = read_task_counters(server.pid());
                       scrape_after = scrape_metrics(server.port());
                   }
               }));
    }
    const double client_cpu_s = cpu_seconds_self() - client_cpu_before;
    const HostCpu host_after = read_host_cpu();
    server.stop();
    correct = correct && tally.mismatched == 0;

    const double high_ok = static_cast<double>(std::max<std::int64_t>(1, high_r.ok));
    const double steal_pct =
        100.0 * static_cast<double>(host_after.steal - host_before.steal) /
        static_cast<double>(std::max<std::int64_t>(1, host_after.total - host_before.total));
    if (o.trace == 0) {
        metrics = {
            {"setup_s", median(setup_s), "s"},
            {"server_cpu_ms_per_req", quiet_cpu_ms_per_req(high_r), "ms"},
            {"ok_frac",
             static_cast<double>(tally.ok) /
                 static_cast<double>(std::max<std::int64_t>(1, tally.attempted)),
             "frac"},
            {"wire_bytes_per_req",
             static_cast<double>(tally.request_bytes) /
                 static_cast<double>(std::max<std::int64_t>(1, tally.sent)),
             "B"},
            {"server_rss_mb", rss_mib, "MiB"},
        };
    } else {
        for (const PhaseResult* traced :
             std::vector<const PhaseResult*>{&low_traced, &high_r}) {
            const auto base = static_cast<std::int64_t>(spans.size());
            for (Span s : traced->spans) {
                s.parent += s.parent >= 0 ? base : 0;
                spans.push_back(std::move(s));
            }
        }
        write_spans(dir + "/spans.tsv", spans);

        // Scrapes from different server lifetimes do not subtract.
        const Scrape none;
        const Scrape& before =
            server.epoch() == epoch_before ? scrape_before : none;
        const std::string ep = "{endpoint=\"" + w.endpoint + "\"}";
        const double batches =
            std::max(1.0, delta(before, scrape_after, "shredder_batches_total" + ep));
        const double low_p50 = quantile(low_r.latency_ms, 0.5);
        std::vector<double> inproc_ms;
        for (const Span& s : spans) {
            if (s.name == kProbeItems[kProbeItemCount - 1] && s.end_ns > s.start_ns) {
                inproc_ms.push_back(s.us() / 1e3);
            }
        }
        metrics = {
            {"p50_ms.low", quiet_p50_ms(low_r), "ms"},
            {"p50_ms.high", quiet_p50_ms(high_r), "ms"},
            {"deploy.load_bundle_ms", median_us(spans, kProbeItems[0]) / 1e3, "ms"},
            {"deploy.register_ms", median_us(spans, kProbeItems[1]) / 1e3, "ms"},
            {"net.encode_us", median_us(spans, kProbeItems[2]), "us"},
            {"net.decode_us", median_us(spans, kProbeItems[3]), "us"},
            {"net.tcp_share_ms.low", low_p50 - median(inproc_ms), "ms"},
            {"server.ctx_switches_per_req.high",
             static_cast<double>(high_ctx) / high_ok, "count"},
            {"server.threads", static_cast<double>(tasks.threads), "count"},
            {"runtime.mean_batch.high",
             delta(before, scrape_after, "shredder_requests_total" + ep) / batches,
             "count"},
            {"runtime.batch_exec_ms.high",
             delta(before, scrape_after, "shredder_busy_seconds_total" + ep) * 1e3 /
                 batches,
             "ms"},
            {"runtime.queue_wait_p50_ms.high",
             queue_wait_quantile_ms(before, scrape_after, w.endpoint, 0.5), "ms"},
            {"runtime.queue_wait_p99_ms.high",
             queue_wait_quantile_ms(before, scrape_after, w.endpoint, 0.99), "ms"},
            {"runtime.policy_apply_us", median_us(spans, kProbeItems[5]), "us"},
            {"runtime.fused_frac.high",
             delta(before, scrape_after, "shredder_fp32_fused_batches_total" + ep) /
                 batches,
             "frac"},
            {"runtime.int8_direct_frac.high",
             delta(before, scrape_after, "shredder_int8_direct_batches_total" + ep) /
                 batches,
             "frac"},
            {"split.cloud_forward_us.b1", median_us(spans, kProbeItems[6]), "us"},
            {"split.cloud_forward_us.b8", median_us(spans, kProbeItems[7]), "us"},
            {"tensor.gemm_f32_us.cut", median_us(spans, kProbeItems[8]), "us"},
            {"tensor.gemm_s8_us.cut", median_us(spans, kProbeItems[9]), "us"},
            {"tensor.quantize_us", median_us(spans, kProbeItems[4]), "us"},
            {"lat.p99_ms.low", quantile(low_r.latency_ms, 0.99), "ms"},
            {"lat.p99_ms.high", quantile(high_r.latency_ms, 0.99), "ms"},
            {"lat.samples.low", static_cast<double>(low_r.latency_ms.size()), "count"},
            {"lat.samples.high", static_cast<double>(high_r.latency_ms.size()),
             "count"},
            {"client.cpu_ms_per_req",
             client_cpu_s * 1e3 /
                 static_cast<double>(std::max<std::int64_t>(1, tally.sent)),
             "ms"},
            {"loadgen.lag_p99_ms", quantile(tally.lag_ms, 0.99), "ms"},
            {"host.steal_pct", steal_pct, "%"},
            {"server.restarts", static_cast<double>(server.restarts()), "count"},
            {"probe.restarts", static_cast<double>(probe_crashes), "count"},
            {"trace.overhead_pct",
             low_p50 > 0.0
                 ? 100.0 * (quantile(low_traced.latency_ms, 0.5) - low_p50) / low_p50
                 : 0.0,
             "%"},
        };
    }
    std::printf("run: attempted=%lld ok=%lld failed=%lld mismatched=%lld "
                "restarts=%lld steal_pct=%.2f ctx_switches_per_req_high=%.3f "
                "lag_p99_ms=%.4f\n",
                static_cast<long long>(tally.attempted),
                static_cast<long long>(tally.ok),
                static_cast<long long>(tally.failed),
                static_cast<long long>(tally.mismatched),
                static_cast<long long>(server.restarts()), steal_pct,
                static_cast<double>(high_ctx) / high_ok,
                quantile(tally.lag_ms, 0.99));
    print_result(correct, tally, metrics);
    return 0;
}

/**
 * Run the driver, and through inheritance every server and probe it
 * spawns, on the first CPU this process may use. On a shared 4-vCPU
 * guest, spreading the client and server threads over all vCPUs made
 * every request's wakeup chain cross vCPUs, and host steal then moved
 * server CPU per request by up to +55% and p50 at 8k req/s by up to
 * 3x between runs of identical code; on one vCPU the same runs held
 * CPU per request within ±2%.
 */
void
pin_to_one_cpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
        return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            ::sched_setaffinity(0, sizeof(one), &one);
            return;
        }
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    Options o;
    if (!parse(argc, argv, &o)) {
        std::fprintf(stderr,
                     "usage: %s --workload <name> --seed <n> --seconds <s> "
                     "--trace <0|1> --serve <shredder_serve> --work <dir> "
                     "[--inject-kill <phase>:<fraction>]\n",
                     argv[0]);
        return 2;
    }
    pin_to_one_cpu();
    try {
        if (o.probe) {
            const Workload* w = find_workload(o.workload);
            return w == nullptr ? 2
                                : run_probe(*w, o.seed, o.work, o.probe_from,
                                            o.replay_seed, o.replay_seconds);
        }
        return run(o, argv[0]);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "servebench: %s\n", e.what());
        return 1;
    }
}
