/**
 * @file
 * Shared helpers for the table/figure benchmark harness.
 *
 * Every figure/table binary honors SHREDDER_BENCH_FAST=1 (smaller
 * sweeps for smoke-testing the harness) and prints paper-vs-measured
 * rows so EXPERIMENTS.md can be filled mechanically. Binaries that
 * track the repo's perf trajectory additionally emit machine-readable
 * `BENCH_*.json` files through `JsonWriter` (see bench/micro_substrate
 * and docs/PERFORMANCE.md).
 */
#ifndef SHREDDER_BENCH_BENCH_UTIL_H
#define SHREDDER_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

#include "src/shredder/shredder.h"

namespace shredder {
namespace bench {

/** True when SHREDDER_BENCH_FAST=1 is set (reduced sweep sizes). */
inline bool
fast_mode()
{
    const char* env = std::getenv("SHREDDER_BENCH_FAST");
    return env != nullptr && env[0] == '1';
}

/** Workload-tuned noise-training config for the paper's default cut. */
inline core::NoiseTrainConfig
default_train_config(const std::string& network)
{
    core::NoiseTrainConfig cfg;
    cfg.batch_size = 16;
    cfg.learning_rate = 5e-2f;
    // init.scale is relative to the activation RMS at the cut, so one
    // recipe transfers across networks; the initial in-vivo privacy is
    // roughly scale².
    cfg.init_scale_relative = true;
    cfg.init.scale = 3.5f;
    cfg.lambda.initial_lambda = 1e-2f;
    cfg.lambda.privacy_target = 12.0;
    cfg.iterations = 400;
    if (network == "cifar") {
        cfg.iterations = 250;
        cfg.init.scale = 2.0f;
        cfg.lambda.initial_lambda = 1e-3f;  // paper: smaller λ, bigger nets
        cfg.lambda.privacy_target = 4.0;
    } else if (network == "svhn") {
        cfg.iterations = 300;
        cfg.init.scale = 2.8f;
        cfg.lambda.initial_lambda = 1e-3f;
        cfg.lambda.privacy_target = 8.0;
    }
    if (network == "cifar") {
        cfg.init.scale = 2.8f;
        cfg.lambda.privacy_target = 8.0;
    } else if (network == "alexnet") {
        cfg.iterations = 300;
        cfg.batch_size = 12;
        cfg.init.scale = 2.4f;
        cfg.lambda.initial_lambda = 1e-4f;  // paper: −0.0001 for the biggest
        cfg.lambda.privacy_target = 6.0;
    }
    if (fast_mode()) {
        cfg.iterations = std::max(20, cfg.iterations / 10);
    }
    return cfg;
}

/** Workload-tuned measurement config. */
inline core::MeterConfig
default_meter_config(const std::string& network)
{
    core::MeterConfig cfg;
    cfg.accuracy_samples = 512;
    cfg.mi_samples = 384;
    cfg.mi.max_dims = 192;
    if (network == "alexnet") {
        cfg.accuracy_samples = 256;
        cfg.mi_samples = 256;
        cfg.mi.max_dims = 256;
    }
    if (fast_mode()) {
        cfg.accuracy_samples = 128;
        cfg.mi_samples = 128;
        cfg.mi.max_dims = 64;
    }
    return cfg;
}

/** Number of noise tensors per collection. */
inline int
default_noise_samples()
{
    return fast_mode() ? 2 : 4;
}

/** Per-network collection size (LeNet benefits from more diversity). */
inline int
default_noise_samples(const std::string& network)
{
    if (fast_mode()) {
        return 2;
    }
    return network == "lenet" ? 6 : 4;
}

/** Print a section banner. */
inline void
banner(const char* title)
{
    std::printf("\n============================================================\n");
    std::printf("%s\n", title);
    std::printf("============================================================\n");
}

/**
 * Time `fn` and return mean seconds per call: one untimed warmup, then
 * repeated batches until `min_seconds` of measured work accumulates.
 * Deterministic sweep sizes + wall-clock stop keeps runs reproducible
 * in shape while adapting iteration counts to the host's speed.
 */
template <typename F>
double
time_loop(F&& fn, double min_seconds)
{
    using clock = std::chrono::steady_clock;
    fn();  // warmup: faults pages, warms caches and scratch arenas
    std::int64_t iters = 0;
    double elapsed = 0.0;
    std::int64_t batch = 1;
    while (elapsed < min_seconds) {
        const auto t0 = clock::now();
        for (std::int64_t i = 0; i < batch; ++i) {
            fn();
        }
        const auto t1 = clock::now();
        elapsed += std::chrono::duration<double>(t1 - t0).count();
        iters += batch;
        batch *= 2;  // grow so clock overhead stays negligible
    }
    return elapsed / static_cast<double>(iters);
}

/** Default per-measurement budget, honoring fast mode. */
inline double
measure_seconds()
{
    return fast_mode() ? 0.05 : 0.25;
}

/** Current wall time as ISO-8601 UTC (for JSON provenance fields). */
inline std::string
now_iso8601()
{
    const std::time_t t = std::time(nullptr);
    char buf[32];
    std::tm tm_utc;
    gmtime_r(&t, &tm_utc);
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    return buf;
}

/** The CPU's model name from /proc/cpuinfo, or "unknown". */
inline std::string
cpu_model()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            const std::size_t start =
                colon == std::string::npos
                    ? std::string::npos
                    : line.find_first_not_of(' ', colon + 1);
            if (start != std::string::npos) {
                return line.substr(start);
            }
        }
    }
    return "unknown";
}

/** A shell command's stdout, trailing whitespace trimmed. */
inline std::string
command_output(const char* command)
{
    std::string out;
    FILE* pipe = popen(command, "r");
    if (pipe != nullptr) {
        char buf[128];
        while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
            out += buf;
        }
        pclose(pipe);
    }
    while (!out.empty() &&
           std::isspace(static_cast<unsigned char>(out.back())) != 0) {
        out.pop_back();
    }
    return out;
}

/**
 * `git describe --always --dirty` of the working directory's checkout,
 * or "unknown" outside one: names the source a run measured. An
 * uncommitted tree reads `<parent>-dirty`, which names no source, so it
 * gets `+diff:` and the blob hash of its source diff (written to no
 * object store): after the commit lands, `git diff --no-color
 * --no-ext-diff <parent> <commit> -- ':/src' ':/bench' ':/tools' | git
 * hash-object --stdin` prints the same hash if the commit holds the
 * measured source.
 */
inline std::string
git_describe()
{
    std::string out =
        command_output("git describe --always --dirty 2>/dev/null");
    const std::string dirty = "-dirty";
    if (out.size() > dirty.size() &&
        out.compare(out.size() - dirty.size(), dirty.size(), dirty) == 0) {
        const std::string diff = command_output(
            "git diff --no-color --no-ext-diff HEAD -- ':/src' ':/bench' "
            "':/tools' 2>/dev/null | git hash-object --stdin 2>/dev/null");
        if (!diff.empty()) {
            out += "+diff:" + diff;
        }
    }
    return out.empty() ? "unknown" : out;
}

/**
 * Latency sample set with percentile extraction, for the open-loop
 * load benches. Samples accumulate in milliseconds; `percentile_ms`
 * sorts lazily (nearest-rank on the sorted copy), so record() stays
 * allocation-amortized on the hot path.
 */
class LatencyHistogram
{
  public:
    void record(double ms) { samples_.push_back(ms); sorted_ = false; }

    std::int64_t count() const
    {
        return static_cast<std::int64_t>(samples_.size());
    }

    double mean_ms() const
    {
        if (samples_.empty()) {
            return 0.0;
        }
        double sum = 0.0;
        for (const double s : samples_) {
            sum += s;
        }
        return sum / static_cast<double>(samples_.size());
    }

    double max_ms() const
    {
        return samples_.empty()
                   ? 0.0
                   : *std::max_element(samples_.begin(), samples_.end());
    }

    /** Nearest-rank percentile, p in [0, 1]. 0 when empty. */
    double percentile_ms(double p) const
    {
        if (samples_.empty()) {
            return 0.0;
        }
        sort();
        const auto n = static_cast<std::int64_t>(samples_.size());
        auto rank = static_cast<std::int64_t>(
            std::ceil(p * static_cast<double>(n)));
        rank = std::min(std::max<std::int64_t>(rank, 1), n);
        return samples_[static_cast<std::size_t>(rank - 1)];
    }

    /**
     * Log2 bucket counts (bucket i: latency ≤ 2^i ms, last bucket
     * open-ended) — the compact shape BENCH_server.json v3 stores so
     * the full distribution survives into the perf trajectory.
     */
    std::vector<std::int64_t> log2_buckets(int n_buckets) const
    {
        std::vector<std::int64_t> buckets(
            static_cast<std::size_t>(n_buckets), 0);
        for (const double s : samples_) {
            double upper = 1.0;
            int i = 0;
            while (i < n_buckets - 1 && s > upper) {
                upper *= 2.0;
                ++i;
            }
            ++buckets[static_cast<std::size_t>(i)];
        }
        return buckets;
    }

    void merge(const LatencyHistogram& other)
    {
        samples_.insert(samples_.end(), other.samples_.begin(),
                        other.samples_.end());
        sorted_ = false;
    }

  private:
    void sort() const
    {
        if (!sorted_) {
            std::sort(samples_.begin(), samples_.end());
            sorted_ = true;
        }
    }

    mutable std::vector<double> samples_;
    mutable bool sorted_ = false;
};

/**
 * Minimal streaming JSON writer for `BENCH_*.json` perf-trajectory
 * files. Caller drives the structure (begin/end object/array, key,
 * value); the writer handles commas and string escaping for the
 * restricted key/value set the benches emit.
 */
class JsonWriter
{
  public:
    void begin_object() { open('{'); }
    void end_object() { close('}'); }
    void begin_array() { open('['); }
    void end_array() { close(']'); }

    void key(const std::string& k)
    {
        comma();
        out_ += '"';
        out_ += k;
        out_ += "\": ";
        pending_key_ = true;
    }

    void value(double v)
    {
        comma();
        char buf[32];
        if (std::isfinite(v)) {
            std::snprintf(buf, sizeof(buf), "%.6g", v);
        } else {
            std::snprintf(buf, sizeof(buf), "null");
        }
        out_ += buf;
    }

    void value(std::int64_t v)
    {
        comma();
        out_ += std::to_string(v);
    }

    void value(int v) { value(static_cast<std::int64_t>(v)); }

    void value(bool v)
    {
        comma();
        out_ += v ? "true" : "false";
    }

    void value(const std::string& v)
    {
        comma();
        out_ += '"';
        for (const char ch : v) {
            if (ch == '"' || ch == '\\') {
                out_ += '\\';
            }
            out_ += ch;
        }
        out_ += '"';
    }

    void value(const char* v) { value(std::string(v)); }

    const std::string& str() const { return out_; }

    /** Write the document (plus trailing newline) to `path`. */
    bool write_file(const std::string& path) const
    {
        std::ofstream f(path);
        if (!f) {
            return false;
        }
        f << out_ << '\n';
        return static_cast<bool>(f);
    }

  private:
    void open(char ch)
    {
        comma();
        out_ += ch;
        need_comma_ = false;
    }

    void close(char ch)
    {
        out_ += ch;
        need_comma_ = true;
    }

    void comma()
    {
        if (pending_key_) {
            // A key was just emitted; this token is its value.
            pending_key_ = false;
            return;
        }
        if (need_comma_) {
            out_ += ", ";
        }
        need_comma_ = true;
    }

    std::string out_;
    bool need_comma_ = false;
    bool pending_key_ = false;
};

/**
 * Minimal recursive-descent JSON well-formedness checker: the
 * self-check mate of `JsonWriter` (tests round-trip every BENCH
 * document through it, so a comma/escaping bug in the writer fails in
 * CI instead of corrupting the perf trajectory). Accepts exactly the
 * grammar the writer emits — objects, arrays, strings with \" and
 * \\ escapes, numbers, true/false/null.
 */
class JsonValidator
{
  public:
    /** True iff `text` is one complete well-formed JSON value. */
    static bool valid(const std::string& text)
    {
        JsonValidator v(text);
        v.skip_ws();
        if (!v.value() ) {
            return false;
        }
        v.skip_ws();
        return v.pos_ == text.size();
    }

  private:
    explicit JsonValidator(const std::string& text) : text_(text) {}

    bool value()
    {
        if (pos_ >= text_.size()) {
            return false;
        }
        switch (text_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default:  return number();
        }
    }

    bool object()
    {
        ++pos_;  // '{'
        skip_ws();
        if (peek('}')) {
            ++pos_;
            return true;
        }
        for (;;) {
            skip_ws();
            if (!string()) {
                return false;
            }
            skip_ws();
            if (!peek(':')) {
                return false;
            }
            ++pos_;
            skip_ws();
            if (!value()) {
                return false;
            }
            skip_ws();
            if (peek(',')) {
                ++pos_;
                continue;
            }
            if (peek('}')) {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool array()
    {
        ++pos_;  // '['
        skip_ws();
        if (peek(']')) {
            ++pos_;
            return true;
        }
        for (;;) {
            skip_ws();
            if (!value()) {
                return false;
            }
            skip_ws();
            if (peek(',')) {
                ++pos_;
                continue;
            }
            if (peek(']')) {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool string()
    {
        if (!peek('"')) {
            return false;
        }
        ++pos_;
        while (pos_ < text_.size()) {
            const char ch = text_[pos_];
            if (ch == '\\') {
                if (pos_ + 1 >= text_.size()) {
                    return false;
                }
                pos_ += 2;  // the writer only emits \" and \\ escapes
                continue;
            }
            if (ch == '"') {
                ++pos_;
                return true;
            }
            ++pos_;
        }
        return false;  // unterminated
    }

    bool number()
    {
        const std::size_t start = pos_;
        if (peek('-')) {
            ++pos_;
        }
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start) {
            return false;
        }
        char* end = nullptr;
        const std::string token = text_.substr(start, pos_ - start);
        std::strtod(token.c_str(), &end);
        return end == token.c_str() + token.size();
    }

    bool literal(const char* word)
    {
        const std::size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0) {
            return false;
        }
        pos_ += len;
        return true;
    }

    bool peek(char ch) const
    {
        return pos_ < text_.size() && text_[pos_] == ch;
    }

    void skip_ws()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

}  // namespace bench
}  // namespace shredder

#endif  // SHREDDER_BENCH_BENCH_UTIL_H
