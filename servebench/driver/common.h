/**
 * @file
 * Small helpers shared by the serving benchmark's driver: clocks,
 * order statistics, seed mixing and the in-memory span record.
 */
#ifndef SERVEBENCH_COMMON_H
#define SERVEBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (spans and schedules use this). */
inline std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** splitmix64: derive independent, reproducible streams from one seed. */
inline std::uint64_t
mix_seed(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

inline std::uint64_t
mix_seed(std::uint64_t seed, std::uint64_t stream)
{
    return mix_seed(seed ^ mix_seed(stream));
}

/**
 * The q-quantile (0 ≤ q ≤ 1) by linear interpolation between order
 * statistics; 0 for an empty sample. Takes a copy: callers keep their
 * samples in arrival order.
 */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double
median(const std::vector<double>& values)
{
    return quantile(values, 0.5);
}

/**
 * One traced interval. Spans of one request share `request_id`;
 * `parent` indexes the enclosing span in the same recorder (-1 for a
 * root).
 */
struct Span
{
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;
    std::uint64_t request_id = 0;

    double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

}  // namespace servebench

#endif  // SERVEBENCH_COMMON_H
