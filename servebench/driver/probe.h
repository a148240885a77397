/**
 * @file
 * The traced run's in-process layer probes.
 *
 * The probe times the driver's own calls into each layer's public
 * functions (bundle load, endpoint registration, wire codec, quantize,
 * noise policy, cloud forward at batch 1 and 8, the first cloud
 * Linear's GEMM in fp32 and int8) and replays the low-rate schedule
 * through an in-process ServingEngine. It runs as a child process
 * (`servebench_driver --probe`) because batched convolutions reach
 * `parallel_for`, whose abort must cost the probe, not the run. Each
 * timed call becomes one span line on stdout:
 *
 *   span <index> <name> <start_ns> <end_ns> <parent_index> <request_id>
 *
 * and each finished item a `done <item>` line, so a parent that sees
 * the probe die restarts it after the item it died in.
 */
#ifndef SERVEBENCH_PROBE_H
#define SERVEBENCH_PROBE_H

#include <cstdint>
#include <string>

#include "servebench/driver/workload.h"

namespace servebench {

/** Span names of the probe items, in item order. */
extern const char* const kProbeItems[];
extern const int kProbeItemCount;

/**
 * Run probe items `first`.. for `workload` with inputs from `seed`,
 * replaying the low-rate phase of `replay_seconds` seconds drawn from
 * `replay_seed`. Writes span and done lines to stdout.
 */
int run_probe(const Workload& workload, std::uint64_t seed,
              const std::string& dir, int first, std::uint64_t replay_seed,
              double replay_seconds);

}  // namespace servebench

#endif  // SERVEBENCH_PROBE_H
