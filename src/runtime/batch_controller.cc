/**
 * @file
 * Implementation of the adaptive batch-timeout controller (see header).
 */
#include "src/runtime/batch_controller.h"

#include <algorithm>

#include "src/runtime/logging.h"

namespace shredder {
namespace runtime {

BatchController::BatchController(const BatchControllerConfig& config)
    : config_(config), ewma_interarrival_ms_(config.slo_ms)
{
    // Before any traffic the estimate is the SLO itself: an idle server
    // starts latency-optimal (ship immediately) and learns to batch as
    // traffic ramps.
    SHREDDER_REQUIRE(config_.slo_ms >= 0.0,
                     "slo_ms must be >= 0, got ", config_.slo_ms);
    SHREDDER_REQUIRE(config_.ewma_alpha > 0.0 && config_.ewma_alpha <= 1.0,
                     "ewma_alpha must be in (0, 1], got ",
                     config_.ewma_alpha);
}

void
BatchController::on_arrival(double now_ms)
{
    if (arrivals_ > 0) {
        // Monotonic clocks can still report equal timestamps for
        // back-to-back submits; a zero gap is a legitimate burst
        // observation and pulls the EWMA toward "hold the door".
        const double gap = std::max(0.0, now_ms - last_arrival_ms_);
        ewma_interarrival_ms_ =
            config_.ewma_alpha * gap +
            (1.0 - config_.ewma_alpha) * ewma_interarrival_ms_;
    }
    last_arrival_ms_ = now_ms;
    ++arrivals_;
}

double
BatchController::deadline_ms(std::int64_t queue_depth,
                             std::int64_t max_batch) const
{
    const std::int64_t remaining = max_batch - queue_depth;
    if (remaining <= 0) {
        return 0.0;  // the batch is already full: ship now
    }
    const double predicted =
        static_cast<double>(remaining) * ewma_interarrival_ms_;
    if (predicted >= config_.slo_ms) {
        // The batch cannot fill within the SLO budget — waiting buys
        // partial fill at full latency cost, so don't wait at all.
        // (This is the "sparse traffic → ship immediately" arm; it
        // also covers an idle server via the initial estimate.)
        return 0.0;
    }
    return std::min(predicted, config_.slo_ms);
}

}  // namespace runtime
}  // namespace shredder
