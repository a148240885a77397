/**
 * @file
 * Implementation of the fitted per-element noise distribution (§2.5).
 */
#include "src/core/noise_distribution.h"

#include <cmath>
#include <fstream>

#include "src/runtime/logging.h"
#include "src/tensor/serialize.h"

namespace shredder {
namespace core {

namespace {

constexpr std::uint32_t kDistMagic = 0x54534453;  // 'SDST'

/** The per-element draw into `dst`, added when `accumulate`, else stored. */
void
draw(const NoiseDistribution& dist, Rng& rng, float* dst, bool accumulate)
{
    const float* ploc = dist.location().data();
    const float* pscale = dist.scale().data();
    const std::int64_t n = dist.location().size();
    if (dist.family() == NoiseFamily::kLaplace) {
        rng.laplace_into(ploc, pscale, 1e-9f, n, dst, accumulate);
        return;
    }
    for (std::int64_t i = 0; i < n; ++i) {
        const float v = rng.normal(ploc[i], pscale[i]);
        dst[i] = accumulate ? dst[i] + v : v;
    }
}

}  // namespace

NoiseDistribution::NoiseDistribution(NoiseFamily family, Tensor location,
                                     Tensor scale)
    : family_(family), location_(std::move(location)),
      scale_(std::move(scale))
{}

NoiseDistribution
NoiseDistribution::fit(const NoiseCollection& collection, NoiseFamily family,
                       float scale_floor)
{
    SHREDDER_REQUIRE(!collection.empty(),
                     "cannot fit a distribution to an empty collection");
    const Shape shape = collection.noise_shape();
    const std::int64_t numel = shape.numel();
    const std::int64_t k = collection.size();

    Tensor location(shape);
    Tensor scale(shape);
    float* ploc = location.data();
    float* pscale = scale.data();

    for (std::int64_t i = 0; i < numel; ++i) {
        double mean = 0.0;
        for (std::int64_t s = 0; s < k; ++s) {
            mean += collection.get(s).noise[i];
        }
        mean /= static_cast<double>(k);
        ploc[i] = static_cast<float>(mean);

        double spread = 0.0;
        for (std::int64_t s = 0; s < k; ++s) {
            const double d = collection.get(s).noise[i] - mean;
            spread += family == NoiseFamily::kLaplace ? std::abs(d) : d * d;
        }
        spread /= static_cast<double>(k);
        pscale[i] = static_cast<float>(
            family == NoiseFamily::kLaplace ? spread : std::sqrt(spread));
    }

    // Scale floor: a fraction of the mean |location| keeps degenerate
    // fits (k == 1, or identical samples) stochastic.
    const double mean_abs_loc = location.abs_sum() /
                                static_cast<double>(std::max<std::int64_t>(
                                    1, numel));
    const float floor =
        static_cast<float>(scale_floor * std::max(1e-3, mean_abs_loc));
    for (std::int64_t i = 0; i < numel; ++i) {
        pscale[i] = std::max(pscale[i], floor);
    }
    return NoiseDistribution(family, std::move(location), std::move(scale));
}

Tensor
NoiseDistribution::sample(Rng& rng) const
{
    Tensor out(location_.shape());
    draw(*this, rng, out.data(), false);
    return out;
}

void
NoiseDistribution::add_sample(Rng& rng, float* dst) const
{
    draw(*this, rng, dst, true);
}

double
NoiseDistribution::mean_variance() const
{
    // Mixture over elements: E[var] per family.
    double acc = 0.0;
    const float* pscale = scale_.data();
    for (std::int64_t i = 0; i < scale_.size(); ++i) {
        const double b = pscale[i];
        acc += family_ == NoiseFamily::kLaplace ? 2.0 * b * b : b * b;
    }
    return scale_.size() > 0 ? acc / static_cast<double>(scale_.size())
                             : 0.0;
}

void
NoiseDistribution::save(std::ostream& os) const
{
    wire::write_u32(os, kDistMagic);
    wire::write_u32(os, static_cast<std::uint32_t>(family_));
    write_tensor(os, location_);
    write_tensor(os, scale_);
}

NoiseDistribution
NoiseDistribution::load(std::istream& is)
{
    wire::expect_magic(is, kDistMagic, "noise distribution");
    const std::uint32_t family = wire::read_u32(is);
    if (family > static_cast<std::uint32_t>(NoiseFamily::kGaussian)) {
        throw SerializeError("bad noise family in distribution stream");
    }
    Tensor location = read_tensor_checked(is);
    Tensor scale = read_tensor_checked(is);
    if (!(location.shape() == scale.shape())) {
        throw SerializeError(
            "distribution location/scale shape mismatch (" +
            location.shape().to_string() + " vs " +
            scale.shape().to_string() + ")");
    }
    return NoiseDistribution(static_cast<NoiseFamily>(family),
                             std::move(location), std::move(scale));
}

void
NoiseDistribution::save(const std::string& path) const
{
    std::ofstream os(path, std::ios::binary);
    SHREDDER_REQUIRE(os.good(), "cannot open for write: ", path);
    save(os);
    SHREDDER_REQUIRE(os.good(), "write failed: ", path);
}

NoiseDistribution
NoiseDistribution::load(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    SHREDDER_REQUIRE(is.good(), "cannot open: ", path);
    try {
        return load(static_cast<std::istream&>(is));
    } catch (const SerializeError& e) {
        SHREDDER_FATAL("noise distribution file ", path, ": ", e.what());
    }
}

}  // namespace core
}  // namespace shredder
