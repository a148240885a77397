/**
 * @file
 * The fitted noise distribution (paper §2.5).
 *
 * After enough converged noise tensors are collected, Shredder has
 * "the distribution for the noise tensor" and each inference samples
 * from it. This class fits an independent per-element distribution
 * (Laplace by default, matching the initialization family) to a
 * `NoiseCollection` and draws fresh tensors from it.
 *
 * The distinction matters for privacy: re-using one *fixed* converged
 * tensor is a deterministic, invertible transform of the activation —
 * it cannot reduce true mutual information. Only the per-query
 * randomness of sampling destroys information, which is exactly why
 * the paper's deployment phase samples rather than replays.
 */
#ifndef SHREDDER_CORE_NOISE_DISTRIBUTION_H
#define SHREDDER_CORE_NOISE_DISTRIBUTION_H

#include <iosfwd>
#include <string>

#include "src/core/noise_collection.h"
#include "src/tensor/rng.h"
#include "src/tensor/tensor.h"

namespace shredder {
namespace core {

/** Parametric family of the fitted per-element distribution. */
enum class NoiseFamily {
    kLaplace,   ///< location = mean, scale = mean |n − µ| (MLE).
    kGaussian,  ///< location = mean, scale = stddev.
};

/** See file comment. */
class NoiseDistribution
{
  public:
    /**
     * Fit an independent per-element distribution to the collection.
     *
     * @param collection  ≥ 1 converged noise tensors (≥ 2 for a
     *                    non-degenerate scale).
     * @param family      Parametric family.
     * @param scale_floor Minimum per-element scale, as a fraction of
     *                    the mean |location| — keeps single-sample or
     *                    degenerate fits from collapsing to a
     *                    deterministic (privacy-free) transform.
     */
    static NoiseDistribution fit(const NoiseCollection& collection,
                                 NoiseFamily family = NoiseFamily::kLaplace,
                                 float scale_floor = 0.05f);

    /** Draw one fresh noise tensor. */
    Tensor sample(Rng& rng) const;

    /**
     * Draw one fresh noise tensor straight into `dst`, adding element i
     * to `dst[i]` — the values `sample` would return for the same `rng`
     * state, with no temporary. `dst` holds `location().size()` floats.
     */
    void add_sample(Rng& rng, float* dst) const;

    /** Per-element location parameters. */
    const Tensor& location() const { return location_; }

    /** Per-element scale parameters. */
    const Tensor& scale() const { return scale_; }

    NoiseFamily family() const { return family_; }

    /** Mean noise variance implied by the fit (for SNR accounting). */
    double mean_variance() const;

    // -- Persistence (the deployable artifact, paper §2.5) ---------------
    //
    // The fitted distribution is what the paper actually ships to edge
    // devices: training happens offline, deployment only samples. The
    // `SDST` codec (magic, family, location tensor, scale tensor) makes
    // the fit a first-class on-disk artifact — standalone via the path
    // API, or embedded in a deployment bundle via the stream API.

    /** Write the fit to a binary stream (`SDST` section). */
    void save(std::ostream& os) const;

    /**
     * Read a fit written by the stream `save`.
     * @throws SerializeError on malformed input (never terminates —
     *         bundles cross a trust boundary).
     */
    static NoiseDistribution load(std::istream& is);

    /** Persist to a binary file. Fatal on I/O failure. */
    void save(const std::string& path) const;

    /** Load from a binary file. Fatal on missing/corrupt file. */
    static NoiseDistribution load(const std::string& path);

  private:
    NoiseDistribution(NoiseFamily family, Tensor location, Tensor scale);

    NoiseFamily family_;
    Tensor location_;
    Tensor scale_;
};

}  // namespace core
}  // namespace shredder

#endif  // SHREDDER_CORE_NOISE_DISTRIBUTION_H
