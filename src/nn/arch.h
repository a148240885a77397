/**
 * @file
 * Architecture-aware `Sequential` serialization — the `SARC` codec.
 *
 * The checkpoint format (`Sequential::save_checkpoint`) stores only
 * parameters and *verifies* topology against an already-constructed
 * network; it cannot rebuild one. Deployment needs more: a device that
 * cold-starts from a bundle has no application code describing the
 * model, so the bundle must carry the topology itself. `save_arch`
 * writes, per layer, a stable kind tag (`Layer::kind()`), a
 * length-prefixed static-config blob, and the layer's parameter
 * tensors; `load_arch` rebuilds the exact `Sequential` through a
 * layer-tag registry mapping each kind to a config writer and a
 * factory. A factory reads the layer's parameter tensors first and
 * constructs the layer around them, so loading draws no random
 * numbers and allocates each parameter once, sized by the bytes the
 * stream actually holds.
 *
 * Byte layout (all little-endian; see docs/DEPLOYMENT.md for the
 * normative spec):
 *
 *   magic   u32  'SARC' (0x43524153)
 *   layers  u32
 *   per layer:
 *     tag     u32 len + bytes   Layer::kind()
 *     config  u32 len + bytes   kind-specific static config
 *     params  SHRT × N          tensors in parameters() order
 *
 * The config length is written explicitly so `load_arch` can verify
 * that a kind's reader consumed exactly the bytes its writer produced
 * — a malformed or version-skewed blob fails loudly instead of
 * de-syncing the stream.
 *
 * This codec sits below a trust boundary (bundles arrive from
 * elsewhere), so `load_arch` throws `SerializeError` on any malformed
 * input — unknown tag, truncation, config-length mismatch, parameter
 * shape mismatch — and never terminates the process.
 *
 * The codec also defines "the same network" for the weight registry
 * (src/deploy/weight_registry.h): equal `save_arch` bytes.
 * `arch_hash` and `same_arch` decide that reading the parameters in
 * place; only each layer's few config bytes are written out.
 */
#ifndef SHREDDER_NN_ARCH_H
#define SHREDDER_NN_ARCH_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/nn/sequential.h"

namespace shredder {
namespace nn {

/**
 * Write `net`'s full architecture (topology + static configs +
 * parameters) to a binary stream. Panics on stream failure; every
 * layer kind in `net` must be registered (all in-tree kinds are).
 */
void save_arch(std::ostream& os, const Sequential& net);

/**
 * Rebuild the exact network written by `save_arch`.
 *
 * @throws SerializeError on malformed input (bad magic, unknown layer
 *         tag, truncation, config/parameter mismatch).
 */
std::unique_ptr<Sequential> load_arch(std::istream& is);

/**
 * Hash of what `save_arch` writes for `net` — layer kinds, config
 * bytes, parameter shapes and raw bits — computed in place, a word at
 * a time. Equal content hashes equal; the hash only prunes candidates
 * and `same_arch` decides.
 */
std::uint64_t arch_hash(const Sequential& net);

/**
 * True when `save_arch` would write the same bytes for `a` and `b`,
 * decided reading the parameters in place. Parameters compare by
 * bit pattern: −0.0 differs from +0.0 and equal NaN payloads match.
 */
bool same_arch(const Sequential& a, const Sequential& b);

/** True when the registry can (de)serialize layer kind `kind`. */
bool arch_registry_knows(const std::string& kind);

/** All registered layer kind tags, sorted (for docs and tests). */
std::vector<std::string> arch_registry_kinds();

}  // namespace nn
}  // namespace shredder

#endif  // SHREDDER_NN_ARCH_H
