/**
 * @file
 * Binary tensor (de)serialization — the `SHRT` codec.
 *
 * Used by the model-checkpoint format, the deployment-bundle format
 * (src/deploy/bundle.h) and the split-execution channel (the edge
 * serializes the noisy activation exactly the way a real deployment
 * would put it on the wire). The version-1 format is a small tagged
 * header followed by raw little-endian float32 data:
 *
 *   magic  u32  'SHRT' (0x54524853)
 *   rank   u32
 *   dims   u64 × rank
 *   data   f32 × numel
 *
 * Version 2 carries quantized payloads (src/tensor/quantize.h). The
 * word after the magic is the marker 0xFFFF0002 — an impossible rank,
 * so v1 readers reject v2 bytes with their existing typed "bad shape
 * rank" error and v2 readers can tell the two apart without a flag
 * day:
 *
 *   magic   u32  'SHRT' (0x54524853)
 *   marker  u32  0xFFFF0002
 *   dtype   u8   WireDtype code (1 = int8, 2 = int16; 0 is invalid
 *                here — fp32 tensors always use the v1 header, so
 *                every fp32 artifact stays bit-identical)
 *   scale   f32  per-tensor affine scale (finite, > 0)
 *   zpoint  i32  per-tensor affine zero point (within dtype range)
 *   rank    u8   (header bytes are the point of the quantized wire
 *   dims    u32 × rank       path, so v2 packs the shape: readers of
 *                            either version reject dims ≥ 2^32, so the
 *                            narrower dim encoding loses nothing)
 *   data    i8/i16 × numel (little-endian)
 *
 * Checked readers reject unknown dtype codes with a typed
 * `SerializeError`, never a crash.
 *
 * Two failure disciplines coexist, because callers sit on different
 * sides of a trust boundary:
 *
 *  - `read_tensor` is *fatal* on malformed input — right for trusted
 *    local artifacts (checkpoint caches, in-process channels), where
 *    corruption means the machine's own state is broken.
 *  - `read_tensor_checked` throws `SerializeError` instead — right
 *    for artifacts that cross a trust boundary (deployment bundles
 *    received from elsewhere), where a malformed file must fail the
 *    *load*, never the process. The bundle loader converts these into
 *    typed `runtime::ServingError`s.
 *
 * Both read a payload only into memory the input has shown it holds:
 * a header's element count is a claim. A frame view or a string knows
 * its remaining bytes and a file its size, so a short payload fails
 * before anything is allocated and a whole one is allocated once; a
 * stream that cannot tell (a pipe) is read in chunks that grow with
 * the bytes received.
 *
 * The `wire` namespace exposes the checked POD/string/shape helpers
 * the higher-level formats (arch codec, noise distribution, bundle)
 * build on, so every on-disk structure shares one little-endian
 * encoding and one error discipline.
 */
#ifndef SHREDDER_TENSOR_SERIALIZE_H
#define SHREDDER_TENSOR_SERIALIZE_H

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "src/tensor/quantize.h"
#include "src/tensor/shape.h"
#include "src/tensor/tensor.h"

namespace shredder {

/**
 * Malformed serialized data (bad magic, truncation, impossible
 * field). Thrown by the `_checked` readers and the `wire` helpers —
 * never by the fatal legacy entry points.
 */
class SerializeError : public std::runtime_error
{
  public:
    explicit SerializeError(const std::string& what)
        : std::runtime_error(what)
    {
    }
};

/** Write a tensor to a binary stream. Panics on stream failure. */
void write_tensor(std::ostream& os, const Tensor& t);

/** Read a tensor from a binary stream. Fatal on malformed input. */
Tensor read_tensor(std::istream& is);

/**
 * Read a tensor from a binary stream; throws `SerializeError` on
 * malformed input instead of terminating. Use for any stream that
 * crosses a trust boundary.
 */
Tensor read_tensor_checked(std::istream& is);

/** Serialized byte size of a tensor (header + payload). */
std::int64_t serialized_size(const Tensor& t);

/**
 * Write a wire-encoded tensor. kF32 payloads produce bit-identical v1
 * bytes (the canonical fp32 encoding); integer dtypes produce the v2
 * header above. Panics on stream failure.
 */
void write_tensor_wire(std::ostream& os, const QuantizedTensor& q);

/**
 * Read either a v1 (fp32) or v2 (quantized) tensor; throws
 * `SerializeError` on malformed input, unknown dtype codes, or an
 * invalid scale/zero-point. The v1 form returns a kF32
 * `QuantizedTensor` whose payload is the raw float image.
 */
QuantizedTensor read_tensor_wire_checked(std::istream& is);

/**
 * Exact on-wire byte size of a tensor of `shape` in `dtype` encoding
 * — the single size formula shared by the writer, the split-channel
 * codec, the cost model and the benches, so reported bytes cannot
 * drift from shipped bytes.
 */
std::int64_t serialized_wire_size(const Shape& shape, WireDtype dtype);

/** Convenience: serialize to an in-memory byte string. */
std::string tensor_to_bytes(const Tensor& t);

/** Convenience: deserialize from an in-memory byte string. */
Tensor tensor_from_bytes(const std::string& bytes);

/**
 * Checked little-endian primitives shared by every Shredder on-disk
 * format. All `read_*` functions throw `SerializeError` on truncation
 * or an out-of-range value; writers panic on stream failure (a write
 * failure is local I/O trouble, not untrusted input).
 */
namespace wire {

void write_u8(std::ostream& os, std::uint8_t v);
void write_u32(std::ostream& os, std::uint32_t v);
void write_u64(std::ostream& os, std::uint64_t v);
void write_f32(std::ostream& os, float v);
void write_f64(std::ostream& os, double v);

std::uint8_t read_u8(std::istream& is);
std::uint32_t read_u32(std::istream& is);
std::uint64_t read_u64(std::istream& is);
float read_f32(std::istream& is);
double read_f64(std::istream& is);

/** Length-prefixed (u32) byte string. */
void write_string(std::ostream& os, const std::string& s);

/**
 * Read a length-prefixed string; lengths above `max_len` are treated
 * as corruption (they would otherwise let a malformed file demand an
 * arbitrary allocation).
 */
std::string read_string(std::istream& is, std::uint32_t max_len = 4096);

/** Shape as u32 rank + u64 dims (same encoding the SHRT header uses). */
void write_shape(std::ostream& os, const Shape& shape);

/** Read a shape; validates rank ≤ Shape::kMaxRank and positive dims. */
Shape read_shape(std::istream& is);

/**
 * Read and verify a u32 section tag; mismatch throws with both values
 * in the message. Keeps multi-section formats self-describing.
 */
void expect_magic(std::istream& is, std::uint32_t expected,
                  const char* what);

}  // namespace wire

}  // namespace shredder

#endif  // SHREDDER_TENSOR_SERIALIZE_H
