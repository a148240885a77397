/**
 * @file
 * Implementation of the binary tensor serialization format and the
 * shared checked wire primitives.
 */
#include "src/tensor/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#include "src/runtime/logging.h"

namespace shredder {

namespace {

constexpr std::uint32_t kMagic = 0x54524853;  // 'SHRT'
// SHRT v2 disambiguation word: sits where v1 stores the rank, and no
// valid rank (≤ Shape::kMaxRank) can ever equal it, so v1 readers
// reject v2 bytes with their usual "bad shape rank" typed error.
constexpr std::uint32_t kExtMarker = 0xFFFF0002;

template <typename T>
void
write_pod(std::ostream& os, T value)
{
    os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T
read_pod_checked(std::istream& is, const char* what)
{
    T value{};
    is.read(reinterpret_cast<char*>(&value), sizeof(T));
    if (!is) {
        throw SerializeError(std::string("truncated stream reading ") +
                             what);
    }
    return value;
}

/**
 * Bytes `is` can still deliver: what its buffer holds once that covers
 * `want` (a frame view or a string buffers all of its input), else the
 * distance to the end of a seekable stream; -1 when the stream cannot
 * tell (a pipe).
 */
std::streamsize
bytes_left(std::istream& is, std::streamsize want)
{
    std::streambuf& in = *is.rdbuf();
    const std::streamsize buffered = in.in_avail();
    if (buffered >= want) {
        return buffered;
    }
    const std::streampos here = in.pubseekoff(0, std::ios::cur, std::ios::in);
    if (here == std::streampos(-1)) {
        return -1;
    }
    const std::streampos end = in.pubseekoff(0, std::ios::end, std::ios::in);
    in.pubseekpos(here, std::ios::in);
    return end == std::streampos(-1) ? -1 : end - here;
}

/** Growth step of a payload read from a stream of unknown length. */
constexpr std::size_t kUnknownLengthChunk = 64 * 1024;

/**
 * Read `count` payload elements into `out`, allocating only for bytes
 * the input has shown it holds: a header's element count is a claim.
 * When the stream can tell what is left, a short payload fails before
 * any allocation and a whole one is allocated once. When it cannot,
 * `out` grows chunk by chunk as bytes arrive, never past twice what
 * has been read.
 */
template <typename T>
void
read_payload(std::istream& is, std::size_t count, std::vector<T>& out)
{
    const auto bytes = static_cast<std::streamsize>(count * sizeof(T));
    const std::streamsize left = bytes_left(is, bytes);
    if (left >= 0 && left < bytes) {
        throw SerializeError("truncated tensor payload");
    }
    std::size_t step = left >= 0 ? count : kUnknownLengthChunk / sizeof(T);
    try {
        for (std::size_t got = 0; got < count; got += step) {
            step = std::min(count - got, std::max(step, got));
            out.resize(got + step);
            is.read(reinterpret_cast<char*>(out.data() + got),
                    static_cast<std::streamsize>(step * sizeof(T)));
            if (!is) {
                throw SerializeError("truncated tensor payload");
            }
        }
    } catch (const std::bad_alloc&) {
        // A payload the input really holds can still be too large for
        // this machine; at a trust boundary that stays a typed error.
        throw SerializeError("tensor payload too large to allocate");
    }
}

}  // namespace

namespace wire {

void
write_u8(std::ostream& os, std::uint8_t v)
{
    write_pod(os, v);
}

void
write_u32(std::ostream& os, std::uint32_t v)
{
    write_pod(os, v);
}

void
write_u64(std::ostream& os, std::uint64_t v)
{
    write_pod(os, v);
}

void
write_f32(std::ostream& os, float v)
{
    write_pod(os, v);
}

void
write_f64(std::ostream& os, double v)
{
    write_pod(os, v);
}

std::uint8_t
read_u8(std::istream& is)
{
    return read_pod_checked<std::uint8_t>(is, "u8");
}

std::uint32_t
read_u32(std::istream& is)
{
    return read_pod_checked<std::uint32_t>(is, "u32");
}

std::uint64_t
read_u64(std::istream& is)
{
    return read_pod_checked<std::uint64_t>(is, "u64");
}

float
read_f32(std::istream& is)
{
    return read_pod_checked<float>(is, "f32");
}

double
read_f64(std::istream& is)
{
    return read_pod_checked<double>(is, "f64");
}

void
write_string(std::ostream& os, const std::string& s)
{
    write_u32(os, static_cast<std::uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string
read_string(std::istream& is, std::uint32_t max_len)
{
    const std::uint32_t len = read_u32(is);
    if (len > max_len) {
        std::ostringstream oss;
        oss << "string length " << len << " exceeds limit " << max_len;
        throw SerializeError(oss.str());
    }
    std::string s(len, '\0');
    is.read(s.data(), static_cast<std::streamsize>(len));
    if (!is) {
        throw SerializeError("truncated stream reading string payload");
    }
    return s;
}

void
write_shape(std::ostream& os, const Shape& shape)
{
    write_u32(os, static_cast<std::uint32_t>(shape.rank()));
    for (int i = 0; i < shape.rank(); ++i) {
        write_u64(os, static_cast<std::uint64_t>(shape[i]));
    }
}

namespace {

/**
 * Dims of an already-validated rank. v1 headers store each dim as a
 * u64; the compact v2 header stores u32 dims (the validation below
 * rejects anything ≥ 2^32 in either encoding, so u32 loses nothing).
 */
Shape
read_shape_dims(std::istream& is, std::uint32_t rank,
                bool compact_dims = false)
{
    // Cap the declared element count like the other untrusted-length
    // guards (strings, layer counts, collection sizes): a crafted
    // header must not drive a near-infinite allocation, overflow the
    // int64 element product, or escape the typed-error contract via
    // std::length_error.
    constexpr std::int64_t kMaxElems = 1LL << 30;
    std::int64_t dims[Shape::kMaxRank] = {0, 0, 0, 0};
    std::int64_t numel = 1;
    for (std::uint32_t i = 0; i < rank; ++i) {
        dims[i] = compact_dims
                      ? static_cast<std::int64_t>(read_u32(is))
                      : static_cast<std::int64_t>(read_u64(is));
        if (dims[i] <= 0 || dims[i] >= (1LL << 32)) {
            std::ostringstream oss;
            oss << "bad shape dim " << dims[i];
            throw SerializeError(oss.str());
        }
        numel *= dims[i];  // ≤ 2^32 per dim and re-capped each step:
        if (numel > kMaxElems) {  // cannot overflow before the check.
            std::ostringstream oss;
            oss << "implausible shape element count (> " << kMaxElems
                << ")";
            throw SerializeError(oss.str());
        }
    }
    switch (rank) {
      case 0: return Shape();
      case 1: return Shape({dims[0]});
      case 2: return Shape({dims[0], dims[1]});
      case 3: return Shape({dims[0], dims[1], dims[2]});
      default: return Shape({dims[0], dims[1], dims[2], dims[3]});
    }
}

}  // namespace

Shape
read_shape(std::istream& is)
{
    const std::uint32_t rank = read_u32(is);
    if (rank > static_cast<std::uint32_t>(Shape::kMaxRank)) {
        std::ostringstream oss;
        oss << "bad shape rank " << rank;
        throw SerializeError(oss.str());
    }
    return read_shape_dims(is, rank);
}

void
expect_magic(std::istream& is, std::uint32_t expected, const char* what)
{
    const std::uint32_t magic = read_u32(is);
    if (magic != expected) {
        std::ostringstream oss;
        oss << "bad " << what << " magic 0x" << std::hex << magic
            << " (expected 0x" << expected << ")";
        throw SerializeError(oss.str());
    }
}

}  // namespace wire

void
write_tensor(std::ostream& os, const Tensor& t)
{
    wire::write_u32(os, kMagic);
    wire::write_shape(os, t.shape());
    os.write(reinterpret_cast<const char*>(t.data()),
             static_cast<std::streamsize>(t.size() * sizeof(float)));
    SHREDDER_CHECK(static_cast<bool>(os), "tensor write failed");
}

Tensor
read_tensor_checked(std::istream& is)
{
    wire::expect_magic(is, kMagic, "tensor");
    const Shape shape = wire::read_shape(is);
    std::vector<float> data;
    read_payload(is, static_cast<std::size_t>(shape.numel()), data);
    return Tensor(shape, std::move(data));
}

Tensor
read_tensor(std::istream& is)
{
    try {
        return read_tensor_checked(is);
    } catch (const SerializeError& e) {
        SHREDDER_FATAL("tensor stream: ", e.what());
    }
}

std::int64_t
serialized_size(const Tensor& t)
{
    return static_cast<std::int64_t>(sizeof(std::uint32_t) * 2 +
                                     sizeof(std::uint64_t) *
                                         t.shape().rank()) +
           t.size() * static_cast<std::int64_t>(sizeof(float));
}

void
write_tensor_wire(std::ostream& os, const QuantizedTensor& q)
{
    SHREDDER_CHECK(static_cast<std::int64_t>(q.data.size()) ==
                       q.size() * dtype_bytes(q.dtype),
                   "wire tensor payload size mismatch");
    if (q.dtype == WireDtype::kF32) {
        // Canonical fp32 bytes are the v1 header — bit-identical to
        // write_tensor, so fp32 artifacts never change on disk.
        wire::write_u32(os, kMagic);
        wire::write_shape(os, q.shape);
    } else {
        wire::write_u32(os, kMagic);
        wire::write_u32(os, kExtMarker);
        wire::write_u8(os, static_cast<std::uint8_t>(q.dtype));
        wire::write_f32(os, q.scale);
        wire::write_u32(os, static_cast<std::uint32_t>(q.zero_point));
        // Compact shape: header bytes are the whole point of the
        // quantized wire path, so v2 spends 1+4r on the shape where
        // v1 spends 4+8r (u32 dims cover the validated dim range).
        wire::write_u8(os, static_cast<std::uint8_t>(q.shape.rank()));
        for (int i = 0; i < q.shape.rank(); ++i) {
            wire::write_u32(os, static_cast<std::uint32_t>(q.shape[i]));
        }
    }
    os.write(reinterpret_cast<const char*>(q.data.data()),
             static_cast<std::streamsize>(q.data.size()));
    SHREDDER_CHECK(static_cast<bool>(os), "wire tensor write failed");
}

QuantizedTensor
read_tensor_wire_checked(std::istream& is)
{
    wire::expect_magic(is, kMagic, "tensor");
    QuantizedTensor q;
    const std::uint32_t word = wire::read_u32(is);
    if (word == kExtMarker) {
        const std::uint8_t code = wire::read_u8(is);
        if (code == static_cast<std::uint8_t>(WireDtype::kF32)) {
            throw SerializeError(
                "fp32 tensor payload must use the version-1 header");
        }
        if (code > static_cast<std::uint8_t>(WireDtype::kI16)) {
            std::ostringstream oss;
            oss << "unknown tensor dtype code "
                << static_cast<unsigned>(code);
            throw SerializeError(oss.str());
        }
        q.dtype = static_cast<WireDtype>(code);
        q.scale = wire::read_f32(is);
        if (!std::isfinite(q.scale) || q.scale <= 0.0f) {
            throw SerializeError("bad quantization scale");
        }
        q.zero_point =
            static_cast<std::int32_t>(wire::read_u32(is));
        if (q.zero_point < dtype_qmin(q.dtype) ||
            q.zero_point > dtype_qmax(q.dtype)) {
            std::ostringstream oss;
            oss << "quantization zero point " << q.zero_point
                << " outside " << to_string(q.dtype) << " range";
            throw SerializeError(oss.str());
        }
        const std::uint8_t rank = wire::read_u8(is);
        if (rank > static_cast<std::uint8_t>(Shape::kMaxRank)) {
            std::ostringstream oss;
            oss << "bad shape rank " << static_cast<unsigned>(rank);
            throw SerializeError(oss.str());
        }
        q.shape = wire::read_shape_dims(is, rank, /*compact_dims=*/true);
    } else {
        // Version 1: the word is the rank.
        if (word > static_cast<std::uint32_t>(Shape::kMaxRank)) {
            std::ostringstream oss;
            oss << "bad shape rank " << word;
            throw SerializeError(oss.str());
        }
        q.dtype = WireDtype::kF32;
        q.shape = wire::read_shape_dims(is, word);
    }
    read_payload(is, static_cast<std::size_t>(q.size() * dtype_bytes(q.dtype)),
                 q.data);
    return q;
}

std::int64_t
serialized_wire_size(const Shape& shape, WireDtype dtype)
{
    const std::int64_t payload = shape.numel() * dtype_bytes(dtype);
    if (dtype == WireDtype::kF32) {
        // v1 header: magic + rank u32 + dims u64 each.
        return 8 + 8 * shape.rank() + payload;
    }
    // v2 header: magic + marker + dtype u8 + scale f32 + zero point
    // u32 + rank u8 + dims u32 each.
    return 18 + 4 * shape.rank() + payload;
}

std::string
tensor_to_bytes(const Tensor& t)
{
    std::ostringstream oss(std::ios::binary);
    write_tensor(oss, t);
    return oss.str();
}

Tensor
tensor_from_bytes(const std::string& bytes)
{
    std::istringstream iss(bytes, std::ios::binary);
    return read_tensor(iss);
}

}  // namespace shredder
