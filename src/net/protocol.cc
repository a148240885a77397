/**
 * @file
 * Implementation of the SHRQ/SHRP frame codec (see header).
 */
#include "src/net/protocol.h"

#include <cstdio>
#include <istream>
#include <sstream>
#include <streambuf>
#include <utility>

#include "src/runtime/logging.h"
#include "src/tensor/serialize.h"

namespace shredder {
namespace net {

namespace {

using runtime::ServingError;
using runtime::ServingErrorCode;

[[noreturn]] void
protocol_error(const std::string& what)
{
    throw ServingError(ServingErrorCode::kProtocol, what);
}

/**
 * A read-only stream buffer over borrowed bytes, so the checked wire
 * readers parse a payload where it lies (a socket buffer, a frame
 * string) instead of from a stringstream copy of it. It never writes:
 * there is no put area, and put-back and seeks only move the read
 * position. Seeking lets a tensor reader see how many bytes are left
 * before it allocates for a payload the header claims.
 */
class ViewBuffer : public std::streambuf
{
  public:
    explicit ViewBuffer(std::string_view bytes)
    {
        char* begin = const_cast<char*>(bytes.data());
        setg(begin, begin, begin + bytes.size());
    }

    /** Bytes not consumed yet. */
    std::size_t remaining() const
    {
        return static_cast<std::size_t>(egptr() - gptr());
    }

  protected:
    pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                     std::ios_base::openmode) override
    {
        const char* from = dir == std::ios_base::beg   ? eback()
                           : dir == std::ios_base::cur ? gptr()
                                                       : egptr();
        const off_type to = (from - eback()) + off;
        if (to < 0 || to > egptr() - eback()) {
            return pos_type(off_type(-1));
        }
        setg(eback(), eback() + to, egptr());
        return pos_type(to);
    }

    pos_type seekpos(pos_type pos, std::ios_base::openmode which) override
    {
        return seekoff(off_type(pos), std::ios_base::beg, which);
    }
};

/**
 * Run a payload parser with the trust-boundary disciplines engaged:
 * `SerializeError` from the wire readers and `FatalError` from
 * shape/tensor validation both become typed `kProtocol` errors, and
 * the payload must be consumed exactly (a frame with trailing bytes
 * is lying about its length).
 */
template <typename F>
auto
parse_payload(std::string_view payload, const char* kind, F&& parse)
{
    ViewBuffer bytes(payload);
    std::istream is(&bytes);
    // Guard the whole parse: untrusted bytes may reach SHREDDER_REQUIRE
    // checks deep inside Tensor/Shape construction — those must fail
    // the frame, never the process.
    ScopedFatalThrow guard;
    try {
        auto parsed = parse(is);
        if (bytes.remaining() != 0) {
            protocol_error(std::string(kind) +
                           " payload has trailing bytes");
        }
        return parsed;
    } catch (const SerializeError& e) {
        protocol_error(std::string("malformed ") + kind + " payload: " +
                       e.what());
    } catch (const FatalError& e) {
        protocol_error(std::string("malformed ") + kind + " payload: " +
                       e.what());
    }
}

}  // namespace

const char*
to_string(WireStatus status)
{
    switch (status) {
      case WireStatus::kOk: return "kOk";
      case WireStatus::kUnknownEndpoint: return "kUnknownEndpoint";
      case WireStatus::kInvalidShape: return "kInvalidShape";
      case WireStatus::kShutdown: return "kShutdown";
      case WireStatus::kProtocolError: return "kProtocolError";
      case WireStatus::kInternal: return "kInternal";
      case WireStatus::kRateLimited: return "kRateLimited";
      case WireStatus::kAdmissionReject: return "kAdmissionReject";
    }
    return "kUnknown";
}

WireStatus
wire_status(ServingErrorCode code)
{
    switch (code) {
      case ServingErrorCode::kUnknownEndpoint:
        return WireStatus::kUnknownEndpoint;
      case ServingErrorCode::kInvalidShape:
        return WireStatus::kInvalidShape;
      case ServingErrorCode::kShutdown: return WireStatus::kShutdown;
      case ServingErrorCode::kProtocol:
        return WireStatus::kProtocolError;
      case ServingErrorCode::kRateLimited:
        return WireStatus::kRateLimited;
      case ServingErrorCode::kAdmissionReject:
        return WireStatus::kAdmissionReject;
      default: return WireStatus::kInternal;
    }
}

ServingErrorCode
serving_code(WireStatus status)
{
    switch (status) {
      case WireStatus::kUnknownEndpoint:
        return ServingErrorCode::kUnknownEndpoint;
      case WireStatus::kInvalidShape:
        return ServingErrorCode::kInvalidShape;
      case WireStatus::kShutdown: return ServingErrorCode::kShutdown;
      case WireStatus::kProtocolError:
        return ServingErrorCode::kProtocol;
      case WireStatus::kRateLimited:
        return ServingErrorCode::kRateLimited;
      case WireStatus::kAdmissionReject:
        return ServingErrorCode::kAdmissionReject;
      case WireStatus::kOk:
      case WireStatus::kInternal: break;
    }
    return ServingErrorCode::kNetwork;
}

namespace {

/**
 * Wrap a finished payload in the 12-byte envelope. The version is the
 * lowest one that can carry the payload (see the header's versioning
 * note): fp32 requests and every response stamp 1, quantized requests
 * stamp 2.
 */
std::string
envelope(std::uint32_t magic, std::uint32_t version,
         const std::string& payload)
{
    SHREDDER_CHECK(payload.size() <= kMaxFramePayload,
                   "outgoing frame payload of ", payload.size(),
                   " bytes exceeds kMaxFramePayload");
    std::ostringstream os;
    wire::write_u32(os, magic);
    wire::write_u32(os, version);
    wire::write_u32(os, static_cast<std::uint32_t>(payload.size()));
    std::string framed = os.str();
    framed += payload;
    return framed;
}

}  // namespace

std::string
encode_request(const Request& request)
{
    SHREDDER_REQUIRE(!request.endpoint.empty() &&
                         request.endpoint.size() <= kMaxEndpointName,
                     "endpoint name must be 1-", kMaxEndpointName,
                     " bytes, got ", request.endpoint.size());
    std::ostringstream os;
    wire::write_u64(os, request.request_id);
    wire::write_string(os, request.endpoint);
    if (request.is_quantized) {
        write_tensor_wire(os, request.quantized);
    } else {
        write_tensor(os, request.activation);
    }
    const bool v2 = request.is_quantized &&
                    request.quantized.dtype != WireDtype::kF32;
    return envelope(kRequestMagic, v2 ? 2u : 1u, os.str());
}

std::string
encode_response(const Response& response)
{
    std::ostringstream os;
    wire::write_u64(os, response.request_id);
    wire::write_u32(os, static_cast<std::uint32_t>(response.status));
    if (response.status == WireStatus::kOk) {
        write_tensor(os, response.output);
    } else {
        wire::write_string(os, response.message);
    }
    return envelope(kResponseMagic, 1u, os.str());
}

Request
decode_request_payload(std::string_view payload)
{
    return parse_payload(payload, "SHRQ", [](std::istream& is) {
        Request request;
        request.request_id = wire::read_u64(is);
        request.endpoint = wire::read_string(is, kMaxEndpointName);
        if (request.endpoint.empty()) {
            protocol_error("SHRQ endpoint name is empty");
        }
        QuantizedTensor q = read_tensor_wire_checked(is);
        if (q.dtype == WireDtype::kF32) {
            // v1 framing: hand callers the plain tensor they expect.
            request.activation = dequantize(q);
        } else {
            request.quantized = std::move(q);
            request.is_quantized = true;
        }
        return request;
    });
}

Response
decode_response_payload(std::string_view payload)
{
    return parse_payload(payload, "SHRP", [](std::istream& is) {
        Response response;
        response.request_id = wire::read_u64(is);
        const std::uint32_t status = wire::read_u32(is);
        if (status > kMaxWireStatus) {
            protocol_error("SHRP status " + std::to_string(status) +
                           " is not a known WireStatus");
        }
        response.status = static_cast<WireStatus>(status);
        if (response.status == WireStatus::kOk) {
            response.output = read_tensor_checked(is);
        } else {
            response.message = wire::read_string(is, 4096);
        }
        return response;
    });
}

std::uint32_t
check_envelope(const char* header, std::uint32_t expected_magic)
{
    const auto byte = [header](int at) {
        return static_cast<std::uint32_t>(
            static_cast<unsigned char>(header[at]));
    };
    const auto read_le32 = [&byte](int at) {
        return byte(at) | byte(at + 1) << 8 | byte(at + 2) << 16 |
               byte(at + 3) << 24;
    };
    const std::uint32_t magic = read_le32(0);
    const std::uint32_t version = read_le32(4);
    const std::uint32_t length = read_le32(8);

    if (magic != expected_magic) {
        protocol_error("bad frame magic 0x" + [magic] {
            char buf[16];
            std::snprintf(buf, sizeof(buf), "%08x", magic);
            return std::string(buf);
        }());
    }
    if (version > kProtocolVersion) {
        protocol_error("frame version " + std::to_string(version) +
                       " is newer than this build's " +
                       std::to_string(kProtocolVersion));
    }
    if (length > kMaxFramePayload) {
        protocol_error("frame payload length " + std::to_string(length) +
                       " exceeds the " +
                       std::to_string(kMaxFramePayload) + "-byte limit");
    }
    return length;
}

bool
read_frame(Socket& socket, std::uint32_t expected_magic,
           std::string* payload)
{
    // The envelope is read with raw socket calls (a stream adapter
    // would hide WHERE the bytes stopped); everything after it goes
    // through the checked wire readers.
    char header[kEnvelopeBytes];
    const std::size_t first = socket.recv_some(header, sizeof(header));
    if (first == 0) {
        return false;  // clean close between frames
    }
    if (first < sizeof(header)) {
        socket.recv_all(header + first, sizeof(header) - first);
    }
    const std::uint32_t length = check_envelope(header, expected_magic);
    payload->resize(length);
    if (length > 0) {
        socket.recv_all(&(*payload)[0], length);
    }
    return true;
}

}  // namespace net
}  // namespace shredder
