/**
 * @file
 * The Shredder activation wire protocol — `SHRQ` / `SHRP` frames.
 *
 * This is the byte boundary between the edge device and the cloud
 * half: an edge client ships one noised (or to-be-noised) activation
 * per request frame and gets one logits tensor (or a typed error)
 * back per response frame. Both directions use the same length-
 * prefixed envelope:
 *
 *   magic        u32   'SHRQ' (request) / 'SHRP' (response)
 *   version      u32   kProtocolVersion (readers reject greater)
 *   payload_len  u32   bytes that follow (≤ kMaxFramePayload)
 *   payload      ...   see below
 *
 * Request payload:   request_id u64, endpoint wire-string,
 *                    activation `SHRT` tensor (v1 fp32 or the v2
 *                    quantized header of src/tensor/serialize.h).
 * Response payload:  request_id u64 (echoed), status u32
 *                    (`WireStatus`), then on kOk the output `SHRT`
 *                    tensor, otherwise a wire-string error message.
 *
 * Protocol v2 adds quantized request activations: a request whose
 * tensor uses the SHRT v2 header stamps envelope version 2; fp32
 * requests and all responses keep stamping version 1, so an fp32
 * client/server pair interoperates bit-for-bit with v1 builds and a
 * v1 server answers an int8 client with a typed "newer version"
 * error instead of misparsing the tensor.
 *
 * Every multi-byte field is little-endian and parsed exclusively
 * through the checked `wire` readers of src/tensor/serialize.h — the
 * same trust-boundary discipline deployment bundles use. Anything
 * malformed (bad magic, future version, oversize or short payload,
 * trailing bytes after the payload, a lying tensor header) throws
 * `runtime::ServingError` with code `kProtocol`; a transport-level
 * failure mid-frame throws `kNetwork`. Parsing NEVER terminates the
 * process: frames arrive from the network.
 *
 * Versioning rule (normative, docs/DEPLOYMENT.md §"Wire protocol"):
 * additions bump `kProtocolVersion`; a reader accepts frames with
 * version ≤ its own and rejects newer ones with `kProtocol`, so an
 * old server answers a too-new client with a typed error response
 * instead of misparsing bytes.
 */
#ifndef SHREDDER_NET_PROTOCOL_H
#define SHREDDER_NET_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/net/socket.h"
#include "src/runtime/serving_error.h"
#include "src/tensor/quantize.h"
#include "src/tensor/tensor.h"

namespace shredder {
namespace net {

/** 'SHRQ' little-endian: an activation request frame. */
constexpr std::uint32_t kRequestMagic = 0x51524853;
/** 'SHRP' little-endian: a response frame. */
constexpr std::uint32_t kResponseMagic = 0x50524853;
/** Current protocol version (readers accept ≤ this). */
constexpr std::uint32_t kProtocolVersion = 2;
/**
 * Payload ceiling. A length prefix above this is treated as
 * corruption before any allocation happens — a malformed frame must
 * not be able to demand arbitrary memory.
 */
constexpr std::uint32_t kMaxFramePayload = 64u << 20;
/** Endpoint-name length ceiling inside a request payload. */
constexpr std::uint32_t kMaxEndpointName = 256;
/** Bytes of the fixed envelope (magic, version, payload length). */
constexpr std::size_t kEnvelopeBytes = 12;

/**
 * Stable on-wire status codes. These are the protocol's public enum —
 * explicitly numbered and append-only, decoupled from the in-process
 * `ServingErrorCode` ordering so recompiling the server can never
 * silently renumber what deployed edge clients see.
 */
enum class WireStatus : std::uint32_t {
    kOk = 0,
    kUnknownEndpoint = 1,  ///< No endpoint of that name is registered.
    kInvalidShape = 2,     ///< Activation violates the shape contract.
    kShutdown = 3,         ///< The engine stopped accepting requests.
    kProtocolError = 4,    ///< The request frame itself was malformed.
    kInternal = 5,         ///< Any other server-side failure.
    kRateLimited = 6,      ///< Token-bucket backpressure: retry later.
    kAdmissionReject = 7,  ///< In-flight cap backpressure: retry later.
};

/**
 * Highest status value this build understands. A response carrying a
 * larger status is treated as protocol corruption — which also means
 * pre-admission-control builds answer the new backpressure codes with
 * a typed `kProtocol` close instead of misreading them, per the
 * versioning rule above.
 */
constexpr std::uint32_t kMaxWireStatus =
    static_cast<std::uint32_t>(WireStatus::kAdmissionReject);

/** Stable identifier string for a wire status (for messages/logs). */
const char* to_string(WireStatus status);

/** Map an in-process serving failure onto its wire status. */
WireStatus wire_status(runtime::ServingErrorCode code);

/** Map a received non-kOk wire status back to a typed error code. */
runtime::ServingErrorCode serving_code(WireStatus status);

/** One decoded request frame. */
struct Request
{
    std::uint64_t request_id = 0;  ///< Keys the noise draw (see policies).
    std::string endpoint;          ///< Target endpoint name.
    /** Per-sample activation at the cut (fp32 requests). */
    Tensor activation;
    /** Quantized activation; meaningful only when `is_quantized`. */
    QuantizedTensor quantized;
    /**
     * True when the activation crossed the wire quantized (`quantized`
     * holds it and the frame stamped protocol v2); false for the fp32
     * path (`activation` holds it, protocol v1 framing).
     */
    bool is_quantized = false;
};

/** One decoded response frame. */
struct Response
{
    std::uint64_t request_id = 0;     ///< Echo of the request's id.
    WireStatus status = WireStatus::kOk;
    Tensor output;        ///< Logits; valid only when status == kOk.
    std::string message;  ///< Error context; empty when status == kOk.
};

/** Encode a complete request frame (envelope + payload). */
std::string encode_request(const Request& request);

/** Encode a complete response frame (envelope + payload). */
std::string encode_response(const Response& response);

/**
 * Parse a request payload (the bytes after the 12-byte envelope) in
 * place — the bytes are read where they lie, never copied first.
 * @throws runtime::ServingError `kProtocol` on any malformation,
 *         including trailing bytes after the activation tensor.
 */
Request decode_request_payload(std::string_view payload);

/** Response-side counterpart of `decode_request_payload`. */
Response decode_response_payload(std::string_view payload);

/**
 * Check one frame envelope — the single home of the envelope rules,
 * shared by `read_frame` and the server's frame cutter.
 *
 * @param header         The frame's first `kEnvelopeBytes` bytes.
 * @param expected_magic `kRequestMagic` or `kResponseMagic`.
 * @return the payload length that follows the envelope.
 * @throws runtime::ServingError `kProtocol` for a wrong magic, a
 *         version above `kProtocolVersion`, or a length above
 *         `kMaxFramePayload` (checked before anything is allocated).
 */
std::uint32_t check_envelope(const char* header,
                             std::uint32_t expected_magic);

/**
 * Read one frame envelope + payload off a blocking `socket`.
 *
 * @param socket         The connected stream.
 * @param expected_magic `kRequestMagic` or `kResponseMagic` — which
 *                       frame kind this side of the conversation
 *                       accepts.
 * @param payload        Out: the payload bytes (envelope stripped).
 * @return true when a frame was read; false on a CLEAN close — the
 *         peer shut the stream down exactly between frames.
 * @throws runtime::ServingError `kProtocol` for a malformed envelope
 *         (wrong magic, future version, oversize payload) and
 *         `kNetwork` for a disconnect mid-frame.
 */
bool read_frame(Socket& socket, std::uint32_t expected_magic,
                std::string* payload);

}  // namespace net
}  // namespace shredder

#endif  // SHREDDER_NET_PROTOCOL_H
