#pragma once

// Wire framing for the mapping service (docs/file_formats.md "Wire
// protocol").
//
// Every message — request or response — is one frame: a 4-byte big-endian
// payload length followed by exactly that many bytes of UTF-8 JSON. The
// framing layer is pure string transforms so it is testable without
// sockets; src/service/server.cpp and client.cpp move the bytes, over the
// Unix socket address both build with unix_socket_address.

#include <sys/un.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace automap {

/// Version of the request/response JSON vocabulary; servers reply to
/// `ping` with it so clients can detect mismatches. Bumped on any
/// incompatible schema change (the framing itself never changes).
inline constexpr int kWireVersion = 1;

/// Frame header size: 4-byte big-endian payload length.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Default per-message size cap. Requests carry whole machine/graph texts,
/// so the cap is generous; the server rejects larger frames with a
/// structured `too_large` error instead of dropping the connection.
inline constexpr std::size_t kDefaultMaxFrameBytes = 16u << 20;

/// Encodes one payload as a frame (header + bytes). Throws Error when the
/// payload exceeds the 32-bit length field.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Decodes the payload length from a frame header prefix; std::nullopt
/// when `buffer` holds fewer than kFrameHeaderBytes bytes.
[[nodiscard]] std::optional<std::size_t> decode_frame_length(
    std::string_view buffer);

/// The address of the Unix socket at `path`. Throws Error naming the path
/// when it is empty or longer than a socket address holds.
[[nodiscard]] sockaddr_un unix_socket_address(const std::string& path);

/// Structured error payload (`{"type":"error","code":...,"message":...}`)
/// — the one response shape every failure path uses, including oversize
/// frames and malformed JSON. The `overloaded` admission-control error
/// also carries `"retry_after_ms":N`, the client's minimum wait.
[[nodiscard]] std::string wire_error(
    std::string_view code, std::string_view message,
    std::optional<std::uint64_t> retry_after_ms = std::nullopt);

}  // namespace automap
