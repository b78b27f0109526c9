#include "src/service/wire.hpp"

#include <sys/socket.h>

#include <cstring>
#include <limits>

#include "src/support/error.hpp"
#include "src/support/json.hpp"

namespace automap {

std::string encode_frame(std::string_view payload) {
  AM_REQUIRE(payload.size() <= std::numeric_limits<std::uint32_t>::max(),
             "wire payload exceeds the 32-bit frame length");
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.push_back(static_cast<char>((n >> 24) & 0xff));
  frame.push_back(static_cast<char>((n >> 16) & 0xff));
  frame.push_back(static_cast<char>((n >> 8) & 0xff));
  frame.push_back(static_cast<char>(n & 0xff));
  frame.append(payload);
  return frame;
}

std::optional<std::size_t> decode_frame_length(std::string_view buffer) {
  if (buffer.size() < kFrameHeaderBytes) return std::nullopt;
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(
        static_cast<unsigned char>(buffer[i]));
  };
  return static_cast<std::size_t>((b(0) << 24) | (b(1) << 16) | (b(2) << 8) |
                                  b(3));
}

sockaddr_un unix_socket_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    throw Error("socket path '" + path + "' is " +
                std::to_string(path.size()) + " bytes; it must hold 1 to " +
                std::to_string(sizeof(addr.sun_path) - 1));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

std::string wire_error(std::string_view code, std::string_view message,
                       std::optional<std::uint64_t> retry_after_ms) {
  JsonWriter out;
  out.begin_object().str("type", "error").str("code", code);
  out.str("message", message);
  if (retry_after_ms) out.integer("retry_after_ms", *retry_after_ms);
  return out.end_object().take();
}

}  // namespace automap
