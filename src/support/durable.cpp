#include "src/support/durable.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/support/crash_points.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"

namespace automap {

namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Trailer line head; the full line is
/// "#automap-checksum 1 <len> <16-hex fnv>\n" preceded by one '\n' that
/// separates it from the payload (which may or may not end in a newline
/// of its own — the separator is always added, so stripping is exact).
constexpr std::string_view kTrailerHead = "#automap-checksum 1 ";

void write_and_fsync(const std::string& path, const std::string& text,
                     const char* kind) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  AM_REQUIRE(fd >= 0, "cannot open for writing: " + path + ": " +
                          std::strerror(errno));
  std::size_t written = 0;
  while (written < text.size()) {
    const ssize_t w =
        ::write(fd, text.data() + written, text.size() - written);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0) {
      const std::string reason = std::strerror(errno);
      ::close(fd);
      throw Error("write failed: " + path + ": " + reason);
    }
    written += static_cast<std::size_t>(w);
  }
  crash_point(kind, "tmp_written");
  if (::fsync(fd) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw Error("fsync failed: " + path + ": " + reason);
  }
  ::close(fd);
}

/// fsync the directory containing `path` so the rename itself is durable.
/// Best effort on filesystems that refuse O_RDONLY dir fsync (the rename
/// is still atomic; only the power-loss window narrows).
void fsync_parent_dir(const std::string& path) {
  const std::string dir = fs::path(path).parent_path().string();
  const int fd =
      ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t state) {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t hash_text(std::string_view text, std::uint64_t state) {
  return (fnv1a64(text, state) ^ 0xffU) * kFnvPrime;
}

std::string with_checksum_trailer(std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + 64);
  out.append(payload);
  out += '\n';
  out += kTrailerHead;
  out += std::to_string(payload.size());
  out += ' ';
  out += hex_u64(fnv1a64(payload));
  out += '\n';
  return out;
}

void save_durable(const std::string& path, const std::string& text,
                  const char* kind) {
  crash_point(kind, "begin");
  const std::string tmp = path + ".tmp";
  write_and_fsync(tmp, text, kind);
  crash_point(kind, "tmp_synced");
  AM_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
             "cannot move " + tmp + " into place: " + std::strerror(errno));
  crash_point(kind, "renamed");
  fsync_parent_dir(path);
  crash_point(kind, "dir_synced");
}

void save_checksummed(const std::string& path, const std::string& payload,
                      const char* kind) {
  save_durable(path, with_checksum_trailer(payload), kind);
}

DurableLoad load_checksummed(const std::string& path) {
  DurableLoad result;
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return result;  // kMissing
  std::ostringstream os;
  os << is.rdbuf();
  const std::string stored = os.str();
  result.status = DurableLoad::Status::kCorrupt;

  // The trailer is the final line; locate its separator newline. Using
  // the *last* occurrence makes payloads containing the trailer head
  // harmless.
  const std::string needle = "\n" + std::string(kTrailerHead);
  const std::size_t sep = stored.rfind(needle);
  if (sep == std::string::npos) return result;
  const std::size_t line = sep + needle.size();
  // Parse "<len> <16 hex>\n" strictly.
  std::size_t pos = line;
  std::uint64_t length = 0;
  bool any_digit = false;
  while (pos < stored.size() && stored[pos] >= '0' && stored[pos] <= '9') {
    length = length * 10 + static_cast<std::uint64_t>(stored[pos] - '0');
    ++pos;
    any_digit = true;
  }
  if (!any_digit || pos + 18 != stored.size() || stored[pos] != ' ' ||
      stored.back() != '\n')
    return result;
  std::uint64_t sum = 0;
  for (std::size_t i = pos + 1; i < pos + 17; ++i) {
    const char c = stored[i];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9')
      digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    else
      return result;
    sum = (sum << 4) | digit;
  }
  if (length != sep) return result;  // truncated or padded payload
  const std::string_view payload(stored.data(), sep);
  if (fnv1a64(payload) != sum) return result;
  result.status = DurableLoad::Status::kOk;
  result.payload = std::string(payload);
  return result;
}

}  // namespace automap
