#pragma once

// Durable, checksummed file writes for crash consistency.
//
// A plain write-temp-then-rename keeps a file *atomic* against crashes of
// this process, but not against power loss: without fsync the rename can
// be journaled before the temp file's data blocks reach disk, surfacing a
// complete-looking file full of zeros (or a truncated tail) after the
// machine comes back. save_durable closes that window — temp write,
// fsync(temp), rename, fsync(parent dir) — and brackets every step with a
// named crash point (src/support/crash_points.hpp) so the chaos harness
// can kill the process at each instant and prove recovery works.
//
// On top of that, save_checksummed appends a trailer line
//
//   \n#automap-checksum 1 <payload bytes> <fnv1a-64 hex>\n
//
// so readers can tell a complete artifact from a torn or bit-rotted one
// without parsing it. load_checksummed verifies and strips the trailer;
// anything that fails verification reports kCorrupt and the caller
// quarantines the file instead of trusting it. The trailer format is
// documented in docs/file_formats.md ("Checksum trailer").

#include <cstdint>
#include <string>
#include <string_view>

namespace automap {

/// FNV-1a 64-bit offset basis: the state of an empty hash.
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// Plain FNV-1a 64-bit over raw bytes, continuing `state` — the checksum
/// primitive.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes,
                                    std::uint64_t state = kFnv1aOffset);

/// FNV-1a over `text` plus a terminator byte, continuing `state`: chain
/// calls to fingerprint a tuple of texts without concatenating them, and
/// ("ab", "c") still hashes apart from ("a", "bc"). The service names its
/// evaluation-cache bucket files this way, and a checkpoint header
/// digests `profiles_seed` with it, so its values are stored: they must
/// not change. They are not security boundaries.
[[nodiscard]] std::uint64_t hash_text(std::string_view text,
                                      std::uint64_t state = kFnv1aOffset);

/// `payload` plus the checksum trailer line.
[[nodiscard]] std::string with_checksum_trailer(std::string_view payload);

/// Atomic + durable publish of `text` at `path`: write `path + ".tmp"`,
/// fsync it, rename over `path`, fsync the parent directory. `kind` names
/// the crash-point family fired at each step ("request", "result",
/// "checkpoint", "bucket", "tombstone", "spans"). Throws Error on I/O
/// failure.
void save_durable(const std::string& path, const std::string& text,
                  const char* kind);

/// save_durable of `payload` + checksum trailer.
void save_checksummed(const std::string& path, const std::string& payload,
                      const char* kind);

struct DurableLoad {
  enum class Status {
    kOk,       ///< trailer present and verified; `payload` is the content
    kMissing,  ///< no file at `path`
    kCorrupt,  ///< torn, truncated, bit-rotted, or trailer-less file
  };
  Status status = Status::kMissing;
  std::string payload;
};

/// Reads `path` and verifies + strips the checksum trailer. Never throws
/// on bad content — a corrupt store file is an input to recovery, not a
/// programming error.
[[nodiscard]] DurableLoad load_checksummed(const std::string& path);

}  // namespace automap
