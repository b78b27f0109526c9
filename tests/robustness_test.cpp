// Tests for the crash-consistency support layer (src/support/durable.*,
// crash_points.*) and the client's deterministic retry backoff:
// checksum-trailer round trips, torn-file detection, the crash-point
// registry the chaos harness iterates, and full-jitter schedule
// reproducibility.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "src/io/text_io.hpp"
#include "src/service/client.hpp"
#include "src/support/crash_points.hpp"
#include "src/support/durable.hpp"
#include "tests/process_temp_dir.hpp"

namespace automap {
namespace {

namespace fs = std::filesystem;

std::string temp_file(const std::string& name) {
  const std::string path = process_temp_path("durable-" + name);
  fs::remove(path);
  return path;
}

TEST(Durable, Fnv1a64KnownVectors) {
  // Reference values for the standard FNV-1a 64-bit parameters.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(fnv1a64("ab"), fnv1a64("ba"));
}

TEST(Durable, ChecksummedRoundTrip) {
  const std::string path = temp_file("roundtrip");
  const std::string payload = "line one\nline two\nbinary-ish \x01\x02\n";
  save_checksummed(path, payload, "result");

  // On disk: payload + one trailer line.
  const std::string raw = load_text(path);
  EXPECT_EQ(raw.rfind(payload, 0), 0u);
  EXPECT_NE(raw.find("#automap-checksum 1 "), std::string::npos);
  EXPECT_EQ(raw, with_checksum_trailer(payload));

  const DurableLoad loaded = load_checksummed(path);
  ASSERT_EQ(loaded.status, DurableLoad::Status::kOk);
  EXPECT_EQ(loaded.payload, payload);
  // The temp file was renamed away, not left behind.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(Durable, EmptyPayloadRoundTrips) {
  const std::string path = temp_file("empty");
  save_checksummed(path, "", "result");
  const DurableLoad loaded = load_checksummed(path);
  ASSERT_EQ(loaded.status, DurableLoad::Status::kOk);
  EXPECT_EQ(loaded.payload, "");
}

TEST(Durable, MissingFileReportsMissing) {
  EXPECT_EQ(load_checksummed(temp_file("absent")).status,
            DurableLoad::Status::kMissing);
}

TEST(Durable, TornAndCorruptFilesDetected) {
  const std::string path = temp_file("torn");
  const std::string payload(512, 'x');
  save_checksummed(path, payload, "result");
  const std::string raw = load_text(path);

  // Truncation anywhere in the file — torn tail, half a trailer —
  // must read as corrupt, never as a shorter valid payload.
  for (const std::size_t keep :
       {raw.size() - 1, raw.size() - 10, payload.size(), std::size_t{3}}) {
    save_text(path, raw.substr(0, keep));
    EXPECT_EQ(load_checksummed(path).status, DurableLoad::Status::kCorrupt)
        << "truncated to " << keep << " bytes";
  }

  // A single flipped payload byte fails the checksum.
  std::string flipped = raw;
  flipped[17] ^= 0x20;
  save_text(path, flipped);
  EXPECT_EQ(load_checksummed(path).status, DurableLoad::Status::kCorrupt);

  // A trailer-less file (legacy or hand-written) is corrupt by policy:
  // there is no way to tell it from a torn write.
  save_text(path, payload);
  EXPECT_EQ(load_checksummed(path).status, DurableLoad::Status::kCorrupt);
}

TEST(Durable, SaveDurableWritesExactBytes) {
  // The tombstone path: durable publish without a trailer, because the
  // file's *presence* is the signal and readers take it verbatim.
  const std::string path = temp_file("tombstone");
  save_durable(path, "keep\n", "tombstone");
  EXPECT_EQ(load_text(path), "keep\n");
}

TEST(CrashPoints, RegistryIsTheFullMatrix) {
  const std::vector<std::string>& names = crash_point_names();
  // 6 artifact kinds x 5 durable-save steps.
  EXPECT_EQ(names.size(), 30u);
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  for (const char* expected :
       {"save.request.begin", "save.result.renamed",
        "save.checkpoint.tmp_synced", "save.bucket.dir_synced",
        "save.tombstone.tmp_written", "save.spans.dir_synced"})
    EXPECT_TRUE(unique.count(expected)) << expected;
}

TEST(CrashPoints, UnarmedProcessNeverCrashes) {
  // AUTOMAP_CRASH_POINT is not set in the test environment; every
  // crash_point call must be a no-op (this test would _exit otherwise).
  for (const std::string& name : crash_point_names()) {
    const std::size_t kind_end = name.find('.', 5);
    const std::string kind = name.substr(5, kind_end - 5);
    const std::string step = name.substr(kind_end + 1);
    crash_point(kind.c_str(), step.c_str());
  }
  SUCCEED();
}

TEST(RetryBackoff, DeterministicPerSeedAndBounded) {
  const RetryPolicy policy{
      .max_attempts = 8, .base_ms = 50, .cap_ms = 2000, .seed = 17};
  std::uint64_t state_a = policy.seed;
  std::uint64_t state_b = policy.seed;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const double a = retry_delay_ms(policy, attempt, state_a);
    const double b = retry_delay_ms(policy, attempt, state_b);
    EXPECT_EQ(a, b) << "same seed must replay the same schedule";
    const double ceiling =
        std::min(policy.cap_ms, policy.base_ms * double(1 << attempt));
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, ceiling) << "attempt " << attempt;
  }
  // A different seed gives a different (still valid) schedule.
  std::uint64_t state_c = 18;
  bool any_diff = false;
  std::uint64_t state_d = policy.seed;
  for (int attempt = 0; attempt < 8; ++attempt)
    any_diff |= retry_delay_ms(policy, attempt, state_c) !=
                retry_delay_ms(policy, attempt, state_d);
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace automap
