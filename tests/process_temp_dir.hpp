#pragma once

// Scratch space for tests that write files. gtest's TempDir outlives the
// test binary and is shared by every concurrent run of it (a tier-1 and a
// sanitizer `ctest` on one host), so a fixed name there lets one run
// delete, rename over or read the other's files.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace automap {

/// This process's directory under gtest's TempDir, named by its pid.
/// Created on first use and removed with everything in it when the binary
/// exits.
inline const std::filesystem::path& process_temp_dir() {
  static const struct Dir {
    std::filesystem::path path =
        std::filesystem::path(::testing::TempDir()) /
        ("automap-test-" + std::to_string(::getpid()));
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } dir;
  return dir.path;
}

/// `name` inside process_temp_dir().
inline std::string process_temp_path(const std::string& name) {
  return (process_temp_dir() / name).string();
}

}  // namespace automap
