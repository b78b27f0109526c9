// Tests for the CLI's command registry and flag decoding: a command may not
// register one flag name twice (Args keeps one value per name, so the second
// meaning would silently overwrite the first), and numeric flags decode the
// whole token strictly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cli/cli.hpp"
#include "src/cli/commands.hpp"
#include "src/cli/service_commands.hpp"
#include "src/support/error.hpp"

namespace automap::cli {
namespace {

TEST(CommandRegistry, RefusesACommandThatRepeatsAFlag) {
  CommandRegistry registry("test");
  EXPECT_THROW(registry.add({.name = "twice",
                             .flags = {{"--retries", "N", "one meaning"},
                                       {"--retries", "N", "another"}},
                             .run = [](const Args&) { return 0; }}),
               Error);
  EXPECT_EQ(registry.find("twice"), nullptr);
}

TEST(CommandRegistry, EveryRegisteredCommandHasDistinctFlags) {
  // Registration runs every command through add()'s duplicate check; the
  // client command is the one that merges two flag tables.
  CommandRegistry registry("test");
  ASSERT_NO_THROW(register_core_commands(registry));
  ASSERT_NO_THROW(register_service_commands(registry));
  const Command* client = registry.find("client");
  ASSERT_NE(client, nullptr);
  int search_retries = 0;
  int client_retries = 0;
  for (const FlagSpec& flag : client->flags) {
    search_retries += flag.name == "--retries";
    client_retries += flag.name == "--retry-attempts";
  }
  EXPECT_EQ(search_retries, 1);
  EXPECT_EQ(client_retries, 1);
}

/// Runs a one-flag command on `tokens`, handing its Args to `read`; a
/// decoding Error propagates to the caller.
template <typename Read>
void parse_with(const std::vector<std::string>& tokens, Read read) {
  CommandRegistry registry("test");
  registry.add({.name = "cmd",
                .flags = {{"--n", "N", "a number"}},
                .run = [&](const Args& args) {
                  read(args);
                  return 0;
                }});
  std::vector<std::string> storage = {"test", "cmd"};
  storage.insert(storage.end(), tokens.begin(), tokens.end());
  std::vector<char*> argv;
  for (std::string& s : storage) argv.push_back(s.data());
  (void)registry.run(static_cast<int>(argv.size()), argv.data());
}

/// The Error message a malformed `--n token` produces via `read`.
template <typename Read>
std::string decode_error(const std::string& token, Read read) {
  try {
    parse_with({"--n", token}, read);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Args, DecodesWholeTokensStrictly) {
  const auto as_int = [](const Args& a) { (void)a.int_or("--n", 0); };
  const auto as_u64 = [](const Args& a) { (void)a.u64_or("--n", 0); };
  const auto as_num = [](const Args& a) { (void)a.num_or("--n", 0.0); };
  for (const std::string token : {"abc", "3.7", "7x", "", " 3"}) {
    const std::string what = decode_error(token, as_int);
    EXPECT_NE(what.find("--n"), std::string::npos) << token;
    EXPECT_NE(what.find("'" + token + "'"), std::string::npos) << what;
  }
  EXPECT_NE(decode_error("99999999999", as_int).find("out of range"),
            std::string::npos);
  EXPECT_NE(decode_error("-1", as_u64).find("non-negative"),
            std::string::npos);
  for (const std::string token : {"nan", "NaN", "1.5s", "1e999"})
    EXPECT_NE(decode_error(token, as_num).find("--n"), std::string::npos)
        << token;

  int i = 0;
  std::uint64_t u = 0;
  double d = 0.0;
  parse_with({"--n", "-12"}, [&](const Args& a) { i = a.int_or("--n", 0); });
  EXPECT_EQ(i, -12);
  parse_with({"--n", "18446744073709551615"},
             [&](const Args& a) { u = a.u64_or("--n", 0); });
  EXPECT_EQ(u, 18446744073709551615ULL);
  parse_with({"--n", "inf"}, [&](const Args& a) { d = a.num_or("--n", 0); });
  EXPECT_TRUE(std::isinf(d));
  parse_with({"--n", "2.5e-3"},
             [&](const Args& a) { d = a.num_or("--n", 0); });
  EXPECT_EQ(d, 2.5e-3);
  parse_with({}, [&](const Args& a) { i = a.int_or("--n", 41); });
  EXPECT_EQ(i, 41);
}

}  // namespace
}  // namespace automap::cli
