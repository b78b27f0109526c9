#include "src/cli/cli.hpp"

#include <charconv>
#include <cmath>
#include <iostream>
#include <sstream>
#include <system_error>

#include "src/support/error.hpp"

namespace automap::cli {

namespace {

/// Decodes the whole of `token` as a T: no leading space or sign the type
/// cannot hold, no trailing characters, no out-of-range value, no NaN. A
/// failure is one Error line naming the flag or argument and the token.
template <typename T>
T decode(const std::string& name, const std::string& token,
         const char* expected) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc::result_out_of_range)
    throw Error(name + " value '" + token + "' is out of range");
  if (ec != std::errc() || ptr != end || std::isnan(value))
    throw Error(name + " expects " + expected + ", got '" + token + "'");
  return value;
}

}  // namespace

bool Args::has(const std::string& flag) const {
  for (const auto& [name, value] : flags_)
    if (name == flag) return true;
  return false;
}

std::string Args::value_or(const std::string& flag,
                           const std::string& fallback) const {
  for (const auto& [name, value] : flags_)
    if (name == flag) return value;
  return fallback;
}

int Args::pos_int(std::size_t i, const std::string& name) const {
  return decode<int>(name, pos(i), "an integer");
}

std::uint64_t Args::pos_u64(std::size_t i, const std::string& name) const {
  return decode<std::uint64_t>(name, pos(i), "a non-negative integer");
}

int Args::int_or(const std::string& flag, int fallback) const {
  return has(flag) ? decode<int>(flag, value_or(flag), "an integer")
                   : fallback;
}

double Args::num_or(const std::string& flag, double fallback) const {
  return has(flag) ? decode<double>(flag, value_or(flag), "a number")
                   : fallback;
}

std::uint64_t Args::u64_or(const std::string& flag,
                           std::uint64_t fallback) const {
  return has(flag) ? decode<std::uint64_t>(flag, value_or(flag),
                                           "a non-negative integer")
                   : fallback;
}

void CommandRegistry::add(Command command) {
  // Args keeps one value per name, so a repeated flag would let one
  // meaning silently overwrite the other.
  for (std::size_t i = 0; i < command.flags.size(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      AM_REQUIRE(command.flags[i].name != command.flags[j].name,
                 "command '" + command.name + "' registers flag " +
                     command.flags[i].name + " twice");
  commands_.push_back(std::move(command));
}

const Command* CommandRegistry::find(const std::string& name) const {
  for (const Command& command : commands_)
    if (command.name == name) return &command;
  return nullptr;
}

std::string CommandRegistry::render_usage() const {
  std::ostringstream os;
  os << "usage: " << program_ << " <command> [arguments]\n\ncommands:\n";
  std::size_t width = 0;
  for (const Command& command : commands_)
    width = std::max(width, command.name.size());
  for (const Command& command : commands_) {
    os << "  " << command.name
       << std::string(width - command.name.size() + 2, ' ')
       << command.summary << "\n";
  }
  os << "\nrun '" << program_
     << " help <command>' (or <command> --help) for flags\n";
  return os.str();
}

std::string CommandRegistry::render_help(const Command& command) const {
  std::ostringstream os;
  os << "usage: " << program_ << " " << command.name;
  if (!command.positionals.empty()) os << " " << command.positionals;
  if (!command.flags.empty()) os << " [flags]";
  os << "\n\n" << command.summary << "\n";
  if (command.flags.empty()) return os.str();
  os << "\nflags:\n";
  std::size_t width = 0;
  for (const FlagSpec& flag : command.flags) {
    std::size_t w = flag.name.size();
    if (!flag.value_name.empty()) w += 1 + flag.value_name.size();
    width = std::max(width, w);
  }
  for (const FlagSpec& flag : command.flags) {
    std::string head = flag.name;
    if (!flag.value_name.empty()) head += " " + flag.value_name;
    os << "  " << head << std::string(width - head.size() + 2, ' ')
       << flag.help << "\n";
  }
  return os.str();
}

int CommandRegistry::run(int argc, char** argv) const {
  if (argc < 2) {
    std::cerr << render_usage();
    return 2;
  }
  const std::string name = argv[1];
  if (name == "help" || name == "--help" || name == "-h") {
    if (argc >= 3) {
      if (const Command* command = find(argv[2])) {
        std::cout << render_help(*command);
        return 0;
      }
      std::cerr << "unknown command: " << argv[2] << "\n" << render_usage();
      return 2;
    }
    std::cout << render_usage();
    return 0;
  }
  const Command* command = find(name);
  if (command == nullptr) {
    std::cerr << "unknown command: " << name << "\n" << render_usage();
    return 2;
  }

  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      std::cout << render_help(*command);
      return 0;
    }
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& flag : command->flags)
      if (flag.name == token) spec = &flag;
    if (spec != nullptr) {
      std::string value;
      if (!spec->value_name.empty()) {
        if (i + 1 >= argc) throw Error(token + " needs a value");
        value = argv[++i];
      }
      args.flags_.emplace_back(token, std::move(value));
    } else if (!token.empty() && token[0] == '-' && token != "-") {
      std::cerr << "unknown option: " << token << "\n"
                << render_help(*command);
      return 2;
    } else {
      args.positionals_.push_back(token);
    }
  }

  if (args.positionals_.size() < command->min_positional ||
      args.positionals_.size() > command->max_positional) {
    std::cerr << "expected " << command->positionals << "\n"
              << render_help(*command);
    return 2;
  }
  return command->run(args);
}

}  // namespace automap::cli
