// Command-line flags of the tools. Every flag takes one value, and a
// command declares the flags it reads with their defaults, so an unknown,
// misspelt or valueless flag is an error naming it instead of a value
// silently left at its default.
#pragma once

#include <map>
#include <optional>
#include <string>

namespace dohperf::tools {

/// The flags a command reads ("--seed") with their values: each starts
/// at its default (std::nullopt when it has none) until a command line
/// gives one.
using Flags = std::map<std::string, std::optional<std::string>>;

/// Reads the `--flag value` pairs of argv[first, argc) into `flags`.
/// Returns "" or a diagnostic naming the argument that is not a declared
/// flag or that has no value.
[[nodiscard]] inline std::string read_flags(int argc, char** argv,
                                            int first, Flags& flags) {
  for (int i = first; i < argc; i += 2) {
    const auto flag = flags.find(argv[i]);
    if (flag == flags.end()) return std::string(argv[i]) + ": unknown flag";
    if (i + 1 == argc) return std::string(argv[i]) + ": missing value";
    flag->second = argv[i + 1];
  }
  return "";
}

}  // namespace dohperf::tools
