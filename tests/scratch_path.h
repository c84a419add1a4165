// Per-process scratch paths for tests that write files.
//
// A fixed name under the temp directory is shared by every process that
// runs the same test, so two concurrent runs of a suite (two build trees,
// or two checkouts) would remove or overwrite each other's files. The
// process id in the name keeps each run to its own path.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>

namespace dohperf::tests {

/// `<temp directory>/<name>-<pid>`, with anything an earlier process of
/// the same id left there removed.
inline std::filesystem::path scratch_path(const std::string& name) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      (name + "-" + std::to_string(::getpid()));
  std::filesystem::remove_all(path);
  return path;
}

}  // namespace dohperf::tests
