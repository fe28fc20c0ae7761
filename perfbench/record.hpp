// Cross-run record of a deterministic result: the first run of a build
// with a given seed stores it, every later run of the same build and seed
// must reproduce it.  The record is keyed by the digest of the sources
// the binary was built from and by the build type, so a different tree
// (a change that legitimately alters rounding or iteration counts) or a
// different build starts a fresh record instead of failing against the
// parent's.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

namespace perfbench {

/// The record file for `workload` and `seed` under `dir`, or nullopt when
/// the build's identity is unknown (the binary was run without a source
/// digest), in which case there is nothing to compare against.
[[nodiscard]] inline std::optional<std::filesystem::path> record_path(
    const std::filesystem::path& dir, const std::string& workload,
    std::uint64_t seed, const std::string& src_digest,
    const std::string& build_type) {
  const auto plain = [](const std::string& s) {
    return !s.empty() && s != "unknown" &&
           std::all_of(s.begin(), s.end(), [](unsigned char ch) {
             return std::isalnum(ch) != 0;
           });
  };
  if (!plain(src_digest) || !plain(build_type)) return std::nullopt;
  return dir / (workload + "-" + build_type + "-" + src_digest + "-seed" +
                std::to_string(seed) + ".record");
}

/// Stores `value` at `path` if no record exists and returns nullopt;
/// otherwise returns the stored record when it differs from `value`.
[[nodiscard]] inline std::optional<std::string> record_or_compare(
    const std::filesystem::path& path, const std::string& value) {
  std::ifstream in(path);
  std::string prev;
  if (in && std::getline(in, prev)) {
    if (prev == value) return std::nullopt;
    return prev;
  }
  std::ofstream(path) << value << "\n";
  return std::nullopt;
}

}  // namespace perfbench
