#ifndef SKYEX_CORE_BUILD_INFO_H_
#define SKYEX_CORE_BUILD_INFO_H_

// Build identification, so audit logs, bench snapshots and bug reports
// can pin the exact binary that produced them: the git commit the tree
// was configured from, the CMake build type, and the SIMD dispatch
// level active on this machine. Served as GET /buildz by skyex_serve
// and printed by `--version` on every tool.
//
// The git sha is read at every build (src/core/git_sha.cmake writes it
// into a generated header that changes only with the sha, so a new
// commit recompiles build_info.cc alone); "unknown" when the tree is not
// a git checkout. A reused build tree reports the commit it was last
// built at.

#include <string>
#include <string_view>

namespace skyex::core {

struct BuildInfo {
  std::string git_sha;     // short commit hash, or "unknown"
  std::string build_type;  // CMAKE_BUILD_TYPE, e.g. "Release"
  std::string simd_level;  // active text-kernel dispatch: scalar/sse2/avx2
};

BuildInfo GetBuildInfo();

/// One-line JSON object (the GET /buildz body).
std::string BuildInfoJson();

/// One-line human form for `--version`:
///   skyex_serve 1a2b3c4d5e6f (Release; simd=avx2)
std::string VersionLine(std::string_view tool);

}  // namespace skyex::core

#endif  // SKYEX_CORE_BUILD_INFO_H_
