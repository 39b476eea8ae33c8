#include "core/build_info.h"

#include "skyex_git_sha.h"  // generated at build time by core/git_sha.cmake
#include "text/simd.h"

#ifndef SKYEX_BUILD_TYPE
#define SKYEX_BUILD_TYPE "unknown"
#endif

namespace skyex::core {

BuildInfo GetBuildInfo() {
  BuildInfo info;
  info.git_sha = SKYEX_GIT_SHA;
  info.build_type = SKYEX_BUILD_TYPE;
  info.simd_level = text::SimdLevelName(text::ActiveSimdLevel());
  return info;
}

std::string BuildInfoJson() {
  const BuildInfo info = GetBuildInfo();
  return "{\"git_sha\": \"" + info.git_sha + "\", \"build_type\": \"" +
         info.build_type + "\", \"simd\": \"" + info.simd_level + "\"}";
}

std::string VersionLine(std::string_view tool) {
  const BuildInfo info = GetBuildInfo();
  std::string line(tool);
  line += " " + info.git_sha + " (" + info.build_type;
  line += "; simd=" + info.simd_level + ")";
  return line;
}

}  // namespace skyex::core
