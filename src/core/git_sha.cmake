# Writes the checkout's short commit hash into the header OUT as
# SKYEX_GIT_SHA ("unknown" outside a git checkout). OUT is rewritten only
# when the hash changed, so an unchanged tree recompiles nothing and a new
# commit recompiles core/build_info.cc alone. src/CMakeLists.txt runs it
# at every build:
#
#   cmake -DSOURCE_DIR=<dir> -DGIT=<git> -DOUT=<header> -P git_sha.cmake
set(sha "unknown")
if(GIT)
  execute_process(
    COMMAND ${GIT} rev-parse --short=12 HEAD
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE out
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE result)
  if(result EQUAL 0 AND out)
    set(sha "${out}")
  endif()
endif()
set(content "#define SKYEX_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUT}" "${content}")
endif()
