# `skyex --version` must name the commit the source tree is at: the sha
# is read at every build (src/core/git_sha.cmake), so a reused build tree
# cannot report an older commit. Skipped when the tree is not a git
# checkout.
#
#   cmake -DSKYEX_CLI=<skyex> -DGIT=<git> -DSOURCE_DIR=<dir> -P version_sha.cmake
set(head "")
if(GIT)
  execute_process(
    COMMAND ${GIT} rev-parse --short=12 HEAD
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE head
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE git_rc)
  if(NOT git_rc EQUAL 0)
    set(head "")
  endif()
endif()
if(head STREQUAL "")
  message("version_sha: SKIPPED: ${SOURCE_DIR} is not a git checkout")
else()
  execute_process(
    COMMAND ${SKYEX_CLI} --version
    OUTPUT_VARIABLE version
    OUTPUT_STRIP_TRAILING_WHITESPACE
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "version_sha: skyex --version exited ${rc}")
  endif()
  string(FIND "${version} " "skyex ${head} " at)
  if(NOT at EQUAL 0)
    message(FATAL_ERROR
            "version_sha: skyex --version printed '${version}', "
            "but the tree is at ${head}")
  endif()
  message(STATUS "version_sha: ${version}")
endif()
