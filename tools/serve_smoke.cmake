# End-to-end serving round trip, run as a ctest:
#   generate a small North-DK -> `skyex train` -> boot skyex_serve on an
#   ephemeral port -> `skyex_loadgen --smoke` validates every endpoint
#   structurally -> a short closed-loop load run must finish with zero
#   errors -> SIGTERM must drain gracefully and exit 0.
#
# Invoked as:
#   cmake -DSKYEX_CLI=<path> -DSKYEX_SERVE=<path> -DSKYEX_LOADGEN=<path>
#         -DWORK_DIR=<dir> -P serve_smoke.cmake

foreach(var SKYEX_CLI SKYEX_SERVE SKYEX_LOADGEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "serve_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(entities_csv "${WORK_DIR}/entities.csv")
set(model_txt "${WORK_DIR}/model.txt")
set(port_file "${WORK_DIR}/port.txt")
set(pid_file "${WORK_DIR}/pid.txt")
set(serve_log "${WORK_DIR}/serve.log")

# Kills the server (if it still runs) before failing the test.
function(serve_smoke_fail message)
  if(EXISTS "${pid_file}")
    file(READ "${pid_file}" pid)
    string(STRIP "${pid}" pid)
    execute_process(COMMAND bash -c "kill -9 ${pid} 2>/dev/null || true")
  endif()
  message(FATAL_ERROR "serve_smoke: ${message}")
endfunction()

execute_process(
  COMMAND "${SKYEX_CLI}" generate --dataset=northdk --entities=400
          --seed=13 --out=${entities_csv}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  serve_smoke_fail("generate failed (${rc})")
endif()

execute_process(
  COMMAND "${SKYEX_CLI}" train --in=${entities_csv} --train-fraction=0.1
          --seed=3 --model-out=${model_txt} --log-level=warn
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  serve_smoke_fail("train failed (${rc})")
endif()

# Double flags out of range (NaN and infinities included) must be
# refused with exit 2 and the range message before the server reads the
# model or the dataset. The TIMEOUT makes a server that boots on such a
# value fail this check instead of hanging it.
foreach(flag radius-m=nan radius-m=-5 radius-m=0 radius-m=inf
             calibration-percentile=nan calibration-percentile=-0.1
             calibration-percentile=1.5 prefilter-threshold=nan
             prefilter-threshold=inf breaker-threshold=nan
             psi-threshold=-inf ks-threshold=nan)
  string(REGEX MATCH "^([a-z-]+)=(.*)$" unused "${flag}")
  set(name "${CMAKE_MATCH_1}")
  set(value "${CMAKE_MATCH_2}")
  if(name STREQUAL "radius-m")
    set(expected "a finite number > 0")
  elseif(name STREQUAL "calibration-percentile")
    set(expected "a number in [0, 1]")
  else()
    set(expected "a finite number")
  endif()
  execute_process(
    COMMAND "${SKYEX_SERVE}" --model=${model_txt} --dataset=${entities_csv}
            --port=0 --${flag}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 20)
  if(NOT rc STREQUAL "2")
    serve_smoke_fail("--${flag}: expected exit 2, got '${rc}'")
  endif()
  string(FIND "${err}"
         "error: invalid value '${value}' for --${name} (expected ${expected})"
         pos)
  if(pos EQUAL -1)
    serve_smoke_fail("--${flag}: no range message in: ${err}")
  endif()
endforeach()

# Boot the server in the background on an ephemeral port; the bound
# port lands in ${port_file} once it is accepting connections.
execute_process(
  COMMAND bash -c "'${SKYEX_SERVE}' --model='${model_txt}' \
--dataset='${entities_csv}' --port=0 --port-file='${port_file}' \
--workers=4 --queue-depth=64 --log-level=info >'${serve_log}' 2>&1 & \
echo $! > '${pid_file}'"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  serve_smoke_fail("could not launch skyex_serve (${rc})")
endif()
file(READ "${pid_file}" server_pid)
string(STRIP "${server_pid}" server_pid)

set(port "")
foreach(attempt RANGE 150)
  if(EXISTS "${port_file}")
    file(READ "${port_file}" port)
    string(STRIP "${port}" port)
    if(NOT port STREQUAL "")
      break()
    endif()
  endif()
  execute_process(COMMAND bash -c "kill -0 ${server_pid} 2>/dev/null"
                  RESULT_VARIABLE alive)
  if(NOT alive EQUAL 0)
    serve_smoke_fail("server exited during startup; see ${serve_log}")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.2)
endforeach()
if(port STREQUAL "")
  serve_smoke_fail("server never wrote ${port_file}")
endif()
message(STATUS "serve_smoke: server up on port ${port} (pid ${server_pid})")

# Structural validation of every endpoint.
execute_process(
  COMMAND "${SKYEX_LOADGEN}" --port=${port} --smoke --entities=50 --seed=5
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  serve_smoke_fail("loadgen --smoke failed (${rc})")
endif()

# A short closed-loop run: every request must succeed (429s are retried
# by the loadgen; anything else fails its exit status).
execute_process(
  COMMAND "${SKYEX_LOADGEN}" --port=${port} --requests=200 --connections=4
          --entities=100 --seed=5
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  serve_smoke_fail("load run failed (${rc})")
endif()

# Graceful drain: SIGTERM, then the process must exit on its own.
execute_process(COMMAND bash -c "kill -TERM ${server_pid}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  serve_smoke_fail("could not signal the server (${rc})")
endif()
set(exited FALSE)
foreach(attempt RANGE 100)
  execute_process(COMMAND bash -c "kill -0 ${server_pid} 2>/dev/null"
                  RESULT_VARIABLE alive)
  if(NOT alive EQUAL 0)
    set(exited TRUE)
    break()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.2)
endforeach()
if(NOT exited)
  serve_smoke_fail("server did not exit within 20s of SIGTERM")
endif()

file(READ "${serve_log}" log)
if(NOT log MATCHES "shutdown complete")
  serve_smoke_fail("no clean shutdown in ${serve_log}")
endif()
if(log MATCHES "([0-9]+) server errors")
  if(NOT CMAKE_MATCH_1 EQUAL 0)
    serve_smoke_fail("server reported ${CMAKE_MATCH_1} server errors")
  endif()
endif()

message(STATUS "serve_smoke: OK")
