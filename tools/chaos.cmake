# Chaos suite, run as a ctest:
#   generate a small North-DK -> `skyex train` -> boot skyex_serve with
#   an armed SKYEX_FAULT_SPEC (socket errors, short reads/writes, EINTR,
#   slow I/O, a scripted linker stall, injected allocation failures and
#   clock skew) plus per-request deadlines and the wedge watchdog ->
#   skyex_chaos drives mixed valid/malformed/torn traffic and asserts
#   >= 99% of admitted requests end in a valid outcome with the server
#   still alive -> SIGTERM under the still-armed schedule must drain
#   cleanly with zero server errors.
#
# Invoked as:
#   cmake -DSKYEX_CLI=<path> -DSKYEX_SERVE=<path> -DSKYEX_CHAOS=<path>
#         -DWORK_DIR=<dir> -P chaos.cmake

foreach(var SKYEX_CLI SKYEX_SERVE SKYEX_CHAOS WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "chaos: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(entities_csv "${WORK_DIR}/entities.csv")
set(model_txt "${WORK_DIR}/model.txt")
set(port_file "${WORK_DIR}/port.txt")
set(pid_file "${WORK_DIR}/pid.txt")
set(serve_log "${WORK_DIR}/serve.log")
set(chaos_log "${WORK_DIR}/chaos.log")

function(chaos_fail message)
  if(EXISTS "${pid_file}")
    file(READ "${pid_file}" pid)
    string(STRIP "${pid}" pid)
    execute_process(COMMAND bash -c "kill -9 ${pid} 2>/dev/null || true")
  endif()
  message(FATAL_ERROR "chaos: ${message}")
endfunction()

execute_process(
  COMMAND "${SKYEX_CLI}" generate --dataset=northdk --entities=400
          --seed=13 --out=${entities_csv}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  chaos_fail("generate failed (${rc})")
endif()

execute_process(
  COMMAND "${SKYEX_CLI}" train --in=${entities_csv} --train-fraction=0.1
          --seed=3 --model-out=${model_txt} --log-level=warn
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  chaos_fail("train failed (${rc})")
endif()

# The fault schedule. Probabilistic socket faults on both directions,
# deterministic EINTR/short-I/O noise, a one-shot linker stall long
# enough to trip the 400ms watchdog (degraded answers take over until
# it clears), occasional injected allocation failures at admission, and
# clock skew that eats most requests' deadline budget now and then.
set(fault_spec "net.read_eintr:every=7")
string(APPEND fault_spec ";net.short_read:p=0.05,seed=11")
string(APPEND fault_spec ";net.read_err:p=0.01,seed=12")
string(APPEND fault_spec ";net.slow_read:p=0.02,ms=40,seed=13")
string(APPEND fault_spec ";net.write_eintr:every=9")
string(APPEND fault_spec ";net.short_write:p=0.05,seed=14")
string(APPEND fault_spec ";net.write_err:p=0.01,seed=15")
string(APPEND fault_spec ";net.slow_write:p=0.02,ms=40,seed=16")
string(APPEND fault_spec ";serve.alloc:p=0.01,seed=17")
string(APPEND fault_spec ";serve.clock_skew:p=0.05,ms=150,seed=18")
string(APPEND fault_spec ";linker.stall:after=40,times=1,ms=1200")

# Boot the server with the schedule armed, deadlines + watchdog on, and
# the 97 Hz sampler running so we can scrape a profile mid-storm.
execute_process(
  COMMAND bash -c "SKYEX_FAULT_SPEC='${fault_spec}' '${SKYEX_SERVE}' \
--model='${model_txt}' --dataset='${entities_csv}' --port=0 \
--port-file='${port_file}' --workers=4 --queue-depth=64 \
--deadline-ms=250 --watchdog-ms=400 --breaker-open-ms=500 \
--profile-hz=97 \
--log-level=info >'${serve_log}' 2>&1 & echo $! > '${pid_file}'"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  chaos_fail("could not launch skyex_serve (${rc})")
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
    chaos_fail("server exited during startup; see ${serve_log}")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.2)
endforeach()
if(port STREQUAL "")
  chaos_fail("server never wrote ${port_file}")
endif()
message(STATUS "chaos: server up on port ${port} (pid ${server_pid}), "
               "spec: ${fault_spec}")

# Kick off a mid-storm profiler scrape in the background: sleep past
# the storm's ramp-up, then GET /debug/pprof/profile?seconds=2 over raw
# /dev/tcp (HTTP/1.0 so the body ends at close). The fault schedule is
# armed on this connection too, so retry up to three times.
set(scrape_pid_file "${WORK_DIR}/scrape.pid")
set(scrape_http "${WORK_DIR}/profile.http")
execute_process(
  COMMAND bash -c "( sleep 2; for i in 1 2 3; do \
bash -c \"exec 3<>/dev/tcp/127.0.0.1/${port}; \
printf 'GET /debug/pprof/profile?seconds=2 HTTP/1.0\\r\\n\\r\\n' >&3; \
cat <&3\" > '${scrape_http}' 2>/dev/null; \
grep -Eq '^[^ ]+ [0-9]+\\r?$' '${scrape_http}' && break; sleep 1; \
done ) >/dev/null 2>&1 & echo $! > '${scrape_pid_file}'"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  chaos_fail("could not launch profile scrape (${rc})")
endif()

# The storm. skyex_chaos exits non-zero if fewer than 99% of admitted
# requests end in a valid outcome, the server stops answering, the run
# hangs past --max-seconds, or the flight recorder is missing the
# storm's timelines / the linker.stall's watchdog_trip marker.
execute_process(
  COMMAND "${SKYEX_CHAOS}" --port=${port} --requests=600 --connections=4
          --entities=150 --seed=41 --max-seconds=150
          --expect-flight-watchdog
  OUTPUT_FILE "${chaos_log}" ERROR_FILE "${chaos_log}"
  RESULT_VARIABLE rc)
file(READ "${chaos_log}" chaos_output)
message(STATUS "chaos driver output:\n${chaos_output}")
if(NOT rc EQUAL 0)
  chaos_fail("chaos driver failed (${rc}); see ${chaos_log}")
endif()

# The mid-storm scrape must have produced a valid non-empty
# collapsed-stack profile while the server weathered the storm.
foreach(attempt RANGE 75)
  file(READ "${scrape_pid_file}" scrape_pid)
  string(STRIP "${scrape_pid}" scrape_pid)
  execute_process(COMMAND bash -c "kill -0 ${scrape_pid} 2>/dev/null"
                  RESULT_VARIABLE scraping)
  if(NOT scraping EQUAL 0)
    break()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.2)
endforeach()
if(NOT EXISTS "${scrape_http}")
  chaos_fail("mid-storm profile scrape produced no response")
endif()
file(READ "${scrape_http}" scrape_response)
if(NOT scrape_response MATCHES "200 OK")
  chaos_fail("mid-storm profile scrape did not return 200; "
             "see ${scrape_http}")
endif()
# Count stack lines with grep: demangled frames contain spaces and
# ';', which CMake list handling would mangle.
execute_process(
  COMMAND bash -c "grep -cE ' [0-9]+\r?$' '${scrape_http}'"
  OUTPUT_VARIABLE stack_count OUTPUT_STRIP_TRAILING_WHITESPACE)
if(stack_count STREQUAL "")
  set(stack_count 0)
endif()
if(stack_count EQUAL 0)
  chaos_fail("mid-storm profile has no collapsed stacks; "
             "see ${scrape_http}")
endif()
message(STATUS "chaos: mid-storm profile scraped "
               "(${stack_count} collapsed stacks)")

# Drain under fire: the schedule is still armed while we SIGTERM.
execute_process(COMMAND bash -c "kill -TERM ${server_pid}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  chaos_fail("could not signal the server (${rc})")
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
  chaos_fail("server did not exit within 20s of SIGTERM")
endif()

file(READ "${serve_log}" log)
if(NOT log MATCHES "shutdown complete")
  chaos_fail("no clean shutdown in ${serve_log}")
endif()
if(log MATCHES "([0-9]+) server errors")
  if(NOT CMAKE_MATCH_1 EQUAL 0)
    chaos_fail("server reported ${CMAKE_MATCH_1} server errors")
  endif()
endif()

message(STATUS "chaos: OK")
