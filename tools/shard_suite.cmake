# Sharded-serving suite, run as a ctest:
#
# Leg 1 (smoke): boot `skyex_serve --shards=4`, validate every endpoint
#   with `skyex_loadgen --smoke`, drive a region-skewed closed-loop run
#   (--hotspot concentrates traffic on few shards), and require the
#   per-shard gauges on /metrics plus "shards":4 on /healthz and a
#   clean SIGTERM drain with zero server errors.
#
# Leg 2 (chaos): boot a second sharded server with an armed
#   SKYEX_FAULT_SPEC — a one-shot 1.2s stall on shard 2 (the in-process
#   stand-in for a killed shard: it must trip the per-shard watchdog,
#   force the shard's breaker open, and leave the other shards serving)
#   plus probabilistic per-job shard errors — under per-request
#   deadlines. The loadgen runs with --fail-on-error-rate: >= 99% of
#   outcomes must stay valid, at least one response must be degraded
#   (partial results, "degraded":true), and /debug/flight must carry
#   the watchdog_trip evidence. SIGTERM under the armed schedule must
#   still drain cleanly with zero server errors.
#
# Invoked as:
#   cmake -DSKYEX_CLI=<path> -DSKYEX_SERVE=<path> -DSKYEX_LOADGEN=<path>
#         -DWORK_DIR=<dir> -P shard_suite.cmake

foreach(var SKYEX_CLI SKYEX_SERVE SKYEX_LOADGEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "shard_suite: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(entities_csv "${WORK_DIR}/entities.csv")
set(model_txt "${WORK_DIR}/model.txt")
set(pid_file "${WORK_DIR}/pid.txt")

function(shard_fail message)
  if(EXISTS "${pid_file}")
    file(READ "${pid_file}" pid)
    string(STRIP "${pid}" pid)
    execute_process(COMMAND bash -c "kill -9 ${pid} 2>/dev/null || true")
  endif()
  message(FATAL_ERROR "shard_suite: ${message}")
endfunction()

execute_process(
  COMMAND "${SKYEX_CLI}" generate --dataset=northdk --entities=400
          --seed=13 --out=${entities_csv}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  shard_fail("generate failed (${rc})")
endif()

execute_process(
  COMMAND "${SKYEX_CLI}" train --in=${entities_csv} --train-fraction=0.1
          --seed=3 --model-out=${model_txt} --log-level=warn
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  shard_fail("train failed (${rc})")
endif()

# Boots a --shards=4 server; ${port} and ${server_pid} on return.
# `spec` is the SKYEX_FAULT_SPEC to arm ("" = none), `extra` appends
# server flags.
function(boot_sharded_server spec extra log)
  set(port_file "${WORK_DIR}/port.txt")
  file(REMOVE "${port_file}")
  execute_process(
    COMMAND bash -c "SKYEX_FAULT_SPEC='${spec}' '${SKYEX_SERVE}' \
--model='${model_txt}' --dataset='${entities_csv}' --port=0 \
--port-file='${port_file}' --workers=4 --queue-depth=64 --shards=4 \
${extra} --log-level=info >'${log}' 2>&1 & echo $! > '${pid_file}'"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    shard_fail("could not launch skyex_serve (${rc})")
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
      shard_fail("server exited during startup; see ${log}")
    endif()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.2)
  endforeach()
  if(port STREQUAL "")
    shard_fail("server never wrote ${port_file}")
  endif()
  set(port "${port}" PARENT_SCOPE)
  set(server_pid "${server_pid}" PARENT_SCOPE)
endfunction()

# Raw HTTP/1.0 GET over /dev/tcp into `out` (the body ends at close).
function(scrape_endpoint port path out)
  execute_process(
    COMMAND bash -c "exec 3<>/dev/tcp/127.0.0.1/${port}; \
printf 'GET ${path} HTTP/1.0\\r\\n\\r\\n' >&3; cat <&3"
    OUTPUT_FILE "${out}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    shard_fail("scrape of ${path} failed (${rc})")
  endif()
endfunction()

# SIGTERM + drain check shared by both legs.
function(drain_server server_pid log)
  execute_process(COMMAND bash -c "kill -TERM ${server_pid}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    shard_fail("could not signal the server (${rc})")
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
    shard_fail("server did not exit within 20s of SIGTERM")
  endif()
  file(READ "${log}" drained)
  if(NOT drained MATCHES "shutdown complete")
    shard_fail("no clean shutdown in ${log}")
  endif()
  if(drained MATCHES "([0-9]+) server errors")
    if(NOT CMAKE_MATCH_1 EQUAL 0)
      shard_fail("server reported ${CMAKE_MATCH_1} server errors")
    endif()
  endif()
endfunction()

# ---------------------------------------------------------------- leg 1: smoke

set(smoke_log "${WORK_DIR}/serve_smoke.log")
boot_sharded_server("" "" "${smoke_log}")
message(STATUS "shard_suite: sharded server up on port ${port} "
               "(pid ${server_pid})")

execute_process(
  COMMAND "${SKYEX_LOADGEN}" --port=${port} --smoke --entities=50 --seed=5
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  shard_fail("loadgen --smoke failed against --shards=4 (${rc})")
endif()

# Region-skewed load: 60% of requests hammer the densest corner of the
# pool, so some shards see far more scatter traffic than others.
execute_process(
  COMMAND "${SKYEX_LOADGEN}" --port=${port} --requests=200 --connections=4
          --entities=100 --seed=5 --hotspot=0.6 --hotspot-share=0.15
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  shard_fail("region-skewed load run failed (${rc})")
endif()

scrape_endpoint(${port} "/healthz" "${WORK_DIR}/healthz.http")
file(READ "${WORK_DIR}/healthz.http" healthz)
if(NOT healthz MATCHES "\"shards\":4")
  shard_fail("/healthz does not report 4 shards; see healthz.http")
endif()

scrape_endpoint(${port} "/metrics" "${WORK_DIR}/metrics.http")
file(READ "${WORK_DIR}/metrics.http" metrics)
foreach(s RANGE 3)
  foreach(gauge queue_depth records breaker_state wedged)
    if(NOT metrics MATCHES "shard/${s}/${gauge}")
      shard_fail("/metrics is missing gauge shard/${s}/${gauge}")
    endif()
  endforeach()
endforeach()

drain_server(${server_pid} "${smoke_log}")
message(STATUS "shard_suite: smoke leg OK")

# ---------------------------------------------------------------- leg 2: chaos

# Shard 2 stalls once for 1.2s (the watchdog threshold is 400ms: it
# must be marked wedged, breaker forced open, then recover), and every
# shard fails ~4% of its jobs. Deadlines keep the router from paying
# the stall on every request.
set(fault_spec "shard.2.stall:after=10,times=1,ms=1200")
string(APPEND fault_spec ";shard.error:p=0.04,seed=7")

set(chaos_log "${WORK_DIR}/serve_chaos.log")
boot_sharded_server("${fault_spec}"
    "--deadline-ms=300 --watchdog-ms=400 --breaker-open-ms=500"
    "${chaos_log}")
message(STATUS "shard_suite: chaos server up on port ${port} "
               "(pid ${server_pid}), spec: ${fault_spec}")

# >= 99% valid outcomes required; injected shard errors only degrade
# responses, so genuine errors past 1% fail the leg.
execute_process(
  COMMAND "${SKYEX_LOADGEN}" --port=${port} --requests=400 --connections=4
          --entities=100 --seed=9 --hotspot=0.5 --hotspot-share=0.2
          --fail-on-error-rate=0.01
  OUTPUT_FILE "${WORK_DIR}/loadgen_chaos.log"
  ERROR_FILE "${WORK_DIR}/loadgen_chaos.log"
  RESULT_VARIABLE rc)
file(READ "${WORK_DIR}/loadgen_chaos.log" load_output)
message(STATUS "shard_suite chaos loadgen output:\n${load_output}")
if(NOT rc EQUAL 0)
  shard_fail("chaos load run failed (${rc}); see loadgen_chaos.log")
endif()

# Graceful degradation must actually have happened: partial results
# marked "degraded":true, not failures.
if(NOT load_output MATCHES "\\(([0-9]+) degraded\\)")
  shard_fail("could not parse the degraded count from the loadgen output")
endif()
if(CMAKE_MATCH_1 EQUAL 0)
  shard_fail("no degraded responses under the shard fault schedule")
endif()
message(STATUS "shard_suite: ${CMAKE_MATCH_1} degraded responses under fire")

# Per-shard breaker/watchdog evidence on the debug surfaces.
scrape_endpoint(${port} "/debug/flight" "${WORK_DIR}/flight.http")
file(READ "${WORK_DIR}/flight.http" flight)
if(NOT flight MATCHES "watchdog_trip")
  shard_fail("no watchdog_trip event on /debug/flight; see flight.http")
endif()

scrape_endpoint(${port} "/metrics" "${WORK_DIR}/metrics_chaos.http")
file(READ "${WORK_DIR}/metrics_chaos.http" metrics)
if(NOT metrics MATCHES "shard/degraded_results")
  shard_fail("/metrics is missing the shard/degraded_results counter")
endif()
if(NOT metrics MATCHES "shard/watchdog_trips")
  shard_fail("/metrics is missing the shard/watchdog_trips counter")
endif()

# Drain with the schedule still armed.
drain_server(${server_pid} "${chaos_log}")
message(STATUS "shard_suite: OK")
