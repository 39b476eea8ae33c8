# Linkage-quality observability suite, run as a ctest:
#   `skyex train` must write a reference profile next to the model ->
#   boot skyex_serve with the audit log + drift detector armed ->
#   unshifted load must leave the PSI gauges below the trip threshold
#   while the audit counters advance, and /buildz + /debug/quality must
#   answer -> after a clean drain, `skyex_audit replay` must reproduce
#   every logged decision bit-identically -> a second server fed
#   name-drifted traffic (--drift-name) must trip the drift detector:
#   quality/drift_trips >= 1 and a quality_drift marker in /debug/flight.
#
# Invoked as:
#   cmake -DSKYEX_CLI=<path> -DSKYEX_SERVE=<path> -DSKYEX_LOADGEN=<path>
#         -DSKYEX_AUDIT=<path> -DWORK_DIR=<dir> -P quality_suite.cmake

foreach(var SKYEX_CLI SKYEX_SERVE SKYEX_LOADGEN SKYEX_AUDIT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "quality_suite: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(entities_csv "${WORK_DIR}/entities.csv")
set(model_txt "${WORK_DIR}/model.txt")
set(profile_txt "${WORK_DIR}/model.txt.profile")
set(audit_log "${WORK_DIR}/audit.bin")
set(audit_log2 "${WORK_DIR}/audit_drift.bin")
set(port_file "${WORK_DIR}/port.txt")
set(pid_file "${WORK_DIR}/pid.txt")
set(serve_log "${WORK_DIR}/serve.log")

# The drift trip level asserted on both runs: the unshifted run must
# stay below it, the --drift-name run must cross it. Name drift moves
# both the entity name-length window and the text-feature windows, so
# the margin against the calm baseline is wide.
#
# The baseline is made genuinely unshifted: the loadgen pool IS the
# training corpus (--dataset), the server scores the same candidate
# population the profile was built over (--prefilter-threshold=0), and
# row windows are decimated (--drift-row-sample=32) so each one spans
# hundreds of requests instead of a handful of correlated candidate
# bursts. Empirically the calm per-window PSI tops out around 0.35
# while the --drift-name run reaches ~5.5; 0.7 sits between with a 2x
# margin on both sides.
set(psi_threshold 0.7)

function(quality_fail)
  string(JOIN "" msg ${ARGV})
  if(EXISTS "${pid_file}")
    file(READ "${pid_file}" pid)
    string(STRIP "${pid}" pid)
    execute_process(COMMAND bash -c "kill -9 ${pid} 2>/dev/null || true")
  endif()
  message(FATAL_ERROR "quality_suite: ${msg}")
endfunction()

# HTTP GET into a variable; fails the suite on a non-200.
function(fetch path out_var)
  set(out_file "${WORK_DIR}/fetch.tmp")
  file(DOWNLOAD "http://127.0.0.1:${port}${path}" "${out_file}"
       STATUS status TIMEOUT 30)
  list(GET status 0 status_code)
  if(NOT status_code EQUAL 0)
    quality_fail("GET ${path} failed: ${status}")
  endif()
  file(READ "${out_file}" body)
  set(${out_var} "${body}" PARENT_SCOPE)
endfunction()

# Reads gauge NAME out of a /metrics JSON body into OUT_VAR.
function(metric_gauge body name out_var)
  string(REGEX MATCH "\"${name}\": ([-+0-9.eE]+)" found "${body}")
  if(found STREQUAL "")
    quality_fail("gauge ${name} not in /metrics")
  endif()
  set(${out_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

function(boot_server audit_path log_path)
  file(REMOVE "${port_file}")
  execute_process(
    COMMAND bash -c "'${SKYEX_SERVE}' --model='${model_txt}' \
--dataset='${entities_csv}' --port=0 --port-file='${port_file}' \
--workers=4 --queue-depth=64 --audit-log='${audit_path}' \
--audit-sample=1 --prefilter-threshold=0 --drift-window=256 \
--drift-row-sample=32 --entity-window=200 \
--psi-threshold=${psi_threshold} --ks-threshold=0.9 \
--log-level=info >'${log_path}' 2>&1 & echo $! > '${pid_file}'"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    quality_fail("could not launch skyex_serve (${rc})")
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
      quality_fail("server exited during startup; see ${log_path}")
    endif()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.2)
  endforeach()
  if(port STREQUAL "")
    quality_fail("server never wrote ${port_file}")
  endif()
  set(port "${port}" PARENT_SCOPE)
  set(server_pid "${server_pid}" PARENT_SCOPE)
endfunction()

function(stop_server)
  execute_process(COMMAND bash -c "kill -TERM ${server_pid}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    quality_fail("could not signal the server (${rc})")
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
    quality_fail("server did not exit within 20s of SIGTERM")
  endif()
endfunction()

# --- train: the model AND its reference profile ------------------------
execute_process(
  COMMAND "${SKYEX_CLI}" generate --dataset=northdk --entities=400
          --seed=13 --out=${entities_csv}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  quality_fail("generate failed (${rc})")
endif()
execute_process(
  COMMAND "${SKYEX_CLI}" train --in=${entities_csv} --train-fraction=0.1
          --seed=3 --model-out=${model_txt} --log-level=warn
  RESULT_VARIABLE rc OUTPUT_VARIABLE train_out)
if(NOT rc EQUAL 0)
  quality_fail("train failed (${rc})")
endif()
if(NOT EXISTS "${profile_txt}")
  quality_fail("train did not write ${profile_txt}")
endif()
if(NOT train_out MATCHES "reference profile written")
  quality_fail("train did not announce the reference profile")
endif()

# --- run 1: unshifted load — calm drift, advancing audit counters ------
boot_server("${audit_log}" "${serve_log}")
message(STATUS "quality_suite: server up on port ${port} (pid ${server_pid})")

fetch("/buildz" buildz)
foreach(key git_sha build_type simd)
  if(NOT buildz MATCHES "\"${key}\"")
    quality_fail("/buildz body lacks ${key}: ${buildz}")
  endif()
endforeach()

execute_process(
  COMMAND "${SKYEX_LOADGEN}" --port=${port} --requests=600 --connections=2
          --dataset=${entities_csv} --seed=5
  RESULT_VARIABLE rc OUTPUT_VARIABLE loadgen_out)
if(NOT rc EQUAL 0)
  quality_fail("baseline load run failed (${rc})")
endif()
if(NOT loadgen_out MATCHES "quality: audit sampled=")
  quality_fail("loadgen did not report quality counters: ${loadgen_out}")
endif()

fetch("/metrics" metrics)
metric_gauge("${metrics}" "quality/audit_written" audit_written)
metric_gauge("${metrics}" "quality/audit_sampled" audit_sampled)
metric_gauge("${metrics}" "quality/drift_trips" drift_trips)
metric_gauge("${metrics}" "quality/psi_feature_max" psi_feature_max)
metric_gauge("${metrics}" "quality/psi_name_len" psi_name_len)
metric_gauge("${metrics}" "quality/drift_entity_windows" entity_windows)
if(audit_written LESS 1)
  quality_fail("no audit records written (written=${audit_written})")
endif()
if(audit_sampled LESS 1)
  quality_fail("no link attempts sampled (sampled=${audit_sampled})")
endif()
if(entity_windows LESS 1)
  quality_fail("drift detector never evaluated an entity window")
endif()
if(NOT drift_trips EQUAL 0)
  quality_fail("unshifted load tripped the drift detector "
               "(trips=${drift_trips}, psi_feature_max=${psi_feature_max}, "
               "psi_name_len=${psi_name_len})")
endif()
if(psi_name_len GREATER_EQUAL ${psi_threshold})
  quality_fail("baseline psi_name_len ${psi_name_len} is not below the "
               "trip threshold ${psi_threshold}")
endif()
message(STATUS "quality_suite: baseline calm — written=${audit_written} "
               "psi_feature_max=${psi_feature_max} "
               "psi_name_len=${psi_name_len}")

fetch("/debug/quality" debug_quality)
foreach(pattern "\"enabled\": true" "\"sample_every\": 1" "\"trips\": 0")
  if(NOT debug_quality MATCHES "${pattern}")
    quality_fail("/debug/quality lacks '${pattern}': ${debug_quality}")
  endif()
endforeach()

stop_server()
file(READ "${serve_log}" log)
if(NOT log MATCHES "quality —")
  quality_fail("no quality shutdown summary in ${serve_log}")
endif()

# --- offline: the captured log replays bit-identically -----------------
execute_process(
  COMMAND "${SKYEX_AUDIT}" replay --log=${audit_log} --model=${model_txt}
  RESULT_VARIABLE rc OUTPUT_VARIABLE replay_out)
if(NOT rc EQUAL 0)
  quality_fail("audit replay failed (${rc}): ${replay_out}")
endif()
if(NOT replay_out MATCHES "bit-identical")
  quality_fail("replay is not bit-identical: ${replay_out}")
endif()
message(STATUS "quality_suite: ${replay_out}")

execute_process(
  COMMAND "${SKYEX_AUDIT}" dump --log=${audit_log} --limit=3
  RESULT_VARIABLE rc OUTPUT_VARIABLE dump_out)
if(NOT rc EQUAL 0)
  quality_fail("audit dump failed (${rc})")
endif()
if(NOT dump_out MATCHES "\"threshold_key\"")
  quality_fail("audit dump has no threshold_key: ${dump_out}")
endif()

# A model that parses but reads past the logged rows is refused, not
# applied to them.
set(wide_model "${WORK_DIR}/model_wide.txt")
file(WRITE "${wide_model}" "preference: high(100) > high(3)\ncutoff_ratio: 0.05\n")
foreach(command "replay;--model=${wide_model}"
                "diff;--model-a=${model_txt};--model-b=${wide_model}")
  execute_process(
    COMMAND "${SKYEX_AUDIT}" ${command} --log=${audit_log}
    RESULT_VARIABLE rc ERROR_VARIABLE refuse_err OUTPUT_QUIET)
  if(rc EQUAL 0 OR NOT refuse_err MATCHES "feature index 100 ")
    quality_fail("skyex_audit ${command} applied a model reading past "
                 "the logged rows (${rc}): ${refuse_err}")
  endif()
endforeach()

# --- run 2: name-drifted load must trip the detector -------------------
boot_server("${audit_log2}" "${WORK_DIR}/serve_drift.log")
message(STATUS "quality_suite: drift server on port ${port}")

execute_process(
  COMMAND "${SKYEX_LOADGEN}" --port=${port} --requests=600 --connections=2
          --dataset=${entities_csv} --seed=5 --drift-name=XQZWJVK
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  quality_fail("drifted load run failed (${rc})")
endif()

fetch("/metrics" metrics)
metric_gauge("${metrics}" "quality/drift_trips" drift_trips)
metric_gauge("${metrics}" "quality/psi_feature_max" psi_feature_max)
metric_gauge("${metrics}" "quality/psi_name_len" psi_name_len)
if(drift_trips LESS 1)
  quality_fail("drifted load did not trip the detector "
               "(psi_feature_max=${psi_feature_max}, "
               "psi_name_len=${psi_name_len})")
endif()
if(psi_name_len LESS ${psi_threshold} AND psi_feature_max LESS ${psi_threshold})
  quality_fail("no PSI gauge crossed ${psi_threshold} under drift "
               "(psi_feature_max=${psi_feature_max}, "
               "psi_name_len=${psi_name_len})")
endif()
message(STATUS "quality_suite: drift tripped — trips=${drift_trips} "
               "psi_feature_max=${psi_feature_max} "
               "psi_name_len=${psi_name_len}")

fetch("/debug/flight" flight)
if(NOT flight MATCHES "quality_drift")
  quality_fail("no quality_drift marker in /debug/flight")
endif()

stop_server()

message(STATUS "quality_suite: OK")
